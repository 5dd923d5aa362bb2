package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the manifest file inside a checkpoint directory. It is
// written after every shard file, so its presence marks the checkpoint
// complete.
const ManifestName = "MANIFEST.json"

// Well-known Manifest.Meta keys. The ckpt format treats Meta as opaque;
// these names are the convention shared by the writers (internal/train) and
// the readers (internal/serve, cmd/dchag-train) so a checkpoint is
// self-describing across binaries.
const (
	// MetaStage fingerprints the architecture family the checkpoint was
	// saved from: "dchag", at every rank and partition count; training and
	// serving refuse any other.
	MetaStage = "stage"
	// MetaArch holds the JSON-encoded model.Arch of the saved model, letting
	// inference tooling rebuild the architecture without out-of-band
	// configuration.
	MetaArch = "arch"
)

// Manifest is the checkpoint directory's index: the format version, the
// saving topology, the training progress, and the shard file list. It is
// JSON so operators can inspect checkpoints without tooling.
type Manifest struct {
	// Format is the checkpoint layout version (ckpt.Format).
	Format string `json:"format"`
	// World is the number of ranks that saved (== number of shard files).
	World int `json:"world"`
	// Partitions is the logical D-CHAG channel-partition count of the saved
	// model; restoring at q ranks requires q to divide it. 1 for models
	// without channel sharding.
	Partitions int `json:"partitions"`
	// Step is the number of completed optimizer steps at save time; resume
	// continues from here.
	Step int `json:"step"`
	// OptAlgo names the optimizer family whose state the shards carry
	// (empty when none was saved).
	OptAlgo string `json:"opt_algo,omitempty"`
	// Meta carries caller-defined key/value pairs (e.g. an architecture
	// fingerprint validated on load).
	Meta map[string]string `json:"meta,omitempty"`
	// Shards lists the shard files, indexed by saving rank: ShardFile(r) at
	// index r, the only names a reader accepts.
	Shards []string `json:"shards"`
}

// WriteManifest writes dir's manifest, filling Format when unset and Shards
// from World (ShardFile(r) at index r, whatever the caller passed). Call it
// only after every shard file has been written: the manifest's presence is
// the checkpoint's commit point.
func WriteManifest(dir string, m Manifest) error {
	if m.Format == "" {
		m.Format = Format
	}
	if m.Format != Format {
		return fmt.Errorf("ckpt: cannot write manifest with format %q (want %q)", m.Format, Format)
	}
	if m.World < 1 {
		return fmt.Errorf("ckpt: manifest world %d must be positive", m.World)
	}
	if m.Partitions < 1 {
		m.Partitions = 1
	}
	m.Shards = make([]string, m.World)
	for r := range m.Shards {
		m.Shards[r] = ShardFile(r)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: creating checkpoint directory: %w", err)
	}
	return atomicWrite(filepath.Join(dir, ManifestName), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// ReadManifest loads and validates dir's manifest. It accepts only the
// conventional shard names, ShardFile(r) at index r, so a manifest cannot
// make Open read a file outside its directory.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: decoding manifest: %w", err)
	}
	if m.Format != Format {
		return Manifest{}, fmt.Errorf("ckpt: manifest format %q not supported (want %q)", m.Format, Format)
	}
	if m.World < 1 {
		return Manifest{}, fmt.Errorf("ckpt: manifest world %d must be positive", m.World)
	}
	if err := checkShards(m); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// checkShards checks that m lists World shard files, ShardFile(r) at index r.
func checkShards(m Manifest) error {
	if len(m.Shards) != m.World {
		return fmt.Errorf("ckpt: manifest lists %d shards for world %d", len(m.Shards), m.World)
	}
	for r, name := range m.Shards {
		if name != ShardFile(r) {
			return fmt.Errorf("ckpt: manifest names shard %d %q, want %q", r, name, ShardFile(r))
		}
	}
	return nil
}

// atomicWrite commits path durably: it writes a temp file in path's own
// directory, fsyncs it, renames it over path and fsyncs the directory, so
// once it returns, the new bytes and the name that points at them survive a
// crash or power loss. The temp file never leaves the target's directory
// (filepath.Dir of a bare name is "."), so the rename stays atomic.
func atomicWrite(path string, write func(*os.File) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", base, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", base, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: committing %s: %w", base, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("ckpt: syncing the directory of %s: %w", base, err)
	}
	return nil
}

// syncDir fsyncs a directory, making the entries renamed or created in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
