package ckpt

import (
	"encoding/gob"
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
	// saved from ("dchag" or "serial").
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
	// Shards lists the shard files, indexed by saving rank.
	Shards []string `json:"shards"`
}

// ShardFile returns the conventional shard file name for a rank.
func ShardFile(rank int) string { return fmt.Sprintf("shard-%04d.gob", rank) }

// WriteShard serializes tree as dir's shard file for the given rank,
// creating the directory if needed. The write is atomic (temp file +
// rename), so a crash mid-write never leaves a half-written shard file. A
// save into a single-slot directory that dies after some renames leaves
// the old manifest over newer shards; Open rejects that mix by the shards'
// optimizer step.
func WriteShard(dir string, rank int, tree Tree) error {
	if tree.Format == "" {
		tree.Format = Format
	}
	if tree.Format != Format {
		return fmt.Errorf("ckpt: cannot write shard with format %q (want %q)", tree.Format, Format)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: creating checkpoint directory: %w", err)
	}
	return atomicWrite(filepath.Join(dir, ShardFile(rank)), func(f *os.File) error {
		return gob.NewEncoder(f).Encode(tree)
	})
}

// WriteManifest writes dir's manifest, filling Format and Shards from World
// when unset. Call it only after every shard file has been written: the
// manifest's presence is the checkpoint's commit point.
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
	if m.Shards == nil {
		for r := 0; r < m.World; r++ {
			m.Shards = append(m.Shards, ShardFile(r))
		}
	}
	if len(m.Shards) != m.World {
		return fmt.Errorf("ckpt: manifest lists %d shards for world %d", len(m.Shards), m.World)
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

// ReadManifest loads and validates dir's manifest.
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
	if m.World < 1 || len(m.Shards) != m.World {
		return Manifest{}, fmt.Errorf("ckpt: manifest world %d does not match %d shard files", m.World, len(m.Shards))
	}
	return m, nil
}

// readShard loads and validates one shard file.
func readShard(path string) (Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return Tree{}, fmt.Errorf("ckpt: opening shard: %w", err)
	}
	defer f.Close()
	var tree Tree
	if err := gob.NewDecoder(f).Decode(&tree); err != nil {
		return Tree{}, fmt.Errorf("ckpt: decoding shard %s: %w", filepath.Base(path), err)
	}
	if tree.Format != Format {
		return Tree{}, fmt.Errorf("ckpt: shard %s format %q not supported (want %q)", filepath.Base(path), tree.Format, Format)
	}
	return tree, nil
}

// atomicWrite writes via a temp file in the target's directory and renames
// it into place.
func atomicWrite(path string, write func(*os.File) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", base, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: committing %s: %w", base, err)
	}
	return nil
}
