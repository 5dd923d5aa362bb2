package ckpt

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzOpen feeds Open a checkpoint directory whose manifest and two shard
// files are arbitrary bytes: it must return an error or a checkpoint, never
// panic, never one that read a file the directory does not hold, and never
// allocate more than a small multiple of the bytes it was given (a header
// may claim any count; the decoder checks it against the file first). A
// copy of the first shard sits next to the directory as "x", where a
// manifest naming "../x" would reach it. The seeds in
// testdata/fuzz/FuzzOpen are a valid two-rank checkpoint, a save torn
// between its shards and its manifest, that traversal name, a leaf whose
// shape has an empty dimension (2^40 zero-length rows, which assembly once
// looped over), and a 100-byte shard whose one leaf claims 2^40 values.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest, shard0, shard1 []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "ck")
		files := map[string][]byte{
			filepath.Join(root, "x"):         shard0,
			filepath.Join(dir, ManifestName): manifest,
			filepath.Join(dir, ShardFile(0)): shard0,
			filepath.Join(dir, ShardFile(1)): shard1,
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range files {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := Open(dir)
		runtime.ReadMemStats(&after)
		given := uint64(len(manifest) + 2*len(shard0) + len(shard1))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+16*given {
			t.Fatalf("Open allocated %d bytes for %d bytes of input", alloc, given)
		}
		if err != nil {
			return
		}
		for r, name := range c.Manifest.Shards {
			if name != ShardFile(r) {
				t.Fatalf("Open accepted shard %d named %q", r, name)
			}
		}
	})
}
