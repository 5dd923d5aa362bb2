package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds Open a checkpoint directory whose manifest and two shard
// files are arbitrary bytes: it must return an error or a checkpoint, never
// panic, and never one that read a file the directory does not hold. A copy
// of the first shard sits next to the directory as "x", where a manifest
// naming "../x" would reach it. The seeds in testdata/fuzz/FuzzOpen are a
// valid two-rank checkpoint, a save torn between its shards and its
// manifest, that traversal name, and a leaf whose shape has an empty
// dimension (2^40 zero-length rows, which assembly once looped over).
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
		c, err := Open(dir)
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
