package ckpt

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestAssembleMatchesOpen: assembling shard trees in memory must produce
// the same logical tensors as writing them to disk and reading them back —
// the equivalence the elastic supervisor's zero-I/O reshard path rests on.
func TestAssembleMatchesOpen(t *testing.T) {
	const rows, cols = 8, 3
	ranks := shardedParams(t, 4, rows, cols, fill)
	man := Manifest{Format: Format, Partitions: 4, Step: 7}

	dir := t.TempDir()
	saveRanks(t, dir, ranks, nil, man)
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	trees := make([]Tree, len(ranks))
	for r, params := range ranks {
		trees[r] = BuildTree(params, nil)
	}
	man.World = len(trees)
	assembled, err := Assemble(man, trees)
	if err != nil {
		t.Fatal(err)
	}

	for key := range opened.logical {
		want, _ := opened.LogicalTensor(key)
		got, ok := assembled.LogicalTensor(key)
		if !ok {
			t.Fatalf("assembled checkpoint missing %q", key)
		}
		if !tensor.SameShape(want, got) {
			t.Fatalf("%q shape %v vs %v", key, want.Shape, got.Shape)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%q element %d: %v vs %v", key, i, want.Data[i], got.Data[i])
			}
		}
	}
	if assembled.Manifest.Step != 7 {
		t.Fatalf("manifest step = %d", assembled.Manifest.Step)
	}
}

// TestAssembleDetectsMissingShard: dropping one rank's tree must fail the
// tiling check (the condition that forces the supervisor onto the
// checkpoint-restore path after a death with no surviving replica).
func TestAssembleDetectsMissingShard(t *testing.T) {
	ranks := shardedParams(t, 4, 8, 3, fill)
	var trees []Tree
	for r, params := range ranks {
		if r == 2 {
			continue
		}
		trees = append(trees, BuildTree(params, nil))
	}
	_, err := Assemble(Manifest{Format: Format, Partitions: 4, World: 3}, trees)
	if err == nil {
		t.Fatal("assemble succeeded with a missing shard")
	}
	if !strings.Contains(err.Error(), "gap") {
		t.Fatalf("err = %v, want tiling gap", err)
	}
}

// TestAssembleReplicaCoverage: with a replicated copy of every shard (the
// DP>1 case), any single rank's tree can be dropped and assembly still
// succeeds — replica dedup picks the surviving copy.
func TestAssembleReplicaCoverage(t *testing.T) {
	const rows, cols = 8, 3
	ranks := shardedParams(t, 4, rows, cols, fill)
	var trees []Tree
	for r, params := range ranks {
		if r == 1 {
			continue // dead rank
		}
		trees = append(trees, BuildTree(params, nil))
	}
	// Rank 1's shard survives as its DP twin's identical copy.
	twin := shardedParams(t, 4, rows, cols, fill)[1]
	trees = append(trees, BuildTree(twin, nil))
	ck, err := Assemble(Manifest{Format: Format, Partitions: 4, World: 4}, trees)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ck.LogicalTensor("w")
	if !ok {
		t.Fatal("logical tensor missing")
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if got.At(i, j) != fill(i, j) {
				t.Fatalf("assembled[%d,%d] = %v, want %v", i, j, got.At(i, j), fill(i, j))
			}
		}
	}
}

// TestAssembleEmpty rejects a treeless assembly outright.
func TestAssembleEmpty(t *testing.T) {
	if _, err := Assemble(Manifest{Format: Format}, nil); err == nil {
		t.Fatal("want error for empty tree set")
	}
}

// TestShardRankMismatchIsAnError pins that a decoded leaf whose slice shape
// and full-shape annotation differ in rank is reported, naming both shapes,
// by Leaf.validate and by Open on a directory holding such a shard — the
// path dchag-serve's hot swap takes on whatever WatchLatest finds. It used
// to index the shorter shape out of range.
func TestShardRankMismatchIsAnError(t *testing.T) {
	bad := Leaf{
		Name: "w", Logical: "w", Axis: 0, FullShape: []int{4, 2}, Lo: 0, Hi: 4,
		Shape: []int{4}, Values: make([]float64, 4),
	}
	wantNames := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "[4]") || !strings.Contains(err.Error(), "[4 2]") {
			t.Fatalf("err = %v, want both shapes named", err)
		}
	}
	wantNames(bad.validate())

	dir := t.TempDir()
	if err := WriteShard(dir, 0, Tree{Leaves: []Leaf{bad}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, Manifest{World: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	wantNames(err)
}
