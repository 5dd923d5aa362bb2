// Package ckpt implements shard-aware, reshardable checkpointing for the
// repository's training runs: the durable format behind `dchag-train -save /
// -load / -resume`.
//
// A checkpoint is a directory holding one self-describing shard file per
// saving rank plus a small JSON manifest (written last, so a complete
// manifest implies a complete checkpoint). Each shard file holds that rank's
// state Tree: one Leaf per parameter carrying the value buffer, the
// parameter's shard annotation (nn.ShardInfo — logical name, shard axis,
// full logical shape, [lo, hi) bounds), and the optimizer's moment buffers
// for that parameter (optim.State, keyed by parameter name). Moment buffers
// share their parameter's shard layout, which is what makes optimizer state
// reshardable alongside the weights. Training writes each checkpoint into
// its own step subdirectory of a checkpoint root and commits it with Commit
// (retain.go).
//
// Shards use one fixed binary layout, dchag-ckpt/v2 (shard.go): a header of
// varint-encoded names, shapes and bounds per leaf, each followed by its raw
// little-endian float64 payloads. The save path copies nothing: BuildTree's
// leaves are views of the live parameter and moment buffers, and WriteShard
// streams them through one fixed-size buffer. Every file (shards and
// manifest alike) is written to a temp file in its directory, fsync'd,
// renamed into place and the directory fsync'd, so a committed manifest
// never names bytes that are not on disk.
//
// On load the Checkpoint assembles every logical tensor from whatever
// sharding it was saved under — whole replicas are deduplicated, shard
// pieces are tiled along their axis and verified to cover the full extent —
// and re-slices them for the loading topology: save at p ranks, restore at
// q ranks, including q = 1 (serial) in either direction. The load path —
// Open, OpenLatest, ListSteps, LatestDir, and everything they call — is
// strictly read-only: it never creates, renames, or touches a file, so
// checkpoints can be served from read-only mounts (the serving engine's
// contract, pinned by TestOpenIsReadOnly).
package ckpt

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Format identifies the checkpoint layout. Bump the suffix on any breaking
// change so mixed-version directories are refused mechanically.
const Format = "dchag-ckpt/v2"

// Leaf is one parameter's slot in the state tree: the value buffer, the
// shard annotation (zero-valued FullShape means the parameter is whole),
// and the optimizer moment buffers keyed by buffer name.
type Leaf struct {
	// Name is the rank-local parameter name (optimizer state key).
	Name string
	// Logical, Axis, FullShape, Lo, Hi mirror nn.ShardInfo; FullShape is nil
	// for whole (unsharded/replicated) parameters and Logical then equals
	// Name.
	Logical   string
	Axis      int
	FullShape []int
	Lo, Hi    int
	// Shape and Values hold this rank's slice of the parameter.
	Shape  []int
	Values []float64
	// Opt holds the optimizer's moment buffers for this parameter, each the
	// same length as Values. Empty when the optimizer keeps no per-parameter
	// state.
	Opt map[string][]float64
}

// Tree is one rank's named, shard-annotated state: every parameter leaf plus
// the optimizer algorithm and step count.
type Tree struct {
	// Format guards against reading shard files of a different layout.
	Format string
	// OptAlgo and OptStep mirror optim.State; OptAlgo is empty when the
	// tree was built without an optimizer.
	OptAlgo string
	OptStep int
	Leaves  []Leaf
}

// BuildTree describes params (and, when opt is non-nil, its state) as a
// Tree without copying a single buffer: every leaf's Values is the live
// p.W.Data and its Opt the optimizer's live moment slices (shapes are
// shared too). The tree is a view, valid until the next optimizer step or
// restore; serialize it at once (WriteShard) or keep a Clone.
func BuildTree(params []*nn.Param, opt optim.Stateful) Tree {
	tree := Tree{Format: Format, Leaves: make([]Leaf, 0, len(params))}
	var st optim.State
	if opt != nil {
		st = opt.ExportState()
		tree.OptAlgo = st.Algo
		tree.OptStep = st.Step
	}
	for _, p := range params {
		leaf := Leaf{
			Name:    p.Name,
			Logical: p.LogicalKey(),
			Shape:   p.W.Shape,
			Values:  p.W.Data,
			Opt:     st.Moments[p.Name],
		}
		if p.Shard != nil {
			leaf.Axis = p.Shard.Axis
			leaf.FullShape = p.Shard.FullShape
			leaf.Lo, leaf.Hi = p.Shard.Lo, p.Shard.Hi
		}
		tree.Leaves = append(tree.Leaves, leaf)
	}
	return tree
}

// Clone returns a deep copy of t that shares no buffer with it: what a
// caller keeps across optimizer steps (the elastic step-boundary snapshot).
func (t Tree) Clone() Tree {
	c := t
	c.Leaves = make([]Leaf, len(t.Leaves))
	for i, l := range t.Leaves {
		l.FullShape = slices.Clone(l.FullShape)
		l.Shape = slices.Clone(l.Shape)
		l.Values = slices.Clone(l.Values)
		if l.Opt != nil {
			opt := make(map[string][]float64, len(l.Opt))
			for k, buf := range l.Opt {
				opt[k] = slices.Clone(buf)
			}
			l.Opt = opt
		}
		c.Leaves[i] = l
	}
	return c
}

// sharded reports whether the leaf carries a shard annotation.
func (l Leaf) sharded() bool { return l.FullShape != nil }

// optKeys returns the leaf's moment buffer names, sorted for deterministic
// error messages and assembly.
func (l Leaf) optKeys() []string {
	keys := make([]string, 0, len(l.Opt))
	for k := range l.Opt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// numel returns shape's element count, or -1 when a dimension is below one
// or the count overflows: no parameter has an empty or negative dimension,
// and either would let a crafted shard's shape stand for a handful of
// values while assembly loops over its extents.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 1 || n > math.MaxInt/d {
			return -1
		}
		n *= d
	}
	return n
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validate checks a leaf's internal consistency before assembly.
func (l Leaf) validate() error {
	if numel(l.Shape) != len(l.Values) {
		return fmt.Errorf("ckpt: leaf %q has %d values for shape %v", l.Name, len(l.Values), l.Shape)
	}
	for k, buf := range l.Opt {
		if len(buf) != len(l.Values) {
			return fmt.Errorf("ckpt: leaf %q moment %q has %d values, parameter has %d", l.Name, k, len(buf), len(l.Values))
		}
	}
	if !l.sharded() {
		return nil
	}
	if len(l.Shape) != len(l.FullShape) {
		return fmt.Errorf("ckpt: leaf %q shape %v and full shape %v differ in rank", l.Name, l.Shape, l.FullShape)
	}
	if l.Axis < 0 || l.Axis >= len(l.FullShape) {
		return fmt.Errorf("ckpt: leaf %q shard axis %d out of range for %v", l.Name, l.Axis, l.FullShape)
	}
	if l.Lo < 0 || l.Hi <= l.Lo || l.Hi > l.FullShape[l.Axis] {
		return fmt.Errorf("ckpt: leaf %q shard bounds [%d,%d) invalid for extent %d", l.Name, l.Lo, l.Hi, l.FullShape[l.Axis])
	}
	for i, d := range l.FullShape {
		want := d
		if i == l.Axis {
			want = l.Hi - l.Lo
		}
		if l.Shape[i] != want {
			return fmt.Errorf("ckpt: leaf %q shape %v is not the [%d,%d) slice of %v along axis %d",
				l.Name, l.Shape, l.Lo, l.Hi, l.FullShape, l.Axis)
		}
	}
	return nil
}
