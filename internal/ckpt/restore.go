package ckpt

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// logicalTensor is one fully assembled logical tensor: the value buffer and
// the optimizer moment buffers, each in the logical (unsharded) layout.
type logicalTensor struct {
	shape   []int
	values  []float64
	opt     map[string][]float64
	optKeys []string
}

// piece is one shard's contribution to a logical tensor during assembly.
type piece struct {
	lo, hi int
	leaf   Leaf
}

// Checkpoint is an opened checkpoint: the manifest plus every logical
// tensor assembled from the saved sharding, ready to be re-sliced for any
// loading topology.
type Checkpoint struct {
	Manifest Manifest

	logical map[string]*logicalTensor
}

// Open reads dir's manifest and every shard file, assembles the logical
// tensors from whatever sharding they were saved under, and returns the
// resulting Checkpoint. Incomplete tilings, conflicting replicas' shapes,
// and malformed leaves are all reported (joined into one error).
func Open(dir string) (*Checkpoint, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	trees := make([]Tree, 0, len(m.Shards))
	for _, shard := range m.Shards {
		tree, err := readShard(filepath.Join(dir, shard))
		if err != nil {
			return nil, err
		}
		trees = append(trees, tree)
	}
	return Assemble(m, trees)
}

// Assemble builds a Checkpoint from already-loaded shard trees under the
// given manifest — the in-memory path behind elastic resharding, where the
// surviving ranks' state trees become the restore source without touching
// disk. Open is Assemble over the trees read from a committed directory.
// The trees must jointly tile every logical tensor; incomplete tilings,
// conflicting replica shapes, and malformed leaves are all reported
// (joined into one error).
func Assemble(m Manifest, trees []Tree) (*Checkpoint, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("ckpt: assemble with no shard trees")
	}
	c := &Checkpoint{Manifest: m, logical: make(map[string]*logicalTensor)}

	type assembly struct {
		axis      int
		fullShape []int
		whole     *Leaf
		pieces    []piece
	}
	byKey := make(map[string]*assembly)
	var order []string
	var errs []error
	for i, tree := range trees {
		if tree.OptAlgo != m.OptAlgo {
			errs = append(errs, fmt.Errorf("ckpt: shard %d optimizer %q does not match manifest %q", i, tree.OptAlgo, m.OptAlgo))
			continue
		}
		if tree.OptAlgo != "" && tree.OptStep != m.Step {
			// A re-save into a committed directory that died between its
			// shard renames and its manifest leaves the old manifest over
			// newer shards.
			name := fmt.Sprint(i)
			if i < len(m.Shards) {
				name = m.Shards[i]
			}
			errs = append(errs, fmt.Errorf("ckpt: shard %s holds optimizer state of step %d, the manifest commits step %d (a save torn before its manifest?)", name, tree.OptStep, m.Step))
			continue
		}
		for _, leaf := range tree.Leaves {
			if err := leaf.validate(); err != nil {
				errs = append(errs, err)
				continue
			}
			key := leaf.Logical
			if key == "" {
				key = leaf.Name
			}
			a, ok := byKey[key]
			if !ok {
				a = &assembly{}
				byKey[key] = a
				order = append(order, key)
			}
			if !leaf.sharded() {
				if a.whole != nil {
					// Replicated parameter seen again: replicas are identical
					// by construction, so the first copy is authoritative —
					// only the shape must agree.
					if !sameInts(a.whole.Shape, leaf.Shape) {
						errs = append(errs, fmt.Errorf("ckpt: replicas of %q disagree on shape: %v vs %v", key, a.whole.Shape, leaf.Shape))
					}
					continue
				}
				l := leaf
				a.whole = &l
				continue
			}
			if len(a.pieces) == 0 {
				a.axis = leaf.Axis
				a.fullShape = append([]int(nil), leaf.FullShape...)
			} else if a.axis != leaf.Axis || !sameInts(a.fullShape, leaf.FullShape) {
				errs = append(errs, fmt.Errorf("ckpt: shards of %q disagree on logical layout: axis %d %v vs axis %d %v",
					key, a.axis, a.fullShape, leaf.Axis, leaf.FullShape))
				continue
			}
			a.pieces = append(a.pieces, piece{lo: leaf.Lo, hi: leaf.Hi, leaf: leaf})
		}
	}
	for _, key := range order {
		a := byKey[key]
		lt, err := assemble(key, a.whole, a.pieces, a.axis, a.fullShape)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		c.logical[key] = lt
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return c, nil
}

// assemble builds one logical tensor from a whole replica and/or shard
// pieces. Pieces must tile the sharded axis exactly; duplicate [lo, hi)
// ranges (replicas of the same shard) collapse to the first copy.
func assemble(key string, whole *Leaf, pieces []piece, axis int, fullShape []int) (*logicalTensor, error) {
	if whole != nil {
		if len(pieces) != 0 {
			return nil, fmt.Errorf("ckpt: %q saved both whole and sharded", key)
		}
		return &logicalTensor{
			shape:   append([]int(nil), whole.Shape...),
			values:  whole.Values,
			opt:     whole.Opt,
			optKeys: whole.optKeys(),
		}, nil
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].lo < pieces[j].lo })
	dedup := pieces[:0]
	for _, p := range pieces {
		if n := len(dedup); n > 0 && dedup[n-1].lo == p.lo && dedup[n-1].hi == p.hi {
			continue // replica of the same shard slice
		}
		dedup = append(dedup, p)
	}
	pieces = dedup
	next := 0
	for _, p := range pieces {
		if p.lo != next {
			return nil, fmt.Errorf("ckpt: shards of %q leave gap or overlap at %d (next piece covers [%d,%d))", key, next, p.lo, p.hi)
		}
		next = p.hi
	}
	if next != fullShape[axis] {
		return nil, fmt.Errorf("ckpt: shards of %q cover [0,%d) of extent %d", key, next, fullShape[axis])
	}
	optKeys := pieces[0].leaf.optKeys()
	for _, p := range pieces[1:] {
		if !sameKeys(optKeys, p.leaf.optKeys()) {
			return nil, fmt.Errorf("ckpt: shards of %q disagree on optimizer buffers: %v vs %v", key, optKeys, p.leaf.optKeys())
		}
	}
	lt := &logicalTensor{
		shape:   append([]int(nil), fullShape...),
		optKeys: optKeys,
		opt:     make(map[string][]float64, len(optKeys)),
	}
	full := tensor.New(fullShape...)
	for _, p := range pieces {
		tensor.SetSliceAxis(full, axis, p.lo, tensor.FromSlice(p.leaf.Values, p.leaf.Shape...))
	}
	lt.values = full.Data
	for _, k := range optKeys {
		buf := tensor.New(fullShape...)
		for _, p := range pieces {
			tensor.SetSliceAxis(buf, axis, p.lo, tensor.FromSlice(p.leaf.Opt[k], p.leaf.Shape...))
		}
		lt.opt[k] = buf.Data
	}
	return lt, nil
}

// slice extracts a parameter's view of a logical buffer: the whole buffer
// for unsharded parameters, the [Lo, Hi) slice along the shard axis
// otherwise. The result escapes to the caller (optimizer state), so it is a
// fresh copy; the parameter restore path uses sliceInto instead.
func slice(lt *logicalTensor, buf []float64, p *nn.Param) []float64 {
	if p.Shard == nil {
		return buf
	}
	t := tensor.FromSlice(buf, lt.shape...)
	return tensor.SliceAxis(t, p.Shard.Axis, p.Shard.Lo, p.Shard.Hi).Data
}

// sliceInto writes a parameter's slice of a logical buffer directly into
// dst (the parameter's own storage), avoiding the transient copy slice
// would make. dst must have the parameter's shape.
func sliceInto(dst *tensor.Tensor, lt *logicalTensor, buf []float64, p *nn.Param) {
	if p.Shard == nil {
		copy(dst.Data, buf)
		return
	}
	src := tensor.FromSlice(buf, lt.shape...)
	tensor.SliceAxisInto(dst, src, p.Shard.Axis, p.Shard.Lo, p.Shard.Hi)
}

// lookup resolves a parameter's logical tensor and validates the logical
// shape against the parameter's expectation.
func (c *Checkpoint) lookup(p *nn.Param) (*logicalTensor, error) {
	key := p.LogicalKey()
	lt, ok := c.logical[key]
	if !ok {
		return nil, fmt.Errorf("ckpt: checkpoint missing parameter %q", key)
	}
	if !sameInts(lt.shape, p.FullShape()) {
		return nil, fmt.Errorf("ckpt: parameter %q logical shape %v does not match checkpoint %v", key, p.FullShape(), lt.shape)
	}
	return lt, nil
}

// Matches reports, in one joined error, every way the checkpoint differs
// from the logical model whose parameters are params: each parameter it
// lacks or holds at another logical shape, and each logical tensor it holds
// that no parameter names — which RestoreParams, looking up only the
// parameters it is given, would drop without a word. params must be a whole
// logical model's: a mesh rank holds only its own partitions' modules, so
// its parameters leave the other ranks' tensors unnamed.
func (c *Checkpoint) Matches(params []*nn.Param) error {
	var errs []error
	named := make(map[string]bool, len(params))
	for _, p := range params {
		named[p.LogicalKey()] = true
		if _, err := c.lookup(p); err != nil {
			errs = append(errs, err)
		}
	}
	var stray []string
	for key := range c.logical {
		if !named[key] {
			stray = append(stray, key)
		}
	}
	sort.Strings(stray)
	for _, key := range stray {
		errs = append(errs, fmt.Errorf("ckpt: checkpoint holds %q, which the model has no parameter for", key))
	}
	return errors.Join(errs...)
}

// RestoreParams writes every parameter's slice of its logical tensor into
// the parameter, resharding from the saved topology to the caller's. All
// missing and shape-mismatched parameters are reported in one joined error,
// and nothing is written unless every parameter matches.
func (c *Checkpoint) RestoreParams(params []*nn.Param) error {
	var errs []error
	resolved := make([]*logicalTensor, len(params))
	for i, p := range params {
		lt, err := c.lookup(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		resolved[i] = lt
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, p := range params {
		sliceInto(p.W, resolved[i], resolved[i].values, p)
	}
	return nil
}

// RestoreOptimizer rebuilds the optimizer state for the caller's topology —
// each moment buffer re-sliced exactly like its parameter — and imports it,
// so a resumed run continues the saved optimization trajectory (AdamW bias
// correction included). params must be the same list the optimizer was
// constructed over.
func (c *Checkpoint) RestoreOptimizer(opt optim.Stateful, params []*nn.Param) error {
	st := optim.State{
		Algo:    c.Manifest.OptAlgo,
		Moments: make(map[string]optim.Moment),
	}
	var errs []error
	for _, p := range params {
		lt, err := c.lookup(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if len(lt.optKeys) == 0 {
			continue
		}
		m := make(optim.Moment, len(lt.optKeys))
		for _, k := range lt.optKeys {
			m[k] = slice(lt, lt.opt[k], p)
		}
		st.Moments[p.Name] = m
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	st.Step = c.optStep()
	return opt.ImportState(st)
}

// optStep returns the optimizer step count saved with the checkpoint:
// Assemble admits only shards whose optimizer state is at the manifest's
// step.
func (c *Checkpoint) optStep() int { return c.Manifest.Step }

// LogicalTensor returns the assembled logical value tensor for a key, for
// inspection and tests.
func (c *Checkpoint) LogicalTensor(key string) (*tensor.Tensor, bool) {
	lt, ok := c.logical[key]
	if !ok {
		return nil, false
	}
	return tensor.FromSlice(append([]float64(nil), lt.values...), lt.shape...), true
}
