package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func dotAll(a, b *tensor.Tensor) float64 {
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

func checkGrad(t *testing.T, name string, x, analytic *tensor.Tensor, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic.Data[i]) > tol {
			t.Fatalf("%s: grad mismatch at %d: numeric %.10f analytic %.10f", name, i, numeric, analytic.Data[i])
		}
	}
}

func TestEvenSplit(t *testing.T) {
	got := EvenSplit(10, 3)
	want := []int{4, 3, 3}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("EvenSplit(10,3) = %v", got)
		}
	}
	if s := EvenSplit(6, 6); s[0] != 1 {
		t.Fatalf("EvenSplit(6,6) = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	EvenSplit(2, 3)
}

func TestChannelRangeCoversAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		c := 1 + int(rng.Int31n(64))
		p := 1 + int(rng.Int31n(8))
		if p > c {
			p = c
		}
		prev := 0
		for r := 0; r < p; r++ {
			lo, hi := ChannelRange(c, p, r)
			if lo != prev || hi <= lo {
				return false
			}
			prev = hi
		}
		return prev == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreePlanShapes(t *testing.T) {
	// Paper Fig. 9 semantics: 256 channels, Tree2 -> 2 groups of 128 plus a
	// reducer; Tree8 -> 8 groups of 32 plus a reducer; Tree0 -> one layer.
	p0 := BuildTreePlan(256, 0)
	if len(p0) != 1 || p0.MaxGroup() != 256 || p0.NumLayers() != 1 {
		t.Fatalf("Tree0 plan = %v", p0)
	}
	p2 := BuildTreePlan(256, 2)
	if len(p2) != 2 || p2.MaxGroup() != 128 || p2.NumLayers() != 3 {
		t.Fatalf("Tree2 plan = %v", p2)
	}
	p8 := BuildTreePlan(256, 8)
	if p8.MaxGroup() != 32 || len(p8[0]) != 8 {
		t.Fatalf("Tree8 plan = %v", p8)
	}
	// Clamping: more groups than channels.
	pBig := BuildTreePlan(3, 8)
	if pBig.Channels() != 3 || pBig.MaxGroup() != 3 {
		t.Fatalf("clamped plan = %v", pBig)
	}
}

func TestTreePlanReducesQuadraticToLinear(t *testing.T) {
	// The point of Sec. 3.2: sum of squared group sizes (attention memory)
	// shrinks as the tree deepens.
	cost := func(p TreePlan) int {
		s := 0
		for _, level := range p {
			for _, g := range level {
				s += g * g
			}
		}
		return s
	}
	c0 := cost(BuildTreePlan(256, 0))
	c4 := cost(BuildTreePlan(256, 4))
	c16 := cost(BuildTreePlan(256, 16))
	if !(c16 < c4 && c4 < c0) {
		t.Fatalf("attention cost must shrink with tree depth: %d, %d, %d", c0, c4, c16)
	}
}

func TestCrossAttnAggregatorGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := NewCrossAttnAggregator("agg", 3, 8, 2, 11)
	x := tensor.Randn(rng, 4, 3, 8)
	r := tensor.Randn(rng, 4, 8)
	loss := func() float64 { return dotAll(a.Forward(x), r) }
	loss()
	nn.ZeroGrads(a.Params())
	dx := a.Backward(r)
	checkGrad(t, "crossagg/x", x, dx, loss, 1e-5)
}

func TestLinearAggregatorGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := NewLinearAggregator("lin", 4, 6, 22)
	x := tensor.Randn(rng, 3, 4, 6)
	r := tensor.Randn(rng, 3, 6)
	loss := func() float64 { return dotAll(a.Forward(x), r) }
	loss()
	nn.ZeroGrads(a.Params())
	dx := a.backward(r, new(workspace))
	checkGrad(t, "linagg/x", x, dx, loss, 1e-6)
	checkGrad(t, "linagg/w", a.Weight.W, a.Weight.Grad, loss, 1e-6)
	checkGrad(t, "linagg/b", a.Bias.W, a.Bias.Grad, loss, 1e-6)
}

// TestFoldUnfoldChannelsRoundTrip checks the one permutation left in the
// package: channel-major tokens regrouped into first-level group tensors
// [B*T, g, E] land at rows (n*g + k)*E, and regrouping back restores them.
func TestFoldUnfoldChannelsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		b := 1 + int(rng.Int31n(3))
		c := 1 + int(rng.Int31n(5))
		tt := 1 + int(rng.Int31n(4))
		e := 1 + int(rng.Int31n(4))
		x := tensor.Randn(rng, b, c, tt, e)
		back := tensor.New(b, c, tt, e)
		ci := 0
		for _, g := range EvenSplit(c, 1+int(rng.Int31n(int32(c)))) {
			gt := tensor.New(b*tt, g, e)
			regroup(x, gt, ci, true)
			for k := 0; k < g; k++ {
				for n := 0; n < b*tt; n++ {
					for i := 0; i < e; i++ {
						if gt.At(n, k, i) != x.At(n/tt, ci+k, n%tt, i) {
							return false
						}
					}
				}
			}
			regroup(back, gt, ci, false)
			ci += g
		}
		return tensor.MaxAbsDiff(back, x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalAggregatorGradients(t *testing.T) {
	for _, kind := range []LayerKind{KindCross, KindLinear} {
		rng := tensor.NewRNG(3)
		h := NewHierarchicalAggregator("h", BuildTreePlan(6, 3), kind, 4, 2, 33)
		x := tensor.Randn(rng, 2, 6, 2, 4)
		r := tensor.Randn(rng, 2, 2, 4)
		loss := func() float64 { return dotAll(h.Forward(x), r) }
		loss()
		nn.ZeroGrads(h.Params())
		dx := h.Backward(r)
		checkGrad(t, "hier-"+kind.String()+"/x", x, dx, loss, 1e-5)
	}
}

// TestChannelIDGradients checks the channel-ID table and the tokenizer's
// weights and bias where their gradients are formed, in the first level's
// folded backward: against central differences of Σ out ⊙ r over a
// two-partition one-rank stage, both kinds, flat and two-level trees, over
// every location and over an uneven Visible list (r read at the listed rows
// only). The tokenizer's weights are the parameters nearest the pixels, so
// this is also where the stage's gradient reaches its input.
func TestChannelIDGradients(t *testing.T) {
	for _, kind := range []LayerKind{KindCross, KindLinear} {
		for _, tree := range []int{0, 2} {
			for _, locs := range [][]int{nil, {0, 3, 4, 6, 7}} {
				cfg := Config{Channels: 4, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: 2, Tree: tree, Kind: kind, Seed: 505}
				name := fmt.Sprintf("kind=%s/tree=%d/visible=%v", kind, tree, locs != nil)
				d := serialDCHAG(cfg, 2)
				jitter(d.Params())
				rng := tensor.NewRNG(506)
				x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
				r := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)
				if locs != nil {
					kept := tensor.New(r.Shape...)
					for _, l := range locs {
						copy(kept.Data[l*cfg.Embed:][:cfg.Embed], r.Data[l*cfg.Embed:])
					}
					r = kept
				}
				loss := func() float64 {
					d.Visible(locs)
					return dotAll(d.Forward(x), r)
				}
				loss()
				nn.ZeroGrads(d.Params())
				d.Backward(r)
				checkGrad(t, name+" chemb", d.ChEmb.Table.W, d.ChEmb.Table.Grad, loss, 1e-6)
				checkGrad(t, name+" tok bias", d.Tok.Bias.W, d.Tok.Bias.Grad, loss, 1e-6)
				checkGrad(t, name+" tok weight", d.Tok.Weight.W, d.Tok.Weight.Grad, loss, 1e-6)
			}
		}
	}
}

func TestBaselineAggregatorIsSingleCrossAttention(t *testing.T) {
	h := NewHierarchicalAggregator("base", BuildTreePlan(5, 0), KindCross, 4, 2, 44)
	if len(h.Levels) != 1 || len(h.Levels[0]) != 1 {
		t.Fatalf("baseline should have one layer, got %v", h.Plan)
	}
	if _, ok := h.Levels[0][0].(*CrossAttnAggregator); !ok {
		t.Fatal("baseline layer must be cross-attention")
	}
}

// serialDCHAG is the p-partition stage on a one-rank group: every partition
// in one process, the serial realization the tests hold the others to.
func serialDCHAG(cfg Config, p int) *DCHAG {
	return NewDCHAGPartitioned(cfg, comm.NewGroup(1).Comm(0), p)
}

// runDCHAG runs the distributed module over p goroutine ranks on the full
// image x and upstream gradient up, returning per-rank outputs, parameters
// (their gradients from zero), and the traffic group.
func runDCHAG(t *testing.T, cfg Config, p int, x, up *tensor.Tensor) (outs []*tensor.Tensor, params [][]*nn.Param, g *comm.Group) {
	t.Helper()
	outs = make([]*tensor.Tensor, p)
	params = make([][]*nn.Param, p)
	g, err := comm.Run(p, func(c *comm.Communicator) error {
		d := NewDCHAGPartitioned(cfg, c, c.Size())
		xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
		c.SetPhase("forward")
		outs[c.Rank()] = d.Forward(xs)
		nn.ZeroGrads(d.Params())
		c.SetPhase("backward")
		d.Backward(up)
		params[c.Rank()] = d.Params()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, params, g
}

// gradsByName returns each parameter's gradient by name.
func gradsByName(ps []*nn.Param) map[string]*tensor.Tensor {
	grads := map[string]*tensor.Tensor{}
	for _, p := range ps {
		grads[p.Name] = p.Grad
	}
	return grads
}

// diffShardGrads reports the first gradient of ps farther than tol from the
// same-named one of a one-rank stage, want: a channel-sharded parameter's
// against its slice of want's.
func diffShardGrads(ps []*nn.Param, want map[string]*tensor.Tensor, tol float64) error {
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			return fmt.Errorf("param %q missing from the one-rank stage", p.Name)
		}
		if p.Shard != nil {
			w = tensor.SliceAxis(w, p.Shard.Axis, p.Shard.Lo, p.Shard.Hi)
		}
		if diff := tensor.MaxAbsDiff(p.Grad, w); diff > tol {
			return fmt.Errorf("param %q grad differs by %g", p.Name, diff)
		}
	}
	return nil
}

func TestDCHAGMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		p, tree int
		kind    LayerKind
	}{
		{2, 0, KindCross},
		{2, 0, KindLinear},
		{3, 2, KindCross},
		{4, 2, KindLinear},
		{1, 0, KindCross}, // degenerate single rank
	} {
		name := fmt.Sprintf("p=%d tree=%d kind=%s", tc.p, tc.tree, tc.kind)
		cfg := Config{
			Channels: 8, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Tree: tc.tree, Kind: tc.kind, Seed: 777,
		}
		rng := tensor.NewRNG(55)
		x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
		up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)

		ref := serialDCHAG(cfg, tc.p)
		wantOut := ref.Forward(x)
		nn.ZeroGrads(ref.Params())
		ref.Backward(up)

		outs, params, _ := runDCHAG(t, cfg, tc.p, x, up)
		for r := 0; r < tc.p; r++ {
			if diff := tensor.MaxAbsDiff(outs[r], wantOut); diff > 1e-9 {
				t.Fatalf("%s: rank %d forward differs by %g", name, r, diff)
			}
			if err := diffShardGrads(params[r], gradsByName(ref.Params()), 1e-9); err != nil {
				t.Fatalf("%s: rank %d: %v", name, r, err)
			}
		}
	}
}

func TestDCHAGPartitionedMatchesReference(t *testing.T) {
	// The partition count P is a model property decoupled from the rank
	// count q: every q dividing P must realize the exact logical model of
	// the one-rank stage — forward outputs and parameter gradients —
	// including with uneven channel partitions.
	for _, tc := range []struct {
		channels, partitions int
		kind                 LayerKind
	}{
		{8, 4, KindLinear},
		{10, 4, KindCross}, // uneven: partition sizes 3,3,2,2
		{8, 8, KindLinear},
	} {
		cfg := Config{
			Channels: tc.channels, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Tree: 0, Kind: tc.kind, Seed: 99,
		}
		rng := tensor.NewRNG(17)
		x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
		up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)

		ref := serialDCHAG(cfg, tc.partitions)
		wantOut := ref.Forward(x)
		nn.ZeroGrads(ref.Params())
		ref.Backward(up)
		refGrads := map[string]*tensor.Tensor{}
		for _, pr := range ref.Params() {
			refGrads[pr.Name] = pr.Grad
		}

		for q := 1; q <= tc.partitions; q++ {
			if tc.partitions%q != 0 {
				continue
			}
			name := fmt.Sprintf("channels=%d P=%d q=%d kind=%s", tc.channels, tc.partitions, q, tc.kind)
			_, err := comm.Run(q, func(c *comm.Communicator) error {
				d := NewDCHAGPartitioned(cfg, c, tc.partitions)
				xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
				out := d.Forward(xs)
				if diff := tensor.MaxAbsDiff(out, wantOut); diff > 1e-9 {
					return fmt.Errorf("rank %d forward differs by %g", c.Rank(), diff)
				}
				nn.ZeroGrads(d.Params())
				d.Backward(up)
				// The tokenizer's and channel IDs' shards match their slices
				// of the one-rank stage's.
				if err := diffShardGrads([]*nn.Param{d.Tok.Weight, d.Tok.Bias, d.ChEmb.Table}, refGrads, 1e-9); err != nil {
					return fmt.Errorf("rank %d: %v", c.Rank(), err)
				}
				// Partial-module parameter gradients match the one-rank stage's
				// same-named partials exactly.
				for _, partial := range d.Partials {
					for _, pr := range partial.Params() {
						want, ok := refGrads[pr.Name]
						if !ok {
							return fmt.Errorf("rank %d param %q missing from the one-rank stage", c.Rank(), pr.Name)
						}
						if diff := tensor.MaxAbsDiff(pr.Grad, want); diff > 1e-9 {
							return fmt.Errorf("rank %d param %q grad differs by %g", c.Rank(), pr.Name, diff)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestDCHAGShardAnnotations(t *testing.T) {
	// Channel-sharded parameters carry the shard metadata checkpointing
	// reshards by; together the ranks tile the full logical extent.
	cfg := Config{
		Channels: 10, ImgH: 4, ImgW: 4, Patch: 2,
		Embed: 4, Heads: 1, Tree: 0, Kind: KindLinear, Seed: 3,
	}
	const p = 4
	covered := make([]int, cfg.Channels)
	var mu sync.Mutex
	_, err := comm.Run(p, func(c *comm.Communicator) error {
		d := NewDCHAGPartitioned(cfg, c, c.Size())
		for _, pr := range []*nn.Param{d.Tok.Weight, d.Tok.Bias, d.ChEmb.Table} {
			if pr.Shard == nil {
				return fmt.Errorf("param %q lacks shard metadata", pr.Name)
			}
			if pr.Shard.Lo != d.ChLo || pr.Shard.Hi != d.ChHi || pr.Shard.Axis != 0 {
				return fmt.Errorf("param %q shard %+v does not match channel range [%d,%d)", pr.Name, pr.Shard, d.ChLo, d.ChHi)
			}
			if pr.Shard.FullShape[0] != cfg.Channels {
				return fmt.Errorf("param %q full shape %v does not lead with %d channels", pr.Name, pr.Shard.FullShape, cfg.Channels)
			}
		}
		for _, pr := range d.Final.Params() {
			if pr.Shard != nil {
				return fmt.Errorf("replicated param %q unexpectedly sharded", pr.Name)
			}
		}
		mu.Lock()
		for ch := d.ChLo; ch < d.ChHi; ch++ {
			covered[ch]++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ch, n := range covered {
		if n != 1 {
			t.Fatalf("channel %d covered %d times", ch, n)
		}
	}
}

func TestDCHAGBackwardHasZeroCommunication(t *testing.T) {
	// The paper's headline implementation claim (Sec. 3.3): the backward
	// pass of the D-CHAG stage needs no communication at all, and the
	// forward pass needs exactly one AllGather of one token per rank.
	cfg := Config{
		Channels: 6, ImgH: 4, ImgW: 4, Patch: 2,
		Embed: 4, Heads: 2, Tree: 0, Kind: KindLinear, Seed: 9,
	}
	rng := tensor.NewRNG(66)
	x := tensor.Randn(rng, 1, cfg.Channels, cfg.ImgH, cfg.ImgW)
	up := tensor.Randn(rng, 1, cfg.Tokens(), cfg.Embed)
	const p = 3
	_, _, g := runDCHAG(t, cfg, p, x, up)

	if got := g.Traffic().BytesInPhase("backward"); got != 0 {
		t.Fatalf("backward communicated %d bytes, want 0\n%s", got, g.Traffic())
	}
	for r := 0; r < p; r++ {
		if calls := g.Traffic().CallsFor(r, "forward", comm.OpAllGather); calls != 1 {
			t.Fatalf("rank %d forward allgathers = %d, want exactly 1", r, calls)
		}
	}
	// The gathered payload per rank is (p-1) tokens of T*E floats.
	wantBytes := int64((p-1)*cfg.Tokens()*cfg.Embed) * 8
	if got := g.Traffic().BytesFor(0, "forward", comm.OpAllGather); got != wantBytes {
		t.Fatalf("forward allgather bytes = %d, want %d", got, wantBytes)
	}
}

func TestDCHAGParamGradsMatchReference(t *testing.T) {
	cfg := Config{
		Channels: 4, ImgH: 4, ImgW: 4, Patch: 2,
		Embed: 4, Heads: 2, Tree: 0, Kind: KindCross, Seed: 321,
	}
	const p = 2
	rng := tensor.NewRNG(77)
	x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
	up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)

	ref := serialDCHAG(cfg, p)
	ref.Forward(x)
	nn.ZeroGrads(ref.Params())
	ref.Backward(up)

	// Collect distributed gradients by name per rank.
	type nameGrad struct {
		name string
		grad *tensor.Tensor
	}
	grads := make([][]nameGrad, p)
	_, err := comm.Run(p, func(c *comm.Communicator) error {
		d := NewDCHAGPartitioned(cfg, c, c.Size())
		xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
		d.Forward(xs)
		nn.ZeroGrads(d.Params())
		d.Backward(up)
		for _, partial := range d.Partials {
			for _, pr := range partial.Params() {
				grads[c.Rank()] = append(grads[c.Rank()], nameGrad{pr.Name, pr.Grad.Clone()})
			}
		}
		for _, pr := range d.Final.Params() {
			grads[c.Rank()] = append(grads[c.Rank()], nameGrad{pr.Name, pr.Grad.Clone()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refGrads := map[string]*tensor.Tensor{}
	for _, pr := range ref.Params() {
		refGrads[pr.Name] = pr.Grad
	}
	for r := 0; r < p; r++ {
		for _, ng := range grads[r] {
			want, ok := refGrads[ng.name]
			if !ok {
				t.Fatalf("rank %d param %q missing from the one-rank stage", r, ng.name)
			}
			if diff := tensor.MaxAbsDiff(ng.grad, want); diff > 1e-9 {
				t.Fatalf("rank %d param %q grad differs by %g", r, ng.name, diff)
			}
		}
	}
}

func TestDCHAGFinalGradsIdenticalAcrossRanks(t *testing.T) {
	// Replicated final layer: gradients must agree bit-for-bit across ranks
	// without synchronization (the reason no backward comm is needed).
	cfg := Config{
		Channels: 6, ImgH: 2, ImgW: 2, Patch: 2,
		Embed: 4, Heads: 1, Tree: 2, Kind: KindLinear, Seed: 5,
	}
	const p = 3
	rng := tensor.NewRNG(88)
	x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
	up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)
	finals := make([][]*tensor.Tensor, p)
	_, err := comm.Run(p, func(c *comm.Communicator) error {
		d := NewDCHAGPartitioned(cfg, c, c.Size())
		xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
		d.Forward(xs)
		nn.ZeroGrads(d.Params())
		d.Backward(up)
		for _, pr := range d.Final.Params() {
			finals[c.Rank()] = append(finals[c.Rank()], pr.Grad.Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range finals[0] {
			if tensor.MaxAbsDiff(finals[0][i], finals[r][i]) != 0 {
				t.Fatalf("final-layer grad %d differs between rank 0 and %d", i, r)
			}
		}
	}
}

func TestDistTokenizerMatchesSerial(t *testing.T) {
	cfg := Config{
		Channels: 6, ImgH: 4, ImgW: 4, Patch: 2,
		Embed: 5, Heads: 1, Seed: 13,
	}
	rng := tensor.NewRNG(99)
	x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
	serial := nn.NewPatchEmbedShard("disttok", 0, cfg.Channels, cfg.ImgH, cfg.ImgW, cfg.Patch, cfg.Embed, nn.SubSeed(cfg.Seed, seedTok))
	want := serial.Forward(x)
	up := tensor.Randn(rng, 2, cfg.Channels, cfg.Tokens(), cfg.Embed)
	nn.ZeroGrads(serial.Params())
	wantDimg := serial.Backward(up)

	const p = 3
	_, err := comm.Run(p, func(c *comm.Communicator) error {
		d := NewDistTokenizer(cfg, c)
		xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
		full := d.Forward(xs)
		if diff := tensor.MaxAbsDiff(full, want); diff > 1e-12 {
			return fmt.Errorf("rank %d tokens differ by %g", c.Rank(), diff)
		}
		dimg := d.Backward(up)
		wantShard := tensor.SliceAxis(wantDimg, 1, d.ChLo, d.ChHi)
		if diff := tensor.MaxAbsDiff(dimg, wantShard); diff > 1e-12 {
			return fmt.Errorf("rank %d image grad differs by %g", c.Rank(), diff)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistTokGatherVolumeExceedsDCHAG(t *testing.T) {
	// Sec. 3.1 vs 3.3: distributed tokenization AllGathers C/P channels of
	// tokens per rank while D-CHAG gathers one token per rank. The ledger
	// must show the volume ratio.
	cfg := Config{
		Channels: 8, ImgH: 4, ImgW: 4, Patch: 2,
		Embed: 4, Heads: 2, Tree: 0, Kind: KindLinear, Seed: 3,
	}
	const p = 2
	rng := tensor.NewRNG(111)
	x := tensor.Randn(rng, 1, cfg.Channels, cfg.ImgH, cfg.ImgW)

	gTok, err := comm.Run(p, func(c *comm.Communicator) error {
		d := NewDistTokenizer(cfg, c)
		c.SetPhase("forward")
		d.Forward(tensor.SliceAxis(x, 1, d.ChLo, d.ChHi))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	up := tensor.Randn(rng, 1, cfg.Tokens(), cfg.Embed)
	_, _, gDchag := runDCHAG(t, cfg, p, x, up)

	tokBytes := gTok.Traffic().BytesInPhase("forward")
	dchagBytes := gDchag.Traffic().BytesInPhase("forward")
	if tokBytes <= dchagBytes {
		t.Fatalf("dist-tok bytes %d should exceed D-CHAG bytes %d", tokBytes, dchagBytes)
	}
	// The ratio should be exactly channels/ranks (tokens per rank gathered).
	if tokBytes != dchagBytes*int64(cfg.Channels)/int64(p) {
		t.Fatalf("volume ratio: disttok %d, dchag %d, want factor %d", tokBytes, dchagBytes, cfg.Channels/p)
	}
}

func TestDCHAGUnevenChannels(t *testing.T) {
	// 7 channels over 3 ranks: shards of 3, 2, 2. Equivalence must hold.
	cfg := Config{
		Channels: 7, ImgH: 2, ImgW: 2, Patch: 2,
		Embed: 4, Heads: 2, Tree: 0, Kind: KindCross, Seed: 2024,
	}
	const p = 3
	rng := tensor.NewRNG(123)
	x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
	up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)

	ref := serialDCHAG(cfg, p)
	want := ref.Forward(x)
	nn.ZeroGrads(ref.Params())
	ref.Backward(up)

	outs, params, _ := runDCHAG(t, cfg, p, x, up)
	for r := 0; r < p; r++ {
		if diff := tensor.MaxAbsDiff(outs[r], want); diff > 1e-9 {
			t.Fatalf("uneven rank %d forward differs by %g", r, diff)
		}
		if err := diffShardGrads(params[r], gradsByName(ref.Params()), 1e-9); err != nil {
			t.Fatalf("uneven rank %d: %v", r, err)
		}
	}
}

func TestLayerKindString(t *testing.T) {
	if KindCross.String() != "C" || KindLinear.String() != "L" {
		t.Fatal("LayerKind strings wrong")
	}
}

func TestDCHAGParamsPartition(t *testing.T) {
	_, err := comm.Run(2, func(c *comm.Communicator) error {
		d := NewDCHAGPartitioned(Config{
			Channels: 4, ImgH: 2, ImgW: 2, Patch: 2,
			Embed: 4, Heads: 2, Tree: 0, Kind: KindLinear, Seed: 1,
		}, c, c.Size())
		if len(d.Params()) != len(d.LocalParams())+len(d.ReplicatedParams()) {
			return fmt.Errorf("Params must partition into local + replicated")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
