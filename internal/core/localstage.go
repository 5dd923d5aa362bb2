package core

import (
	"slices"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// localStage is the communication-free half of the D-CHAG stage: the
// tokenizer over a contiguous channel shard, the channel-ID table, and one
// partial-channel aggregation module per owned partition (Partials[j] takes
// the next Partials[j].Channels() channels of the shard). DCHAG puts an
// AllGather and the final layer behind it — or nothing, at one partition.
//
// No pass writes a channel token: the first aggregation level runs with the
// tokenizer folded in, over the patches of each channel. A cross first level
// folds it into its Q/K/V projections (foldCross; DESIGN.md "The cross first
// level folds the tokenizer into Q/K/V"); a linear one adds each token,
// weighted, straight into its outputs, formed in registers
// (accumulateLinear; DESIGN.md "The linear first level folds the tokenizer
// too"). A training pass keeps the tokenizer's patches [Cl, N, P²] — a
// factor E/P² smaller than the tokens — and the backward forms the
// tokenizer's gradients from them and the first level's output gradients,
// never a token gradient and never an image gradient: the image is data, and
// nothing reads its gradient. At TreeN each module's reducer runs behind
// its first level, on the group tokens where the first level wrote them.
//
// The stage also lends its partials one Q/K/V buffer for a cross first
// level, sized for its largest group, which every group of every pass
// borrows in turn and the backward fills again (foldBackward) before the
// attention's backward writes dQ, dK and dV over it, and the backward's
// scratch: two workspaces, one for the first level and one for the
// reducers, which every partial borrows in turn, so the stage holds one
// group's Q/K/V and one aggregator's scratch per level, not one per group.
type localStage struct {
	Tok      *nn.PatchEmbed
	ChEmb    *nn.ChannelEmbed
	Partials []*HierarchicalAggregator

	rows  int            // locations of the last Forward: B*T, or len(locs)
	locs  []int          // the last Forward's listed locations; nil: every one
	pat   *tensor.Tensor // the last Forward's patches
	ws    [2]workspace   // the backward's: the first level's, the reducers'
	ends  []int          // the backward's depth pieces over locs
	qkv   *tensor.Tensor // [3, N, g, E]: one cross group's Q, K and V, every pass's, then its gradients
	ifold crossFold      // the no-grad folded cross level's, lent to every group in turn
	dpart tensor.Tensor  // header: one owned partition's token gradient
}

// pass consumes the shard's image [B, Cl, H, W] and writes owned partition
// j's aggregated token [B, T, E] into slot j of dst [k, B, T, E]: the last
// writer of each module — its reducer, or at Tree0 the folded first level —
// writes there directly. With infer set it caches nothing for backward and
// leaves everything a pending backward reads alone. A training pass with
// non-nil locs computes only those locations (b·T + t, ascending;
// unmodified until the backward) and dst is [k, len(locs), E]: every step is
// per location, so each token has the bits of a pass over every location.
//
// dchag:hotpath — the stage's per-step front half.
func (s *localStage) pass(x *tensor.Tensor, locs []int, dst *tensor.Tensor, infer bool) {
	rows, e := x.Shape[0]*s.Tok.Tokens(), s.Tok.Embed
	if locs != nil {
		rows = len(locs)
	}
	var pat *tensor.Tensor
	if !infer {
		// The patches are the training pass's one cache, and Patches records
		// the pass for the tokenizer's backward even when nothing is listed.
		s.rows, s.locs = rows, locs
		pat = s.Tok.Patches(x, locs, false)
		s.pat = pat
	}
	if rows == 0 {
		return
	}
	cross := s.crossFirst()
	if cross {
		if infer {
			pat = s.Tok.Patches(x, locs, true)
		}
		s.qkv = tensor.EnsureShape(s.qkv, 3, rows, s.maxGroup(), e)
	}
	c, slot := 0, rows*e
	for j, p := range s.Partials {
		out := dst.Data[j*slot : (j+1)*slot]
		toks := p.tokens(out, rows, e, infer)
		if cross {
			c = p.foldCross(s.Tok, s.ChEmb, pat, toks, c, s.qkv, infer, &s.ifold)
		} else {
			c = p.accumulateLinear(s.Tok, s.ChEmb, x, toks, c, infer)
		}
		p.reduce(toks, out, infer)
	}
}

// maxGroup returns the largest first-level group of the partials.
func (s *localStage) maxGroup() int {
	m := 0
	for _, p := range s.Partials {
		m = max(m, slices.Max(p.Plan[0]))
	}
	return m
}

// crossFirst reports whether the partials' first level is cross attention;
// otherwise it is linear (a stage has one kind, every level of every
// partial).
func (s *localStage) crossFirst() bool {
	_, ok := s.Partials[0].Levels[0][0].(*CrossAttnAggregator)
	return ok
}

// backward takes the gradient of owned partition j's token from slot j of
// dSeq, partition-major [k, N, E] (the final layer's input gradient at the
// rank's own partitions, or the output gradient itself when the stage is
// one partition: k = 1), read in place, and accumulates every local
// parameter's gradient. Each first-level group's output gradient goes to
// its folded backward as soon as the module hands it over, before the next
// group reuses the first level's workspace and the Q/K/V buffer, where the
// group's Q/K/V are formed again and then overwritten by their gradients;
// every channel's gradients are its own slices, so this equals one backward
// after every partition bit for bit. A pass over no location has nothing
// to do.
//
// dchag:hotpath — every stage's per-step backward; it performs no
// communication and allocates nothing in steady state.
func (s *localStage) backward(dSeq *tensor.Tensor) {
	if s.rows == 0 {
		return
	}
	e := s.Tok.Embed
	var ends []int
	if s.locs != nil {
		s.ends = tensor.DepthSplits(s.ends, s.locs, 1)
		ends = s.ends
	}
	if s.crossFirst() {
		// An Infer since the Forward may have resized the buffer.
		s.qkv = tensor.EnsureShape(s.qkv, 3, s.rows, s.maxGroup(), e)
	}
	for l := range s.ws {
		s.ws[l].attn.Locs = s.locs
	}
	c := 0 // the first local channel of the next group
	for j, p := range s.Partials {
		d := header(&s.dpart, dSeq.Data[j*s.rows*e:(j+1)*s.rows*e], s.rows, e)
		p.backward(d, &s.ws, func(gi int, dg *tensor.Tensor) {
			switch a := p.Levels[0][gi].(type) {
			case *CrossAttnAggregator:
				tensor.Poison(s.qkv)
				foldBackward(&p.folds[gi], a, dg, &s.ws[0], s.Tok, s.ChEmb, s.pat, c, ends, s.qkv.Data)
			case *LinearAggregator:
				linearFoldBackward(a, dg, &s.ws[0], s.Tok, s.ChEmb, s.pat, c, ends)
			}
			c += p.Plan[0][gi]
		})
	}
}

// setInferDType selects the arithmetic of the no-grad pass: the tokenizer
// projection and every partial module. Channel embeddings and softmaxes stay
// float64.
func (s *localStage) setInferDType(dt tensor.DType) {
	s.Tok.SetInferDType(dt)
	for _, p := range s.Partials {
		p.SetInferDType(dt)
	}
}

// params returns the tokenizer's, the channel-ID table's and the partial
// modules' parameters, in that order.
func (s *localStage) params() []*nn.Param {
	ps := append(s.Tok.Params(), s.ChEmb.Params()...)
	for _, p := range s.Partials {
		ps = append(ps, p.Params()...)
	}
	return ps
}
