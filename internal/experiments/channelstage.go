package experiments

import (
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// StageCost is one channel stage's measured cost: nanoseconds of its fastest
// Forward, Backward and F32 Infer call, and ScratchBytes, every tensor it
// holds after them outside its parameters and its group aggregators' own
// layers — the tokenizer's, the tree's and the stage's buffers, where the
// copies of the channel-token tensor [B, C, T, E] live.
type StageCost struct {
	FwdNs        float64 `json:"fwd_ns"`
	BwdNs        float64 `json:"bwd_ns"`
	InferNs      float64 `json:"infer_f32_ns"`
	ScratchBytes int64   `json:"scratch_bytes"`
}

// ChannelStagePoint is one measured model.SerialStage over 16x16 images in
// 2x2 patches (T = 64 tokens per channel, 4 heads): Stage is the shipped
// stage, which tokenizes straight into its first-level group inputs, Chained
// the same layers through their channel-major entry points (chainedStage),
// the two timed alternately. TokenBytes is one channel-token tensor;
// AllocsPerOp the shipped stage's steady-state heap allocations per Forward +
// Backward + Infer round.
type ChannelStagePoint struct {
	Name        string    `json:"name"`
	Channels    int       `json:"channels"`
	Batch       int       `json:"batch"`
	Embed       int       `json:"embed"`
	Tree        int       `json:"tree"`
	Kind        string    `json:"kind"` // core.LayerKind suffix: C cross-attention, L linear
	Stage       StageCost `json:"stage"`
	Chained     StageCost `json:"chained"`
	TokenBytes  int64     `json:"token_bytes"`
	AllocsPerOp float64   `json:"allocs_per_op"`
}

// dchagChannelStages lists one rank's channel stage of each benchmark
// workload, with the rank's partitions as first-level groups: hsi_serial (64
// bands in 4 groups, batch 2), a wx_tp2dp2 rank (40 of 80 variables, its DP
// share of the batch) and a serving rank at the engine's full batch.
var dchagChannelStages = []ChannelStagePoint{
	{Name: "hsi_train", Channels: 64, Batch: 2, Embed: 32, Tree: 4, Kind: core.KindCross.String()},
	{Name: "wx_train", Channels: 40, Batch: 2, Embed: 64, Tree: 2, Kind: core.KindLinear.String()},
	{Name: "wx_serve", Channels: 40, Batch: 8, Embed: 32, Tree: 2, Kind: core.KindLinear.String()},
}

// chainedStage is the serial channel stage composed the way every stage was
// before the tokenizer wrote the aggregators' layout: the tokenizer's
// channel-major output, a pass adding the channel-ID rows, and the module
// folding its input into groups — the channel-token tensor written three
// times per forward pass where the shipped stage writes it once, and once
// more on the way back. It is the "before" of the channel-stage points, and a
// lower bound on it: the stages it stands for also sliced per partition and
// per group.
type chainedStage struct {
	*model.SerialStage
	emb [2]*tensor.Tensor // the channel-ID pass's output: Forward's, Infer's
}

func (c *chainedStage) pass(x *tensor.Tensor, infer bool) *tensor.Tensor {
	tok, agg, set := c.Tok.Forward, c.Agg.Forward, 0
	if infer {
		tok, agg, set = c.Tok.Infer, c.Agg.Infer, 1
	}
	t := tok(x) // [B, C, T, E]
	out := tensor.EnsureShape(c.emb[set], t.Shape...)
	c.emb[set] = out
	copy(out.Data, t.Data)
	ch, tokens, e := out.Shape[1], out.Shape[2], out.Shape[3]
	for r := 0; r < len(out.Data)/e; r++ {
		row := out.Data[r*e:][:e]
		for i, v := range c.ChEmb.Table.W.Data[r/tokens%ch*e:][:e] {
			row[i] += v
		}
	}
	return agg(out)
}

func (c *chainedStage) backward(d *tensor.Tensor) *tensor.Tensor {
	dEmb := c.Agg.Backward(d) // [B, C, T, E]
	ch, tokens, e := dEmb.Shape[1], dEmb.Shape[2], dEmb.Shape[3]
	for r := 0; r < len(dEmb.Data)/e; r++ {
		g := c.ChEmb.Table.Grad.Data[r/tokens%ch*e:][:e]
		for i, v := range dEmb.Data[r*e:][:e] {
			g[i] += v
		}
	}
	return c.Tok.Backward(dEmb)
}

// measureChannelStages fills in every dchagChannelStages entry.
func measureChannelStages(cfg ComputeBenchConfig) []ChannelStagePoint {
	out := make([]ChannelStagePoint, len(dchagChannelStages))
	for i, cp := range dchagChannelStages {
		kind := core.KindCross
		if cp.Kind == core.KindLinear.String() {
			kind = core.KindLinear
		}
		sc := core.Config{Channels: cp.Channels, ImgH: 16, ImgW: 16, Patch: 2, Embed: cp.Embed, Heads: 4, Tree: cp.Tree, Kind: kind, Seed: 1}
		rng := tensor.NewRNG(int64(4000 + i))
		x := tensor.Randn(rng, cp.Batch, cp.Channels, sc.ImgH, sc.ImgW)
		d := tensor.Randn(rng, cp.Batch, sc.Tokens(), cp.Embed)
		stage, ref := model.NewSerialStage(sc), &chainedStage{SerialStage: model.NewSerialStage(sc)}
		stage.SetInferDType(tensor.F32)
		ref.SetInferDType(tensor.F32)

		cp.Stage.FwdNs, cp.Chained.FwdNs = fastestCalls(cfg, func() { stage.Forward(x) }, func() { ref.pass(x, false) })
		// After a Forward; Backward only reads its caches.
		cp.Stage.BwdNs, cp.Chained.BwdNs = fastestCalls(cfg, func() { stage.Backward(d) }, func() { ref.backward(d) })
		cp.Stage.InferNs, cp.Chained.InferNs = fastestCalls(cfg, func() { stage.Infer(x) }, func() { ref.pass(x, true) })
		// The lesser of two counts: the counter is process-wide and ten rounds
		// last long enough to catch a stray allocation of the runtime's own.
		round := func() { stage.Forward(x); stage.Backward(d); stage.Infer(x) }
		cp.AllocsPerOp = min(allocsPerOp(cfg.AllocIters, round), allocsPerOp(cfg.AllocIters, round))
		cp.Stage.ScratchBytes, cp.Chained.ScratchBytes = scratchBytes(stage), scratchBytes(ref)
		cp.TokenBytes = int64(8 * cp.Batch * cp.Channels * sc.Tokens() * cp.Embed)
		out[i] = cp
	}
	return out
}

// fastestCalls times a and b one call at a time, alternating, until
// cfg.Trials*cfg.MinTime has passed, and returns the nanoseconds of each
// one's fastest call. The two see the same host in the same moments and a
// call the host disturbed is simply not the fastest, so the comparison holds
// where a mean over a window would not; the calls measured this way last
// from a few microseconds (one product shape) to milliseconds (a stage
// pass), above the clock's resolution and the cost of reading it.
func fastestCalls(cfg ComputeBenchConfig, a, b func()) (aNs, bNs float64) {
	timed := func(best float64, step func()) float64 {
		start := time.Now()
		step()
		if ns := float64(time.Since(start).Nanoseconds()); best == 0 || ns < best {
			return ns
		}
		return best
	}
	a()
	b()
	for start := time.Now(); time.Since(start) < time.Duration(cfg.Trials)*cfg.MinTime; {
		aNs, bNs = timed(aNs, a), timed(bNs, b)
	}
	return aNs, bNs
}

var (
	tensorType = reflect.TypeOf((*tensor.Tensor)(nil))
	paramType  = reflect.TypeOf((*nn.Param)(nil))
	// aggregatorTypes are the group aggregators core builds for a tree
	// level.
	aggregatorTypes = map[reflect.Type]bool{
		reflect.TypeOf((*core.CrossAttnAggregator)(nil)): true,
		reflect.TypeOf((*core.LinearAggregator)(nil)):    true,
		reflect.TypeOf((*core.PerceiverAggregator)(nil)): true,
	}
)

// scratchBytes sums the distinct tensors reachable from v, stopping at
// parameters and at group aggregators (whose buffers belong to the
// aggregation's arithmetic, not to moving tokens between layers). It reads
// unexported fields, so no layer needs an accounting method and none can
// forget a buffer.
func scratchBytes(v any) int64 {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value) int64
	walk = func(v reflect.Value) (n int64) {
		switch v.Kind() {
		case reflect.Ptr, reflect.Interface:
			if v.IsNil() || v.Type() == paramType || aggregatorTypes[v.Type()] {
				return 0
			}
			if v.Type() != tensorType {
				return walk(v.Elem())
			}
			if data := v.Elem().FieldByName("Data"); data.Len() > 0 && !seen[data.Pointer()] {
				seen[data.Pointer()] = true
				n = int64(8 * data.Len())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Ptr, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
				for i := 0; i < v.Len(); i++ {
					n += walk(v.Index(i))
				}
			} // else numbers: a tensor's own data, a view's window into one
		}
		return n
	}
	return walk(reflect.ValueOf(v))
}
