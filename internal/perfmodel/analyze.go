package perfmodel

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hw"
)

// Component identifies a part of the model in the per-component breakdowns,
// matching the decomposition of the paper's Figs. 6-8 and 14.
type Component int

// Components of the architecture.
const (
	CompTok  Component = iota // tokenization (patch embed + channel IDs)
	CompAgg                   // channel aggregation (incl. gather buffers)
	CompViT                   // transformer blocks
	CompHead                  // head / decoder (+ positional table)
	numComponents
)

// String names the component.
func (c Component) String() string {
	switch c {
	case CompTok:
		return "tokenization"
	case CompAgg:
		return "aggregation"
	case CompViT:
		return "transformer"
	case CompHead:
		return "head"
	default:
		return "unknown"
	}
}

// Components lists all components in display order.
var Components = []Component{CompTok, CompAgg, CompViT, CompHead}

// Report is the full analytic result for one (shape, workload, strategy)
// configuration on one machine.
type Report struct {
	Shape   ModelShape
	Work    Workload
	Strat   Strategy
	Machine hw.Machine
	// Topo is the physical placement the communication times were priced
	// on (ranks packed densely, TP innermost — see internal/dist).
	Topo dist.Topology

	// ParamsPerGPU[c] is the per-GPU parameter count of component c (before
	// FSDP sharding of optimizer state).
	ParamsPerGPU [numComponents]float64
	// ActBytes[c] is the per-GPU activation memory of component c.
	ActBytes [numComponents]float64
	// StateBytes[c] is the per-GPU parameter/gradient/optimizer memory of
	// component c after FSDP sharding.
	StateBytes [numComponents]float64

	// FwdFLOPs[c] is the forward floating-point work per GPU per step.
	FwdFLOPs [numComponents]float64

	// CommSeconds is the per-step total communication time; ComputeSeconds
	// the per-step math time (forward+backward).
	CommSeconds    float64
	ComputeSeconds float64
	// AxisCommSeconds splits CommSeconds by mesh axis (indexed by
	// dist.Axis): TP collectives, FSDP parameter traffic, DP gradient
	// AllReduce. Each axis is priced on its worst-placed group's ring.
	AxisCommSeconds [dist.NumAxes]float64
	// AxisExposedSeconds is the per-axis communication time left on the
	// critical path after each axis's overlap discipline (overlap.go) hides
	// what it can behind compute; ExposedCommSeconds is the sum. With the
	// calibration's zero Overlap these equal AxisCommSeconds/CommSeconds.
	AxisExposedSeconds [dist.NumAxes]float64
	ExposedCommSeconds float64
}

// TotalMemBytes returns the per-GPU memory footprint.
func (r Report) TotalMemBytes() float64 {
	total := 0.0
	for c := 0; c < int(numComponents); c++ {
		total += r.ActBytes[c] + r.StateBytes[c]
	}
	return total
}

// ComponentMemBytes returns activation+state memory for one component.
func (r Report) ComponentMemBytes(c Component) float64 {
	return r.ActBytes[c] + r.StateBytes[c]
}

// MemFraction returns the footprint normalized to usable GPU memory (the
// normalization of the paper's Figs. 6, 7, 14).
func (r Report) MemFraction() float64 {
	return r.TotalMemBytes() / float64(r.Machine.UsableMemBytes())
}

// Fits reports whether the configuration avoids OOM.
func (r Report) Fits() bool { return r.TotalMemBytes() <= float64(r.Machine.UsableMemBytes()) }

// StepSeconds is the modeled wall time of one training step: compute plus
// the communication left exposed after overlap. Under a zero Overlap
// calibration this equals SerialStepSeconds bit-for-bit.
func (r Report) StepSeconds() float64 { return r.ComputeSeconds + r.ExposedCommSeconds }

// SerialStepSeconds is the overlap-free composition — compute plus every
// collective serialized — the pessimistic bound the sweep reports beside
// the overlapped step time.
func (r Report) SerialStepSeconds() float64 { return r.ComputeSeconds + r.CommSeconds }

// SamplesPerStep returns the global batch processed per step (FSDP and DP
// groups each process distinct data).
func (r Report) SamplesPerStep() float64 {
	return float64(r.Work.MicroBatch * r.Strat.fsdp() * r.Strat.dp())
}

// UsefulFLOPsPerSample returns the serial baseline model's fwd+bwd FLOPs for
// one sample — the work the paper's TFLOPs/sec throughput counts, identical
// across strategies so throughput ratios equal speed ratios.
func (r Report) UsefulFLOPsPerSample() float64 {
	serial := Strategy{Method: MethodBaseline}
	wl := r.Work
	wl.MicroBatch = 1
	var f float64
	for _, fl := range fwdFLOPs(r.Shape, wl, serial, DefaultCalibration()) {
		f += fl
	}
	return 3 * f
}

// TFLOPsPerSec returns the modeled sustained useful throughput of the whole
// job (the metric of the paper's Fig. 16).
func (r Report) TFLOPsPerSec() float64 {
	return r.UsefulFLOPsPerSample() * r.SamplesPerStep() / r.StepSeconds() / 1e12
}

// TFLOPsPerSecPerNode normalizes throughput per occupied node of the
// report's topology (paper Fig. 15). Ranks are packed densely, so a world
// occupies ceil(world/GPUsPerNode) nodes even when the topology has more.
func (r Report) TFLOPsPerSecPerNode() float64 {
	perNode := r.Topo.GPUsPerNode
	if perNode < 1 {
		// Zero-value Topo (report not built by AnalyzeOn): fall back to the
		// machine's node width.
		perNode = r.Machine.GPUsPerNode
	}
	nodes := float64((r.Strat.World() + perNode - 1) / perNode)
	return r.TFLOPsPerSec() / nodes
}

// Analyze evaluates the analytic model for one configuration, placing its
// world densely on the machine (ceil(world/GPUsPerNode) nodes). Callers
// with an explicit node count use AnalyzeOn.
func Analyze(shape ModelShape, wl Workload, strat Strategy, machine hw.Machine, cal Calibration) Report {
	r, err := AnalyzeOn(shape, wl, strat, machine, DefaultTopology(machine, strat.World()), cal)
	if err != nil {
		// Unreachable: the default topology always fits the world.
		panic(err)
	}
	return r
}

// AnalyzeDefault runs Analyze on Frontier with the default calibration.
func AnalyzeDefault(shape ModelShape, wl Workload, strat Strategy) Report {
	return Analyze(shape, wl, strat, hw.Frontier(), DefaultCalibration())
}

// paramsPerGPU computes per-component per-GPU parameter counts.
func paramsPerGPU(shape ModelShape, wl Workload, strat Strategy) [numComponents]float64 {
	var out [numComponents]float64
	e := float64(shape.Embed)
	t := float64(strat.tp())
	c := float64(wl.Channels)
	pp := float64(wl.Patch * wl.Patch)
	tok := func(channels float64) float64 { return channels * (pp*e + e + e) } // conv + bias + channel ID

	switch strat.Method {
	case MethodBaseline:
		out[CompTok] = tok(c) // replicated across TP ranks (the paper's Fig. 2 top)
		out[CompAgg] = 4 * e * e / t
	case MethodDistTok:
		out[CompTok] = tok(float64(localChannels(wl.Channels, strat.tp())))
		out[CompAgg] = 4 * e * e / t
	case MethodDCHAG:
		cl := float64(localChannels(wl.Channels, strat.tp()))
		out[CompTok] = tok(cl)
		plan := core.BuildTreePlan(localChannels(wl.Channels, strat.tp()), strat.Tree)
		layers := float64(plan.NumLayers())
		if strat.Kind == core.KindCross {
			out[CompAgg] = layers * 4 * e * e // per-rank local, full embed
		} else {
			out[CompAgg] = cl + layers*e // linear mixing weights + biases
		}
		out[CompAgg] += 4 * e * e / t // final shared layer, TP-sharded
	}
	out[CompViT] = shape.ViTParams() / t
	out[CompHead] = e*c*pp/t + float64(wl.Tokens())*e
	return out
}

// actBytes computes per-component per-GPU activation memory.
func actBytes(shape ModelShape, wl Workload, strat Strategy, cal Calibration) [numComponents]float64 {
	var out [numComponents]float64
	d := cal.DtypeBytes
	e := float64(shape.Embed)
	b := float64(wl.MicroBatch)
	tt := float64(wl.Tokens())
	c := float64(wl.Channels)
	t := float64(strat.tp())
	pp := float64(wl.Patch * wl.Patch)
	bt := d * b * tt
	// Attention maps are stored per local head; TP shards heads, never the
	// channel dimension (the limitation D-CHAG exists to fix).
	hLocal := float64(shape.Heads) / t
	if hLocal < 1 {
		hLocal = 1
	}

	input := func(channels float64) float64 {
		return d * b * channels * float64(wl.ImgH*wl.ImgW)
	}

	switch strat.Method {
	case MethodBaseline:
		out[CompTok] = bt*c*e*cal.CTokens + bt*c*pp*cal.CTokWork + input(c)
		out[CompAgg] = bt*c*e*cal.CQKV/t + bt*c*c*cal.CScore*hLocal
	case MethodDistTok:
		cl := float64(localChannels(wl.Channels, strat.tp()))
		out[CompTok] = bt*cl*e*cal.CTokens + bt*cl*pp*cal.CTokWork + input(cl)
		// The gathered full token tensor carries the same live-copy count as
		// the baseline's (it feeds the aggregation forward and backward),
		// plus the local send buffer — this is what erases the tokenization
		// savings (paper Fig. 8).
		out[CompAgg] = bt*c*e*cal.CTokens + bt*cl*e + bt*c*e*cal.CQKV/t + bt*c*c*cal.CScore*hLocal
	case MethodDCHAG:
		clInt := localChannels(wl.Channels, strat.tp())
		cl := float64(clInt)
		out[CompTok] = bt*cl*e*cal.CTokens + bt*cl*pp*cal.CTokWork + input(cl)
		plan := core.BuildTreePlan(clInt, strat.Tree)
		// Partial module: attention variants keep q/k/v over the local shard
		// at full embed width plus per-group score maps; linear variants
		// keep only group outputs.
		agg := 0.0
		if strat.Kind == core.KindCross {
			agg += bt * cl * e * cal.CQKV
			scorePairs := 0.0
			for _, level := range plan {
				for _, g := range level {
					scorePairs += float64(g * g)
				}
			}
			agg += bt * scorePairs * cal.CScore * float64(shape.Heads)
		} else {
			agg += bt * e * float64(plan.NumLayers()) // group output tokens
		}
		// AllGather buffer (one token per rank) and the final shared layer.
		agg += bt * t * e
		agg += bt*t*e*cal.CQKV/t + bt*t*t*cal.CScore*hLocal
		out[CompAgg] = agg
	}
	out[CompViT] = cal.VitActBytesPerToken * b * tt * e * float64(shape.Layers) *
		(cal.VitReplFrac + (1-cal.VitReplFrac)/t)
	out[CompHead] = bt * c * pp
	return out
}

// fwdFLOPs computes per-component forward FLOPs per GPU per step.
//
// The aggregation attention uses learned-query scoring (linear in channel
// count) for FLOPs, while its *memory* keeps the quadratic stored-map term —
// see DESIGN.md ("perf-model calibration") for why this split matches the
// paper's Fig. 6 narrative.
func fwdFLOPs(shape ModelShape, wl Workload, strat Strategy, cal Calibration) [numComponents]float64 {
	var out [numComponents]float64
	e := float64(shape.Embed)
	b := float64(wl.MicroBatch)
	tt := float64(wl.Tokens())
	c := float64(wl.Channels)
	t := float64(strat.tp())
	pp := float64(wl.Patch * wl.Patch)
	bt := 2 * b * tt // multiply-add pairs

	proj := cal.AggProjFactor
	switch strat.Method {
	case MethodBaseline:
		out[CompTok] = bt * c * pp * e // every rank tokenizes every channel
		out[CompAgg] = bt*c*e*e*proj/t + bt*c*e*2/t
	case MethodDistTok:
		cl := float64(localChannels(wl.Channels, strat.tp()))
		out[CompTok] = bt * cl * pp * e
		out[CompAgg] = bt*c*e*e*proj/t + bt*c*e*2/t
	case MethodDCHAG:
		clInt := localChannels(wl.Channels, strat.tp())
		cl := float64(clInt)
		out[CompTok] = bt * cl * pp * e
		if strat.Kind == core.KindCross {
			out[CompAgg] = bt*cl*e*e*proj + bt*cl*e*2
		} else {
			out[CompAgg] = bt * cl * e // linear channel mixing
		}
		out[CompAgg] += bt*t*e*e*proj/t + bt*t*e*2/t // final shared layer
	}
	out[CompViT] = (bt*12*e*e + 2*bt*tt*e*2) * float64(shape.Layers) / t
	out[CompHead] = bt * e * c * pp / t
	return out
}

// MaxMicroBatch returns the largest micro-batch that fits memory for the
// configuration (0 when even batch 1 overflows) — the mechanism behind the
// paper's Fig. 15: memory freed by D-CHAG converts into batch and therefore
// throughput.
func MaxMicroBatch(shape ModelShape, wl Workload, strat Strategy, machine hw.Machine, cal Calibration) int {
	lo, hi := 0, 1
	fits := func(b int) bool {
		w := wl
		w.MicroBatch = b
		return Analyze(shape, w, strat, machine, cal).Fits()
	}
	if !fits(1) {
		return 0
	}
	for fits(hi) && hi < 1<<20 {
		lo, hi = hi, hi*2
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MinTPToFit returns the smallest TP degree (among divisors-of-heads powers
// of two up to bound) at which the configuration fits, or 0 if none does,
// and the bound it searched: maxTP, and for the methods that shard channels
// over the TP ranks (distributed tokenization, D-CHAG) at most wl.Channels,
// since each rank needs a channel.
func MinTPToFit(shape ModelShape, wl Workload, strat Strategy, machine hw.Machine, cal Calibration, maxTP int) (tp, bound int) {
	bound = maxTP
	if strat.Method != MethodBaseline {
		bound = min(bound, wl.Channels)
	}
	for t := 1; t <= bound; t *= 2 {
		if shape.Heads%t != 0 {
			continue
		}
		s := strat
		s.TP = t
		if Analyze(shape, wl, s, machine, cal).Fits() {
			return t, bound
		}
	}
	return 0, bound
}

// MemGainOverBaseline returns the per-GPU memory reduction of a strategy
// relative to the TP baseline at the same TP degree — the paper's Figs. 9
// and 13 metric ("performance gains per GPU").
func MemGainOverBaseline(shape ModelShape, wl Workload, strat Strategy, machine hw.Machine, cal Calibration) float64 {
	base := strat
	base.Method = MethodBaseline
	mb := Analyze(shape, wl, base, machine, cal).TotalMemBytes()
	ms := Analyze(shape, wl, strat, machine, cal).TotalMemBytes()
	return (mb - ms) / mb
}

// ThroughputGainOverBaseline returns the step-time speedup of a strategy
// over the TP baseline at the same configuration.
func ThroughputGainOverBaseline(shape ModelShape, wl Workload, strat Strategy, machine hw.Machine, cal Calibration) float64 {
	base := strat
	base.Method = MethodBaseline
	tb := Analyze(shape, wl, base, machine, cal).StepSeconds()
	ts := Analyze(shape, wl, strat, machine, cal).StepSeconds()
	return tb/ts - 1
}
