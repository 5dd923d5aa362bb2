package experiments

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

func init() {
	register(Experiment{
		ID:    "trace",
		Title: "Schedule and byte accounting: wire bytes traced on a 2x2x2 mesh, priced, vs the analytic model",
		Run:   runTraceExperiment,
	})
}

// traceRatioTol bounds |ratio - 1| per axis. The traced bytes are priced
// with the formulas the model used, so agreement is exact up to the
// rounding of one inversion.
const traceRatioTol = 1e-9

// TraceAxis is one mesh axis's traced-vs-modeled accounting.
type TraceAxis struct {
	// Axis names the mesh axis (tp, fsdp, dp).
	Axis string
	// Spans counts the traced collective spans on the axis; WireBytes
	// sums their recorded wire traffic across all ranks.
	Spans     int
	WireBytes int64
	// TracedSeconds is the traced bytes, priced: each span's wire volume
	// inverted to its logical size and priced on its group's placement
	// (worst group gates, as in the model). No clock enters it.
	// ModeledSeconds is perfmodel's pre-overlap per-axis time for the same
	// configuration.
	TracedSeconds  float64
	ModeledSeconds float64
	// TracedExposedSeconds and ModeledExposedSeconds apply the shared
	// overlap discipline to both sides; Ratio is their quotient (0 when
	// the modeled side is 0).
	TracedExposedSeconds  float64
	ModeledExposedSeconds float64
	Ratio                 float64
}

// TraceReport is what RunTraceBench found.
type TraceReport struct {
	// Strategy, World, and Topology pin the traced configuration.
	Strategy string
	World    int
	Topology string
	// Events counts every priced span across all rank rows.
	Events int
	// ComputeSeconds is the modeled per-step compute both exposure
	// computations share.
	ComputeSeconds float64
	Axes           []TraceAxis
	// MaxRatioErr is the largest |Ratio - 1| over axes with a nonzero
	// modeled time. SpanCountErr counts the (rank, axis) pairs that traced
	// a different number of spans than the schedule issues (a worst group
	// gates each axis's time, so a span lost on one rank need not move a
	// ratio). Agrees requires MaxRatioErr <= 1e-9 and SpanCountErr == 0.
	MaxRatioErr  float64
	SpanCountErr int
	Agrees       bool
}

// traceBenchConfig is the fixed attribution workload: a small D-CHAG
// model on a real 2(TP) x 2(FSDP) x 2(DP) mesh spread over two 4-GPU
// nodes, so every axis has both a schedule and a placement to price.
func traceBenchConfig() (perfmodel.ModelShape, perfmodel.Workload, perfmodel.Strategy, hw.Machine, dist.Topology, perfmodel.Calibration) {
	shape := perfmodel.ModelShape{Name: "trace", Embed: 512, Layers: 2, Heads: 8}
	wl := perfmodel.Workload{Channels: 32, ImgH: 128, ImgW: 128, Patch: 8, MicroBatch: 4}
	strat := perfmodel.Strategy{Method: perfmodel.MethodDCHAG, TP: 2, FSDP: 2, DP: 2}
	machine := hw.Frontier()
	topo := dist.Topology{Nodes: 2, GPUsPerNode: 4}
	return shape, wl, strat, machine, topo, perfmodel.DefaultCalibration()
}

// traceSizes is what one rank's schedule needs to know: how many
// activation AllReduces the TP axis carries per step (4L+2) and the
// logical element counts of the activation and the per-GPU parameter block.
type traceSizes struct {
	tpAllReduces, actElems, paramElems int
}

// traceSchedule issues on one rank exactly the collectives
// axisCommSeconds prices: tpAllReduces activation AllReduces and one
// activation AllGather on TP, two parameter-shard AllGathers and a
// gradient ReduceScatter on FSDP, one gradient AllReduce on DP.
func traceSchedule(rank int, m *dist.Mesh, s traceSizes) error {
	rng := tensor.NewRNG(7 + int64(rank))
	act := tensor.Randn(rng, s.actElems)
	tpc := m.Comm(dist.AxisTP, rank)
	for i := 0; i < s.tpAllReduces; i++ {
		tpc.AllReduceSum(act)
	}
	tpc.AllGather(act)

	fc := m.Comm(dist.AxisFSDP, rank)
	shard := tensor.Randn(rng, s.paramElems/fc.Size())
	full := tensor.Randn(rng, s.paramElems)
	for i := 0; i < 2; i++ {
		fc.AllGather(shard)
	}
	fc.ReduceScatterSum(full, 0)

	dc := m.Comm(dist.AxisDP, rank)
	dc.AllReduceSum(full)
	return nil
}

// RunTraceBench replays the analytic model's per-axis collective
// schedule (traceSchedule) on a real traced mesh, with tensors sized from
// the model's own formulas. The comm observers record the actual wire
// volumes, which are then inverted to logical sizes and priced on each
// group's placement with the same hw formulas the model uses, and set
// against perfmodel.AnalyzeOn. It is a schedule-and-byte-accounting
// invariant, not a measurement: what it validates is observer hook
// coverage, wire-volume accounting, the inversion, and the shared overlap
// discipline.
//
// The returned tracer holds the raw trace (for -chrome export); the
// report is deterministic — no wall clock enters the pricing.
func RunTraceBench() (TraceReport, *obs.Tracer, error) {
	return runTraceBench(traceSchedule)
}

func runTraceBench(schedule func(rank int, m *dist.Mesh, s traceSizes) error) (TraceReport, *obs.Tracer, error) {
	shape, wl, strat, machine, topo, cal := traceBenchConfig()
	rep := TraceReport{
		Strategy: strat.Label(),
		World:    strat.World(),
		Topology: fmt.Sprintf("%dx%d", topo.Nodes, topo.GPUsPerNode),
	}
	modeled, err := perfmodel.AnalyzeOn(shape, wl, strat, machine, topo, cal)
	if err != nil {
		return rep, nil, err
	}
	rep.ComputeSeconds = modeled.ComputeSeconds

	// Logical tensor sizes, element-denominated (the in-process comm layer
	// moves f64 elements; comm.BytesPerElem converts). actElems is the
	// [B,T,E] activation at the modeled dtype; paramElems the per-GPU
	// parameter block, rounded to keep every collective's wire arithmetic
	// exact (divisible by the axis group sizes).
	d := cal.DtypeBytes
	actBytes := d * float64(wl.MicroBatch) * float64(wl.Tokens()) * float64(shape.Embed)
	sizes := traceSizes{tpAllReduces: 4*shape.Layers + 2, actElems: int(actBytes) / comm.BytesPerElem}
	var params float64
	for _, p := range modeled.ParamsPerGPU {
		params += p
	}
	sizes.paramElems = int(params*d) / comm.BytesPerElem
	fsdp, dp := 2, 2 // strat is fixed above
	if r := sizes.paramElems % (2 * fsdp * dp); r != 0 {
		sizes.paramElems += 2*fsdp*dp - r
	}
	var wantSpans [dist.NumAxes]int // per rank
	wantSpans[dist.AxisTP] = sizes.tpAllReduces + 1
	wantSpans[dist.AxisFSDP] = 3
	wantSpans[dist.AxisDP] = 1

	mesh, err := dist.NewMesh(strat.Mesh(), topo)
	if err != nil {
		return rep, nil, err
	}
	tr := obs.NewTracer(mesh.World(), 64)
	tr.SetMeta("workload", "trace-bench "+strat.Label())
	mesh.SetObserver(func(a dist.Axis, rank int) comm.Observer {
		return obs.NewCommObserver(tr.Rank(rank), obs.CommCat(a.String()))
	})
	err = mesh.Run(func(rank int, m *dist.Mesh) error { return schedule(rank, m, sizes) })
	if err != nil {
		return rep, tr, err
	}

	// Price the trace: per rank, invert each span's wire volume back to
	// the collective's logical size and price it on the rank's group
	// placement; per axis, the worst group's mean per-rank time gates —
	// the same "groups run in lockstep" composition the model uses.
	var perRank [dist.NumAxes][]float64
	for a := range perRank {
		perRank[a] = make([]float64, mesh.World())
	}
	axisOf := map[string]dist.Axis{}
	var spans [dist.NumAxes]int
	var wire [dist.NumAxes]int64
	for _, a := range dist.Axes {
		axisOf[obs.CommCat(a.String())] = a
	}
	for r := 0; r < mesh.World(); r++ {
		var rankSpans [dist.NumAxes]int
		for _, ev := range tr.Events(r) {
			a, ok := axisOf[ev.Cat]
			if !ok || ev.Ph != 'X' {
				continue
			}
			g := mesh.GroupOf(a, r)
			n := int64(len(mesh.GroupRanks(a, g)))
			p := mesh.GroupPlacement(a, g)
			var t float64
			switch comm.Op(ev.Name) {
			case comm.OpAllReduce:
				t = machine.AllReduceTimeOn(p, ev.Bytes*n/(2*(n-1)))
			case comm.OpAllGather:
				t = machine.AllGatherTimeOn(p, ev.Bytes/(n-1))
			case comm.OpReduceScatter:
				t = machine.ReduceScatterTimeOn(p, ev.Bytes*n/(n-1))
			default:
				continue // barriers carry no modeled schedule here
			}
			perRank[a][r] += t
			rankSpans[a]++
			wire[a] += ev.Bytes
		}
		for _, a := range dist.Axes {
			spans[a] += rankSpans[a]
			rep.Events += rankSpans[a]
			if rankSpans[a] != wantSpans[a] {
				rep.SpanCountErr++
			}
		}
	}
	var traced [dist.NumAxes]float64
	for _, a := range dist.Axes {
		for g := 0; g < mesh.GroupCount(a); g++ {
			ranks := mesh.GroupRanks(a, g)
			sum := 0.0
			for _, r := range ranks {
				sum += perRank[a][r]
			}
			if mean := sum / float64(len(ranks)); mean > traced[a] {
				traced[a] = mean
			}
		}
	}
	exposed := cal.Overlap.Expose(modeled.ComputeSeconds, traced)

	for _, a := range dist.Axes {
		ta := TraceAxis{
			Axis:                  a.String(),
			Spans:                 spans[a],
			WireBytes:             wire[a],
			TracedSeconds:         traced[a],
			ModeledSeconds:        modeled.AxisCommSeconds[a],
			TracedExposedSeconds:  exposed[a],
			ModeledExposedSeconds: modeled.AxisExposedSeconds[a],
		}
		if ta.ModeledExposedSeconds > 0 {
			ta.Ratio = ta.TracedExposedSeconds / ta.ModeledExposedSeconds
			rep.MaxRatioErr = math.Max(rep.MaxRatioErr, math.Abs(ta.Ratio-1))
		}
		rep.Axes = append(rep.Axes, ta)
	}
	rep.Agrees = rep.MaxRatioErr <= traceRatioTol && rep.SpanCountErr == 0
	return rep, tr, nil
}

// runTraceExperiment renders the accounting as a figure-style table.
func runTraceExperiment() Result {
	t := &Table{
		Title:   "Traced bytes, priced, vs modeled per-axis exposed comm (traced 2x2x2 mesh)",
		Headers: []string{"axis", "spans", "wire", "traced bytes priced ms", "modeled ms", "exposed traced ms", "exposed model ms", "ratio"},
	}
	rep, _, err := RunTraceBench()
	if err != nil {
		t.Note("trace bench failed: %v", err)
		return Result{ID: "trace", Title: t.Title, Tables: []*Table{t}}
	}
	for _, a := range rep.Axes {
		t.Add(a.Axis,
			fmt.Sprintf("%d", a.Spans),
			hw.FormatBytes(a.WireBytes),
			fmt.Sprintf("%.3f", a.TracedSeconds*1e3),
			fmt.Sprintf("%.3f", a.ModeledSeconds*1e3),
			fmt.Sprintf("%.3f", a.TracedExposedSeconds*1e3),
			fmt.Sprintf("%.3f", a.ModeledExposedSeconds*1e3),
			fmt.Sprintf("%.3f", a.Ratio),
		)
	}
	t.Note("strategy %s on %s; %d traced spans, %d rank rows off schedule; max ratio error %.2g (gate: %g)",
		rep.Strategy, rep.Topology, rep.Events, rep.SpanCountErr, rep.MaxRatioErr, traceRatioTol)
	return Result{ID: "trace", Title: t.Title, Tables: []*Table{t}}
}
