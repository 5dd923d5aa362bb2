package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

func init() {
	register(Experiment{
		ID:    "sweep",
		Title: "Topology-aware hybrid-shape sweep with overlap, 8-512 GCDs (paper Fig. 15 at scale)",
		Run:   runSweep,
	})
}

// SweepSchema identifies the JSON layout of SweepReport. Bump the suffix on
// any breaking change so perf-trajectory tooling can refuse mixed inputs.
//
// v2 prices step times under the overlap composition model (FSDP prefetch,
// DP bucket overlap, TP on the critical path): step_seconds is the
// overlapped step time, serial_step_seconds the compute+total-comm
// composition, and exposed_seconds the per-axis comm left on the critical
// path. TestSweepJSONArtifact refuses any other schema.
const SweepSchema = "dchag-bench/sweep/v2"

// SweepModel and SweepChannels fix the workload of the sweep: the paper's
// Fig. 15 point (7B model, 500-channel images).
const (
	SweepModel    = "7B"
	SweepChannels = 500
)

// CommBreakdown is a per-axis simulated communication time of one
// configuration, in seconds per step — used both for the full collective
// times and for the exposed (post-overlap) times.
type CommBreakdown struct {
	TP    float64 `json:"tp_seconds"`
	FSDP  float64 `json:"fsdp_seconds"`
	DP    float64 `json:"dp_seconds"`
	Total float64 `json:"total_seconds"`
}

func breakdown(axis [dist.NumAxes]float64, total float64) CommBreakdown {
	return CommBreakdown{
		TP:    axis[dist.AxisTP],
		FSDP:  axis[dist.AxisFSDP],
		DP:    axis[dist.AxisDP],
		Total: total,
	}
}

// SweepPoint is one simulated configuration of the sweep grid.
type SweepPoint struct {
	GCDs        int    `json:"gcds"`
	Nodes       int    `json:"nodes"`
	Method      string `json:"method"`
	TP          int    `json:"tp"`
	FSDP        int    `json:"fsdp"`
	DP          int    `json:"dp"`
	TPIntraNode bool   `json:"tp_intra_node"`
	// MicroBatch is the largest per-replica batch that fits memory;
	// 0 means the shape OOMs even at batch 1 (Fits false, times zero).
	MicroBatch     int     `json:"micro_batch"`
	Fits           bool    `json:"fits"`
	MemBytesPerGPU float64 `json:"mem_bytes_per_gpu"`
	// StepSeconds is the overlapped step time (compute + exposed comm);
	// SerialStepSeconds is the compute + total-comm composition.
	StepSeconds       float64       `json:"step_seconds"`
	SerialStepSeconds float64       `json:"serial_step_seconds"`
	ComputeSeconds    float64       `json:"compute_seconds"`
	Comm              CommBreakdown `json:"comm_seconds"`
	// Exposed is the per-axis comm left on the critical path after each
	// axis's overlap discipline hides what it can behind compute.
	Exposed CommBreakdown `json:"exposed_seconds"`
	// Throughputs are computed from the overlapped step time.
	TFLOPsPerSec        float64 `json:"tflops_per_sec"`
	TFLOPsPerSecPerNode float64 `json:"tflops_per_sec_per_node"`
	// Best marks the highest-throughput fitting shape of its scale.
	Best bool `json:"best"`
}

// CliffPoint is one entry of the TP node-boundary series: micro-batch and
// FSDP held fixed while TP doubles, exposing the step-time cliff the moment
// TP rings leave the node. Overlap does not soften it: TP collectives sit
// on the critical path, so the repriced AllReduces land on the step in
// full.
type CliffPoint struct {
	TP                int           `json:"tp"`
	FSDP              int           `json:"fsdp"`
	DP                int           `json:"dp"`
	MicroBatch        int           `json:"micro_batch"`
	TPIntraNode       bool          `json:"tp_intra_node"`
	StepSeconds       float64       `json:"step_seconds"`
	SerialStepSeconds float64       `json:"serial_step_seconds"`
	ComputeSeconds    float64       `json:"compute_seconds"`
	Comm              CommBreakdown `json:"comm_seconds"`
	Exposed           CommBreakdown `json:"exposed_seconds"`
}

// SweepReport is the machine-readable result of the topology-aware sweep —
// the payload behind `dchag-bench -json` and the BENCH_*.json trajectory.
type SweepReport struct {
	Schema      string `json:"schema"`
	Model       string `json:"model"`
	Channels    int    `json:"channels"`
	GPUsPerNode int    `json:"gpus_per_node"`
	// Overlap records that step times were priced under the overlap model;
	// every report this code writes says true.
	Overlap   bool         `json:"overlap"`
	Scales    []int        `json:"scales"`
	CliffGCDs int          `json:"cliff_gcds"`
	Points    []SweepPoint `json:"points"`
	Cliff     []CliffPoint `json:"cliff"`
}

// DefaultSweepScales returns the GCD counts of the full sweep: 8 (one
// Frontier node) through 512 (64 nodes).
func DefaultSweepScales() []int { return []int{8, 16, 32, 64, 128, 256, 512} }

// cliffMicroBatch is the fixed per-replica batch of the cliff series, small
// enough that every TP degree fits it.
const cliffMicroBatch = 4

// BestAt returns the best-marked point of the given scale.
func (r SweepReport) BestAt(gcds int) (SweepPoint, bool) {
	for _, p := range r.Points {
		if p.GCDs == gcds && p.Best {
			return p, true
		}
	}
	return SweepPoint{}, false
}

// sweepTPDegrees are the channel-group widths swept at every scale; 16 and
// 32 deliberately cross the 8-GCD node boundary.
var sweepTPDegrees = []int{1, 2, 4, 8, 16, 32}

// sweepStrategies enumerates the hybrid grid at one scale: every
// TP×FSDP×DP factorization of gcds with TP in sweepTPDegrees and
// power-of-two FSDP, all D-CHAG-L, plus the pure-FSDP baseline (no channel
// sharding, parameters fully sharded across all GCDs).
func sweepStrategies(gcds int) []perfmodel.Strategy {
	out := []perfmodel.Strategy{
		{Method: perfmodel.MethodBaseline, TP: 1, FSDP: gcds, DP: 1},
	}
	for _, tp := range sweepTPDegrees {
		if tp > gcds || gcds%tp != 0 {
			continue
		}
		for fsdp := 1; fsdp <= gcds/tp; fsdp *= 2 {
			if (gcds/tp)%fsdp != 0 {
				continue
			}
			out = append(out, perfmodel.Strategy{
				Method: perfmodel.MethodDCHAG, TP: tp, FSDP: fsdp, DP: gcds / (tp * fsdp),
				Tree: 0, Kind: core.KindLinear,
			})
		}
	}
	return out
}

// simulate prices one strategy at its largest fitting micro-batch.
func simulate(shape perfmodel.ModelShape, strat perfmodel.Strategy, machine hw.Machine, cal perfmodel.Calibration) SweepPoint {
	gcds := strat.World()
	topo := perfmodel.DefaultTopology(machine, gcds)
	pt := SweepPoint{
		GCDs:        gcds,
		Nodes:       topo.Nodes,
		Method:      strat.Method.String(),
		TP:          strat.Mesh().TP,
		FSDP:        strat.Mesh().FSDP,
		DP:          strat.Mesh().DP,
		TPIntraNode: dist.WorstAxisPlacement(strat.Mesh(), topo, dist.AxisTP).IntraNode(),
	}
	wl := perfmodel.ReferenceWorkload(SweepChannels)
	b := perfmodel.MaxMicroBatch(shape, wl, strat, machine, cal)
	pt.MicroBatch = b
	if b == 0 {
		return pt
	}
	wl.MicroBatch = b
	r := perfmodel.Analyze(shape, wl, strat, machine, cal)
	pt.Fits = true
	pt.MemBytesPerGPU = r.TotalMemBytes()
	pt.StepSeconds = r.StepSeconds()
	pt.SerialStepSeconds = r.SerialStepSeconds()
	pt.ComputeSeconds = r.ComputeSeconds
	pt.Comm = breakdown(r.AxisCommSeconds, r.CommSeconds)
	pt.Exposed = breakdown(r.AxisExposedSeconds, r.ExposedCommSeconds)
	pt.TFLOPsPerSec = r.TFLOPsPerSec()
	pt.TFLOPsPerSecPerNode = r.TFLOPsPerSecPerNode()
	return pt
}

// cliffSeries fixes micro-batch and FSDP while TP doubles across the node
// boundary at the given scale — the discrete repricing of the per-layer TP
// AllReduces from Infinity Fabric to Slingshot is the paper's "keep TP in
// the node" argument made quantitative.
func cliffSeries(shape perfmodel.ModelShape, gcds int, machine hw.Machine, cal perfmodel.Calibration) []CliffPoint {
	fsdp := 8
	if gcds%fsdp != 0 || gcds < fsdp {
		fsdp = 1
	}
	var out []CliffPoint
	for _, tp := range sweepTPDegrees {
		if tp*fsdp > gcds || gcds%(tp*fsdp) != 0 {
			continue
		}
		strat := perfmodel.Strategy{
			Method: perfmodel.MethodDCHAG, TP: tp, FSDP: fsdp, DP: gcds / (tp * fsdp),
			Tree: 0, Kind: core.KindLinear,
		}
		wl := perfmodel.ReferenceWorkload(SweepChannels)
		wl.MicroBatch = cliffMicroBatch
		r := perfmodel.Analyze(shape, wl, strat, machine, cal)
		topo := perfmodel.DefaultTopology(machine, gcds)
		out = append(out, CliffPoint{
			TP: tp, FSDP: fsdp, DP: strat.Mesh().DP, MicroBatch: cliffMicroBatch,
			TPIntraNode:       dist.WorstAxisPlacement(strat.Mesh(), topo, dist.AxisTP).IntraNode(),
			StepSeconds:       r.StepSeconds(),
			SerialStepSeconds: r.SerialStepSeconds(),
			ComputeSeconds:    r.ComputeSeconds,
			Comm:              breakdown(r.AxisCommSeconds, r.CommSeconds),
			Exposed:           breakdown(r.AxisExposedSeconds, r.ExposedCommSeconds),
		})
	}
	return out
}

// RunSweep simulates the hybrid grid at every requested scale under the
// calibrated overlap model and returns the machine-readable report. The
// cliff series is computed at the largest scale.
func RunSweep(scales []int) SweepReport {
	cal := perfmodel.DefaultCalibration()
	machine := hw.Frontier()
	shape := perfmodel.Shapes[SweepModel]
	rep := SweepReport{
		Schema:      SweepSchema,
		Model:       SweepModel,
		Channels:    SweepChannels,
		GPUsPerNode: machine.GPUsPerNode,
		Overlap:     cal.Overlap != (perfmodel.Overlap{}),
		Scales:      append([]int(nil), scales...),
	}
	for _, gcds := range scales {
		first := len(rep.Points)
		best := -1
		for _, strat := range sweepStrategies(gcds) {
			pt := simulate(shape, strat, machine, cal)
			rep.Points = append(rep.Points, pt)
			if pt.Fits && (best < 0 || pt.TFLOPsPerSecPerNode > rep.Points[best].TFLOPsPerSecPerNode) {
				best = len(rep.Points) - 1
			}
		}
		if best >= first {
			rep.Points[best].Best = true
		}
		if gcds > rep.CliffGCDs {
			rep.CliffGCDs = gcds
		}
	}
	if rep.CliffGCDs > 0 {
		rep.Cliff = cliffSeries(shape, rep.CliffGCDs, machine, cal)
	}
	return rep
}

// runSweep renders the sweep as the registered experiment: the best shape
// per scale against the pure-FSDP reference, and the TP cliff series.
func runSweep() Result {
	rep := RunSweep(DefaultSweepScales())

	best := &Table{
		Title: fmt.Sprintf("Best hybrid shape per scale (%s model, %d channels, max fitting micro-batch, overlap on)",
			rep.Model, rep.Channels),
		Headers: []string{"GCDs", "nodes", "best shape", "micro-batch", "step ms", "serial ms",
			"tp exp ms", "fsdp exp ms", "dp exp ms", "TFLOPs/s/node", "pure-FSDP TFLOPs/s/node"},
	}
	for _, gcds := range rep.Scales {
		bp, ok := rep.BestAt(gcds)
		if !ok {
			best.Add(fmt.Sprint(gcds), "-", "no fitting shape", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		pure := "-"
		for _, p := range rep.Points {
			if p.GCDs == gcds && p.Method == perfmodel.MethodBaseline.String() && p.TP == 1 {
				if p.Fits {
					pure = fmt.Sprintf("%.1f", p.TFLOPsPerSecPerNode)
				} else {
					pure = "OOM"
				}
			}
		}
		best.Add(fmt.Sprint(gcds), fmt.Sprint(bp.Nodes),
			fmt.Sprintf("D-CHAG-L TP=%d FSDP=%d DP=%d", bp.TP, bp.FSDP, bp.DP),
			fmt.Sprint(bp.MicroBatch), ms(bp.StepSeconds), ms(bp.SerialStepSeconds),
			ms(bp.Exposed.TP), ms(bp.Exposed.FSDP), ms(bp.Exposed.DP),
			fmt.Sprintf("%.1f", bp.TFLOPsPerSecPerNode), pure)
	}
	best.Note("paper Fig. 15: the winning shapes keep TP (= D-CHAG groups) at or below the 8-GCD node width; overlap hides FSDP/DP traffic but TP stays on the critical path")

	cliff := &Table{
		Title: fmt.Sprintf("TP node-boundary cliff @ %d GCDs (micro-batch %d, FSDP fixed)",
			rep.CliffGCDs, cliffMicroBatch),
		Headers: []string{"TP", "FSDP", "DP", "TP placement", "step ms", "tp comm ms", "fsdp exp ms", "dp exp ms"},
	}
	for _, c := range rep.Cliff {
		placement := "intra-node"
		if !c.TPIntraNode {
			placement = "inter-node"
		}
		cliff.Add(fmt.Sprint(c.TP), fmt.Sprint(c.FSDP), fmt.Sprint(c.DP), placement,
			ms(c.StepSeconds), ms(c.Comm.TP), ms(c.Exposed.FSDP), ms(c.Exposed.DP))
	}
	cliff.Note("crossing TP=8 -> 16 reprices every per-layer AllReduce from Infinity Fabric to the Slingshot share — and no overlap discipline can hide it")

	return Result{ID: "sweep", Title: "Topology-aware step-time sweep", Tables: []*Table{best, cliff}}
}

// ms renders seconds as milliseconds with one decimal.
func ms(s float64) string { return fmt.Sprintf("%.1f", s*1e3) }
