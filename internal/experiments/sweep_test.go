package experiments

import (
	"math"
	"testing"

	"repro/internal/perfmodel"
)

// The acceptance invariants of the topology-aware sweep at 512 GCDs: the
// simulator must reproduce the paper's qualitative shape — a hybrid with
// node-local TP wins, and TP crossing the node boundary is a cliff.

func sweep512(t *testing.T) SweepReport {
	t.Helper()
	rep := RunSweep([]int{512})
	if rep.Schema != SweepSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, SweepSchema)
	}
	if !rep.Overlap {
		t.Fatal("RunSweep must price with overlap on")
	}
	if rep.CliffGCDs != 512 {
		t.Fatalf("cliff scale = %d, want 512", rep.CliffGCDs)
	}
	return rep
}

func TestSweepBestIsNodeLocalHybrid(t *testing.T) {
	rep := sweep512(t)
	best, ok := rep.BestAt(512)
	if !ok {
		t.Fatal("no best point at 512 GCDs")
	}
	if !best.Fits || best.MicroBatch < 1 {
		t.Fatalf("best shape must fit: %+v", best)
	}
	if best.TP < 2 || best.TP > 8 {
		t.Fatalf("best TP = %d, want a node-local channel group (2..8)", best.TP)
	}
	if !best.TPIntraNode {
		t.Fatal("best shape's TP rings must stay inside a node")
	}
	if best.FSDP*best.DP <= 1 {
		t.Fatalf("best shape must be a hybrid (FSDP*DP > 1), got FSDP=%d DP=%d", best.FSDP, best.DP)
	}
	if best.Method != perfmodel.MethodDCHAG.String() {
		t.Fatalf("best method = %s, want D-CHAG", best.Method)
	}

	for _, p := range rep.Points {
		if p.GCDs != 512 || !p.Fits || p.Best {
			continue
		}
		// Every TP > 8 shape pays inter-node TP collectives and loses — by a
		// wide margin, not a rounding error.
		if p.TP > 8 {
			if p.TPIntraNode {
				t.Fatalf("TP=%d cannot be intra-node on 8-GCD nodes", p.TP)
			}
			if !(best.TFLOPsPerSecPerNode > 2*p.TFLOPsPerSecPerNode) {
				t.Fatalf("best (%.1f TF/s/node) must clearly beat TP=%d (%.1f)",
					best.TFLOPsPerSecPerNode, p.TP, p.TFLOPsPerSecPerNode)
			}
		}
		// Pure FSDP — all 512 GCDs on the FSDP axis, with or without
		// D-CHAG channel sharding — also loses.
		if p.TP == 1 && p.FSDP == 512 {
			if !(best.TFLOPsPerSecPerNode > p.TFLOPsPerSecPerNode) {
				t.Fatalf("best (%.1f) must beat pure-FSDP %s (%.1f)",
					best.TFLOPsPerSecPerNode, p.Method, p.TFLOPsPerSecPerNode)
			}
		}
	}
}

func TestSweepTPNodeBoundaryCliff(t *testing.T) {
	rep := sweep512(t)
	at := func(tp int) CliffPoint {
		for _, c := range rep.Cliff {
			if c.TP == tp {
				return c
			}
		}
		t.Fatalf("cliff series missing TP=%d: %+v", tp, rep.Cliff)
		return CliffPoint{}
	}
	c8, c16 := at(8), at(16)
	if !c8.TPIntraNode || c16.TPIntraNode {
		t.Fatal("TP=8 must be intra-node and TP=16 inter-node on Frontier")
	}
	// The cliff: doubling TP halves per-GPU compute, yet the step gets
	// slower, because every TP collective repriced to the Slingshot share.
	if !(c16.ComputeSeconds < c8.ComputeSeconds) {
		t.Fatalf("TP=16 must compute less per GPU than TP=8: %v vs %v", c16.ComputeSeconds, c8.ComputeSeconds)
	}
	if !(c16.StepSeconds > c8.StepSeconds) {
		t.Fatalf("step time must rise across the node boundary: TP=8 %.3fs -> TP=16 %.3fs",
			c8.StepSeconds, c16.StepSeconds)
	}
	if !(c16.Comm.TP > 3*c8.Comm.TP) {
		t.Fatalf("inter-node TP comm must jump discretely: %.3fs -> %.3fs", c8.Comm.TP, c16.Comm.TP)
	}
	// The rise is attributable to TP traffic: the TP-axis delta exceeds the
	// whole step's delta (every other term shrinks or holds).
	if !(c16.Comm.TP-c8.Comm.TP > c16.StepSeconds-c8.StepSeconds) {
		t.Fatal("the step-time cliff must be carried by the TP axis")
	}
	// Below the boundary the TP term grows gently — no cliff inside a node.
	c4 := at(4)
	if !(c16.Comm.TP/c8.Comm.TP > 2*(c8.Comm.TP/c4.Comm.TP)) {
		t.Fatalf("TP comm growth at the boundary (%.2fx) must dwarf intra-node growth (%.2fx)",
			c16.Comm.TP/c8.Comm.TP, c8.Comm.TP/c4.Comm.TP)
	}
}

func TestSweepPointAccounting(t *testing.T) {
	rep := sweep512(t)
	for _, p := range rep.Points {
		if p.TP*p.FSDP*p.DP != p.GCDs {
			t.Fatalf("shape %dx%dx%d does not factor %d GCDs", p.TP, p.FSDP, p.DP, p.GCDs)
		}
		if !p.Fits {
			if p.StepSeconds != 0 || p.MicroBatch != 0 {
				t.Fatalf("OOM point must carry zero times: %+v", p)
			}
			continue
		}
		if p.StepSeconds <= 0 || p.ComputeSeconds <= 0 {
			t.Fatalf("fitting point must have positive times: %+v", p)
		}
		for _, bd := range []CommBreakdown{p.Comm, p.Exposed} {
			sum := bd.TP + bd.FSDP + bd.DP
			if diff := sum - bd.Total; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("per-axis breakdown must sum to total: %v vs %v", sum, bd.Total)
			}
		}
		if diff := p.ComputeSeconds + p.Exposed.Total - p.StepSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("compute + exposed comm must equal step time: %+v", p)
		}
		if diff := p.ComputeSeconds + p.Comm.Total - p.SerialStepSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("compute + total comm must equal serial step time: %+v", p)
		}
		// Overlap bounds: never faster than the compute/comm max, never
		// slower than the serial composition.
		if p.StepSeconds > p.SerialStepSeconds+1e-12 {
			t.Fatalf("overlapped step must not exceed serial: %+v", p)
		}
		lower := p.ComputeSeconds
		if p.Comm.Total > lower {
			lower = p.Comm.Total
		}
		if p.StepSeconds < lower-1e-12 {
			t.Fatalf("overlapped step below max(compute, comm): %+v", p)
		}
		// TP is on the critical path: its comm is exposed in full.
		if p.Exposed.TP != p.Comm.TP {
			t.Fatalf("TP comm must stay fully exposed: %+v", p)
		}
	}
}

func TestSweepOverlapMovesGainsTowardPaper(t *testing.T) {
	// The calibration target (ISSUE/ROADMAP): with overlap on, the
	// hybrid-vs-pure-FSDP throughput gain comes down from the serial
	// composition's exaggerated value toward the "more than 2x"
	// improvement the paper reports, without giving up the win.
	rep := RunSweep([]int{512})
	// throughput is a point's per-node rate under the overlapped or the
	// serial step time; the micro-batch is set by memory, so one report
	// carries both pricings.
	gain := func(serial bool) float64 {
		throughput := func(p SweepPoint) float64 {
			if serial {
				return p.TFLOPsPerSecPerNode * p.StepSeconds / p.SerialStepSeconds
			}
			return p.TFLOPsPerSecPerNode
		}
		var best, pure float64
		for _, p := range rep.Points {
			if !p.Fits {
				continue
			}
			best = math.Max(best, throughput(p))
			if p.Method == perfmodel.MethodBaseline.String() && p.TP == 1 {
				pure = throughput(p)
			}
		}
		if pure == 0 {
			t.Fatal("no pure-FSDP reference at 512")
		}
		return best/pure - 1
	}
	gOver, gSerial := gain(false), gain(true)
	if !(gOver < gSerial) {
		t.Fatalf("overlap must shrink the hybrid-vs-pure-FSDP gain: overlap %+.1f%% vs serial %+.1f%%",
			100*gOver, 100*gSerial)
	}
	if gOver < 1.0 {
		t.Fatalf("hybrid must keep a >2x (gain > +100%%) win over pure-FSDP with overlap on, got %+.1f%%", 100*gOver)
	}
	if gOver > 2.2 {
		t.Fatalf("overlapped gain %+.1f%% still exaggerated (want at most ~+220%%, tracking the paper's reported band)", 100*gOver)
	}
}

func TestSweepTableRendering(t *testing.T) {
	res := runSweep()
	if len(res.Tables) != 2 {
		t.Fatalf("sweep must render best-shape and cliff tables, got %d", len(res.Tables))
	}
	if len(res.Tables[0].Rows) != len(DefaultSweepScales()) {
		t.Fatalf("best-shape table has %d rows, want one per scale", len(res.Tables[0].Rows))
	}
	if len(res.Tables[1].Rows) < 4 {
		t.Fatalf("cliff table too short: %d rows", len(res.Tables[1].Rows))
	}
}
