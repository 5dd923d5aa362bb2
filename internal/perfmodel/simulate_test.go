package perfmodel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hw"
)

// Property tests tying the step-time simulator to the dist traffic
// classification: the simulator must price an axis intra-node exactly when
// dist classifies every group of that axis intra-node, and crossing a node
// boundary must always cost strictly more at equal group size.

// simSpecs enumerates strategy shapes whose placements exercise aligned,
// unaligned and node-striding groups.
func simSpecs() []Strategy {
	var out []Strategy
	for _, tp := range []int{1, 2, 4, 8, 16} {
		for _, fsdp := range []int{1, 2, 4} {
			for _, dp := range []int{1, 2, 4} {
				out = append(out, Strategy{
					Method: MethodDCHAG, TP: tp, FSDP: fsdp, DP: dp,
					Tree: 0, Kind: core.KindLinear,
				})
			}
		}
	}
	return out
}

func TestAxisPricingMatchesDistClassification(t *testing.T) {
	machine := hw.Frontier()
	for _, strat := range simSpecs() {
		spec := strat.Mesh()
		topo := DefaultTopology(machine, spec.World())
		mesh, err := dist.NewMesh(spec, topo)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		for _, a := range []dist.Axis{dist.AxisTP, dist.AxisFSDP, dist.AxisDP} {
			allIntra := true
			for gid := 0; gid < mesh.GroupCount(a); gid++ {
				if !mesh.GroupIntraNode(a, gid) {
					allIntra = false
				}
				// The bridge's placement must agree with dist's own
				// member-based classification group by group.
				p := dist.GroupPlacement(spec, topo, a, gid)
				if p.IntraNode() != mesh.GroupIntraNode(a, gid) {
					t.Fatalf("%+v axis %s group %d: bridge intra=%v, dist intra=%v",
						spec, a, gid, p.IntraNode(), mesh.GroupIntraNode(a, gid))
				}
			}
			worst := dist.WorstAxisPlacement(spec, topo, a)
			bw, lat := machine.RingLink(worst)
			if allIntra {
				// Axes dist classifies fully intra-node must be priced using
				// only the intra-node link constants.
				if bw != machine.IntraBW || lat != machine.LatIntra {
					t.Fatalf("%+v axis %s: intra-node axis priced at bw=%v lat=%v", spec, a, bw, lat)
				}
			} else {
				if bw != machine.InterBWPerGPU || lat != machine.LatInter {
					t.Fatalf("%+v axis %s: inter-node axis priced at bw=%v lat=%v", spec, a, bw, lat)
				}
				// Inter-node groups must be strictly slower than an
				// equal-size intra-node group at equal bytes.
				n := len(worst)
				if !(machine.AllReduceTimeOn(worst, 1<<24) > machine.AllReduceTimeOn(make(hw.Placement, n), 1<<24)) {
					t.Fatalf("%+v axis %s: inter-node ring not slower than equal-size intra ring", spec, a)
				}
			}
		}
	}
}

func TestAxisCommSecondsComposition(t *testing.T) {
	machine := hw.Frontier()
	cal := DefaultCalibration()
	shape := Shapes["7B"]
	wl := ReferenceWorkload(500)
	r := Analyze(shape, wl, Strategy{Method: MethodDCHAG, TP: 8, FSDP: 8, DP: 8, Kind: core.KindLinear}, machine, cal)
	var sum float64
	for _, v := range r.AxisCommSeconds {
		sum += v
	}
	if sum != r.CommSeconds {
		t.Fatalf("per-axis times must sum to CommSeconds: %v vs %v", sum, r.CommSeconds)
	}
	for _, a := range []dist.Axis{dist.AxisTP, dist.AxisFSDP, dist.AxisDP} {
		if r.AxisCommSeconds[a] <= 0 {
			t.Fatalf("axis %s has extent > 1 but zero comm time", a)
		}
	}
	// Single-rank axes are silent.
	r1 := Analyze(shape, wl, Strategy{Method: MethodDCHAG, TP: 8, Kind: core.KindLinear}, machine, cal)
	if r1.AxisCommSeconds[dist.AxisFSDP] != 0 || r1.AxisCommSeconds[dist.AxisDP] != 0 {
		t.Fatal("degenerate axes must contribute no comm time")
	}
}

func TestAnalyzeOnRejectsOverfullTopology(t *testing.T) {
	machine := hw.Frontier()
	cal := DefaultCalibration()
	shape := Shapes["7B"]
	wl := ReferenceWorkload(256)
	strat := Strategy{Method: MethodDCHAG, TP: 8, DP: 4, Kind: core.KindLinear}
	if _, err := AnalyzeOn(shape, wl, strat, machine, dist.Frontier(2), cal); err == nil {
		t.Fatal("32 ranks on 2 nodes must be rejected")
	}
	if _, err := AnalyzeOn(shape, wl, strat, machine, dist.Topology{}, cal); err == nil {
		t.Fatal("malformed topology must be rejected")
	}
	if _, err := AnalyzeOn(shape, wl, strat, machine, dist.Frontier(4), cal); err != nil {
		t.Fatalf("exact-fit topology rejected: %v", err)
	}
}

func TestSpreadPlacementSlowsFSDP(t *testing.T) {
	// The same strategy on more nodes than it needs: with TP*FSDP = 16 the
	// FSDP axis crosses nodes either way, but a dense two-node placement
	// keeps TP intra-node while a one-rank-per-node topology would not.
	machine := hw.Frontier()
	cal := DefaultCalibration()
	shape := Shapes["7B"]
	wl := ReferenceWorkload(256)
	strat := Strategy{Method: MethodDCHAG, TP: 2, FSDP: 2, Kind: core.KindLinear}
	dense, err := AnalyzeOn(shape, wl, strat, machine, dist.Frontier(1), cal)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := AnalyzeOn(shape, wl, strat, machine, dist.Topology{Nodes: 4, GPUsPerNode: 1}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if !(spread.AxisCommSeconds[dist.AxisTP] > dense.AxisCommSeconds[dist.AxisTP]) {
		t.Fatal("one-rank-per-node placement must slow the TP axis")
	}
	if !(spread.AxisCommSeconds[dist.AxisFSDP] > dense.AxisCommSeconds[dist.AxisFSDP]) {
		t.Fatal("one-rank-per-node placement must slow the FSDP axis")
	}
	if spread.ComputeSeconds != dense.ComputeSeconds {
		t.Fatal("placement must not change compute time")
	}
	// Per-node throughput divides by the nodes the world occupies: 1 on the
	// dense Frontier node, 4 on the one-rank-per-node topology.
	if !(dense.TFLOPsPerSecPerNode() > 3*spread.TFLOPsPerSecPerNode()) {
		t.Fatalf("spread placement must not inflate per-node throughput: dense %.1f spread %.1f",
			dense.TFLOPsPerSecPerNode(), spread.TFLOPsPerSecPerNode())
	}
}
