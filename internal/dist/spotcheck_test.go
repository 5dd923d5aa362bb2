package dist

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/tensor"
)

// The RunMesh-backed spot-check: run real per-axis collectives at small
// scale and hold the measured pricing — Mesh.AxisWireSeconds over the
// traffic the ledgers actually recorded — against the analytic
// per-collective predictions priced on MeshSpec.WorstAxisPlacement. The two paths share the machine model but
// nothing else: one replays measured per-rank ring bytes through the
// placement's slowest link, the other applies the textbook ring step
// counts to the intended buffer sizes. Their per-axis *ratios* must agree
// within a tolerance band (latency terms and ring accounting differ
// slightly), which is what validates the simulator's axis pricing against
// a functional run.

func TestRunMeshAxisWireSecondsTrackAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("RunMesh spot-check skipped under -short")
	}
	machine := hw.Frontier()
	spec := MeshSpec{TP: 2, FSDP: 2, DP: 2}
	// Two 4-GCD nodes: TP groups ({r, r+1}) and FSDP groups ({r, r+2})
	// stay intra-node, DP groups ({r, r+4}) stride across the node
	// boundary — all three link classifications are exercised.
	topo := Topology{Nodes: 2, GPUsPerNode: 4}

	// Distinct per-axis buffer sizes so the ratios are nontrivial. Large
	// enough (4-16 MB) that the analytic latency terms are small against
	// the transfer terms (the tolerance band absorbs the rest).
	const (
		tpElems = 1 << 18
		fsElems = 1 << 19
		dpElems = 1 << 20
	)
	mesh, err := RunMesh(spec, topo, func(rank int, m *Mesh) error {
		// One TP AllReduce (activation sync), one FSDP AllGather + one
		// FSDP ReduceScatter (parameter gather + gradient shard), one DP
		// AllReduce (gradient sync) — a miniature training step.
		m.Comm(AxisTP, rank).AllReduceInto(tensor.New(tpElems), tensor.Ones(tpElems))
		m.Comm(AxisFSDP, rank).AllGatherEach(tensor.Ones(fsElems), func(int, *tensor.Tensor) {})
		m.Comm(AxisFSDP, rank).ReduceScatterSum(tensor.Ones(2, fsElems), 0)
		m.Comm(AxisDP, rank).AllReduceInto(tensor.New(dpElems), tensor.Ones(dpElems))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the placements split exactly as Frontier packing predicts.
	if !WorstAxisPlacement(spec, topo, AxisTP).IntraNode() {
		t.Fatal("TP groups must be intra-node on 4-GCD nodes")
	}
	if !WorstAxisPlacement(spec, topo, AxisFSDP).IntraNode() {
		t.Fatal("FSDP groups must be intra-node on 4-GCD nodes")
	}
	if WorstAxisPlacement(spec, topo, AxisDP).IntraNode() {
		t.Fatal("DP groups must cross the node boundary")
	}

	// Measured side: the wire seconds of the traffic each axis recorded.
	var measured [NumAxes]float64
	for a := Axis(0); a < numAxes; a++ {
		measured[a] = mesh.AxisWireSeconds(machine, a)
		if measured[a] <= 0 {
			t.Fatalf("axis %s recorded no wire time", a)
		}
	}

	// Analytic side: the same collectives priced by the hw ring cost
	// functions on each axis's worst placement (8 bytes per float64
	// element on the simulated wire).
	const b = 8
	analytic := [NumAxes]float64{
		AxisTP:   machine.AllReduceTimeOn(WorstAxisPlacement(spec, topo, AxisTP), tpElems*b),
		AxisFSDP: machine.AllGatherTimeOn(WorstAxisPlacement(spec, topo, AxisFSDP), fsElems*b) + machine.ReduceScatterTimeOn(WorstAxisPlacement(spec, topo, AxisFSDP), 2*fsElems*b),
		AxisDP:   machine.AllReduceTimeOn(WorstAxisPlacement(spec, topo, AxisDP), dpElems*b),
	}

	// The measured/analytic *ratios* across every axis pair must agree
	// within the tolerance band.
	const tol = 0.25
	for _, pair := range [][2]Axis{{AxisDP, AxisTP}, {AxisDP, AxisFSDP}, {AxisFSDP, AxisTP}} {
		m := measured[pair[0]] / measured[pair[1]]
		a := analytic[pair[0]] / analytic[pair[1]]
		if rel := math.Abs(m/a - 1); rel > tol {
			t.Fatalf("%s/%s ratio: measured %.3f vs analytic %.3f (off by %.0f%%, tolerance %.0f%%)",
				pair[0], pair[1], m, a, 100*rel, 100*tol)
		}
	}

	// The inter-node DP axis must be charged the bandwidth disadvantage:
	// per-byte it runs IntraBW/InterBWPerGPU times slower than TP.
	bwRatio := machine.IntraBW / machine.InterBWPerGPU
	perRank := func(a Axis) float64 {
		return float64(mesh.AxisBytes(a)) / float64(spec.World())
	}
	perByteDP := measured[AxisDP] / perRank(AxisDP)
	perByteTP := measured[AxisTP] / perRank(AxisTP)
	if rel := math.Abs(perByteDP/perByteTP/bwRatio - 1); rel > tol {
		t.Fatalf("DP/TP per-byte slowdown %.2f, want the %.2fx link ratio (off by %.0f%%)",
			perByteDP/perByteTP, bwRatio, 100*rel)
	}
}

// TestRunMeshSpotCheckScalesWithBytes pins that the measured axis pricing
// is linear in traffic volume: doubling every collective's payload doubles
// each axis's wire seconds (the ledgers are volume-true, not call-counted).
func TestRunMeshSpotCheckScalesWithBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("RunMesh spot-check skipped under -short")
	}
	machine := hw.Frontier()
	spec := MeshSpec{TP: 2, FSDP: 2, DP: 2}
	topo := Topology{Nodes: 2, GPUsPerNode: 4}
	run := func(elems int) [NumAxes]float64 {
		mesh, err := RunMesh(spec, topo, func(rank int, m *Mesh) error {
			for a := Axis(0); a < numAxes; a++ {
				m.Comm(a, rank).AllReduceInto(tensor.New(elems), tensor.Ones(elems))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var out [NumAxes]float64
		for a := Axis(0); a < numAxes; a++ {
			out[a] = mesh.AxisWireSeconds(machine, a)
		}
		return out
	}
	one, two := run(1<<12), run(1<<13)
	for a := Axis(0); a < numAxes; a++ {
		if got, want := two[a], 2*one[a]; math.Abs(got/want-1) > 1e-9 {
			t.Fatalf("axis %s: doubling payload scaled wire time by %.4f, want 2.0", a, got/one[a])
		}
	}
}
