package perfmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Property tests for the overlap composition model (ISSUE satellite):
// structural invariants that must hold for any shape, topology, and overlap
// factors — independent of the calibrated values.

// randomCase draws a random (shape, workload, strategy, topology) tuple
// whose world fits the topology. Topologies range from dense Frontier
// packing to spread placements so axes land both intra- and inter-node.
func randomCase(rng *rand.Rand) (ModelShape, Workload, Strategy, dist.Topology) {
	shape := Shapes[[]string{"100M", "1B", "1.7B", "7B"}[rng.Intn(4)]]
	strat := randomStrategy(rng)
	if shape.Heads%strat.TP != 0 {
		strat.TP = 1
	}
	wl := ReferenceWorkload([]int{128, 256, 512}[rng.Intn(3)])
	wl.MicroBatch = 1 + rng.Intn(4)
	world := strat.World()
	var topo dist.Topology
	switch rng.Intn(3) {
	case 0: // dense Frontier packing
		topo = DefaultTopology(hw.Frontier(), world)
	case 1: // wide nodes: everything intra-node
		topo = dist.Topology{Nodes: 1, GPUsPerNode: world}
	default: // spread: one rank per node, everything inter-node
		topo = dist.Topology{Nodes: world, GPUsPerNode: 1}
	}
	return shape, wl, strat, topo
}

func analyzeWith(t *testing.T, shape ModelShape, wl Workload, strat Strategy, topo dist.Topology, cal Calibration) Report {
	t.Helper()
	r, err := AnalyzeOn(shape, wl, strat, hw.Frontier(), topo, cal)
	if err != nil {
		t.Fatalf("AnalyzeOn(%+v on %+v): %v", strat, topo, err)
	}
	return r
}

func TestOverlapZeroFactorIsSerialBitForBit(t *testing.T) {
	// Overlap factor 0 must reproduce the pre-overlap serial numbers
	// bit-for-bit: exposed == comm per axis and step == compute + comm,
	// with float equality, not tolerance.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		shape, wl, strat, topo := randomCase(rng)
		cal := DefaultCalibration()
		cal.Overlap = Overlap{}
		r := analyzeWith(t, shape, wl, strat, topo, cal)
		if r.AxisExposedSeconds != r.AxisCommSeconds {
			return false
		}
		if r.ExposedCommSeconds != r.CommSeconds {
			return false
		}
		return r.StepSeconds() == r.SerialStepSeconds() &&
			r.StepSeconds() == r.ComputeSeconds+r.CommSeconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapStepBounds(t *testing.T) {
	// For random shapes/topologies and random factors, the overlapped step
	// time is >= max(compute, total comm) and <= the serial composition,
	// and every axis's exposed time stays within [0, its comm time].
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		shape, wl, strat, topo := randomCase(rng)
		cal := DefaultCalibration()
		cal.Overlap = Overlap{
			FSDP: float64(rng.Intn(101)) / 100,
			DP:   float64(rng.Intn(101)) / 100,
		}
		r := analyzeWith(t, shape, wl, strat, topo, cal)
		step, serial := r.StepSeconds(), r.SerialStepSeconds()
		if step > serial+1e-12 {
			t.Logf("step %v exceeds serial %v (%+v)", step, serial, strat)
			return false
		}
		lower := r.ComputeSeconds
		if r.CommSeconds > lower {
			lower = r.CommSeconds
		}
		if step < lower-1e-12 {
			t.Logf("step %v below max(compute %v, comm %v) (%+v)", step, r.ComputeSeconds, r.CommSeconds, strat)
			return false
		}
		for _, a := range []dist.Axis{dist.AxisTP, dist.AxisFSDP, dist.AxisDP} {
			if r.AxisExposedSeconds[a] < 0 || r.AxisExposedSeconds[a] > r.AxisCommSeconds[a]+1e-12 {
				t.Logf("axis %s exposed %v outside [0, %v]", a, r.AxisExposedSeconds[a], r.AxisCommSeconds[a])
				return false
			}
		}
		// TP is on the critical path under every factor choice.
		return r.AxisExposedSeconds[dist.AxisTP] == r.AxisCommSeconds[dist.AxisTP]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapExposedMonotoneInFactor(t *testing.T) {
	// Exposed comm is monotonically non-increasing in each overlap factor:
	// raising a factor can only hide more (or hit its window/budget cap),
	// both per axis and in total.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		shape, wl, strat, topo := randomCase(rng)
		base := DefaultCalibration()
		steps := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
		// Sweep the FSDP factor at a fixed random DP factor, then vice
		// versa.
		otherDP := float64(rng.Intn(101)) / 100
		prevAxis, prevTotal := -1.0, -1.0
		for _, fv := range steps {
			cal := base
			cal.Overlap = Overlap{FSDP: fv, DP: otherDP}
			r := analyzeWith(t, shape, wl, strat, topo, cal)
			if prevAxis >= 0 && r.AxisExposedSeconds[dist.AxisFSDP] > prevAxis+1e-12 {
				return false
			}
			if prevTotal >= 0 && r.ExposedCommSeconds > prevTotal+1e-12 {
				return false
			}
			prevAxis, prevTotal = r.AxisExposedSeconds[dist.AxisFSDP], r.ExposedCommSeconds
		}
		otherFSDP := float64(rng.Intn(101)) / 100
		prevAxis, prevTotal = -1.0, -1.0
		for _, fv := range steps {
			cal := base
			cal.Overlap = Overlap{FSDP: otherFSDP, DP: fv}
			r := analyzeWith(t, shape, wl, strat, topo, cal)
			if prevAxis >= 0 && r.AxisExposedSeconds[dist.AxisDP] > prevAxis+1e-12 {
				return false
			}
			if prevTotal >= 0 && r.ExposedCommSeconds > prevTotal+1e-12 {
				return false
			}
			prevAxis, prevTotal = r.AxisExposedSeconds[dist.AxisDP], r.ExposedCommSeconds
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapBudgetSharedAcrossAxes(t *testing.T) {
	// The hidden time across all axes can never exceed the compute budget:
	// comm hiding is a shared resource, not per-axis. Exercised where comm
	// dwarfs compute (spread topology, large FSDP/DP factors).
	shape := Shapes["7B"]
	wl := ReferenceWorkload(500)
	wl.MicroBatch = 1
	strat := Strategy{Method: MethodDCHAG, TP: 2, FSDP: 4, DP: 2, Kind: core.KindLinear}
	topo := dist.Topology{Nodes: 16, GPUsPerNode: 1}
	cal := DefaultCalibration()
	cal.Overlap = Overlap{FSDP: 1, DP: 1}
	r := analyzeWith(t, shape, wl, strat, topo, cal)
	hidden := r.CommSeconds - r.ExposedCommSeconds
	if hidden > r.ComputeSeconds+1e-12 {
		t.Fatalf("hidden comm %v exceeds the compute budget %v", hidden, r.ComputeSeconds)
	}
	if r.StepSeconds() < r.CommSeconds-1e-12 {
		t.Fatalf("step %v below total comm %v: overlap invented bandwidth", r.StepSeconds(), r.CommSeconds)
	}
}
