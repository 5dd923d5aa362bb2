package hw

import (
	"math"
	"testing"
)

func TestContiguousPlacement(t *testing.T) {
	m := Frontier()
	// Node-aligned group of a node's width stays on one node.
	if p := m.ContiguousPlacement(0, 8); !p.IntraNode() || p.NodeSpan() != 1 || p.InterHops() != 0 {
		t.Fatalf("aligned 8-rank group should be intra-node, got %v", p)
	}
	// The same size starting mid-node straddles the boundary.
	p := m.ContiguousPlacement(4, 8)
	if p.IntraNode() || p.NodeSpan() != 2 {
		t.Fatalf("unaligned 8-rank group must span two nodes, got %v", p)
	}
	// Hops: one crossing inside the ring, plus the wraparound back.
	if p.InterHops() != 2 {
		t.Fatalf("unaligned group must have 2 inter-node hops, got %d (%v)", p.InterHops(), p)
	}
	if !m.ContiguousPlacement(4, 2).IntraNode() {
		t.Fatal("small mid-node group stays intra-node")
	}
}

func TestRingLinkSlowestHop(t *testing.T) {
	m := Frontier()
	if bw, lat := m.RingLink(Placement{0, 0, 0, 0}); bw != m.IntraBW || lat != m.LatIntra {
		t.Fatal("all-intra ring must use the Infinity Fabric link")
	}
	// A single boundary crossing is enough: the lockstep ring waits for it.
	if bw, lat := m.RingLink(Placement{0, 0, 1, 1}); bw != m.InterBWPerGPU || lat != m.LatInter {
		t.Fatal("mixed ring must be priced by its slowest (inter-node) link")
	}
	if bw, _ := m.RingLink(Placement{0}); bw != m.IntraBW {
		t.Fatal("trivial placement is intra-node")
	}
}

func TestPlacedCollectiveTimes(t *testing.T) {
	m := Frontier()
	intra := m.ContiguousPlacement(0, 8)
	inter := m.ContiguousPlacement(4, 8)
	bytes := int64(1 << 24)
	// Same group size, same bytes: crossing the boundary is strictly slower.
	if !(m.AllReduceTimeOn(inter, bytes) > m.AllReduceTimeOn(intra, bytes)) {
		t.Fatal("inter-node ring must be slower than an equal-size intra-node ring")
	}
	// Placement-priced times are the ring formulas on the placement's link:
	// steps x (latency + chunk / bandwidth).
	b := float64(bytes)
	if got, want := m.AllGatherTimeOn(intra, bytes), 7*m.LatIntra+7*b/m.IntraBW; got != want {
		t.Fatalf("intra all-gather = %v, want %v on the intra link", got, want)
	}
	if got, want := m.AllReduceTimeOn(inter, bytes), 14*m.LatInter+14*(b/8)/m.InterBWPerGPU; got != want {
		t.Fatalf("boundary-crossing all-reduce = %v, want %v on the inter link", got, want)
	}
	if got, want := m.ReduceScatterTimeOn(inter, bytes), 7*m.LatInter+7*(b/8)/m.InterBWPerGPU; got != want {
		t.Fatalf("boundary-crossing reduce-scatter = %v, want %v on the inter link", got, want)
	}
	// Trivial groups are free.
	if m.AllGatherTimeOn(Placement{0}, bytes) != 0 || m.AllReduceTimeOn(Placement{3}, bytes) != 0 {
		t.Fatal("single-rank collectives are free")
	}
	// Ring identity holds for placed pricing too.
	ar := m.AllReduceTimeOn(inter, bytes)
	rsag := m.ReduceScatterTimeOn(inter, bytes) + m.AllGatherTimeOn(inter, bytes/8)
	if math.Abs(ar-rsag)/ar > 0.01 {
		t.Fatalf("ring identity violated on placement: AR=%v RS+AG=%v", ar, rsag)
	}
}

func TestWireTime(t *testing.T) {
	m := Frontier()
	intra := Placement{0, 0}
	inter := Placement{0, 1}
	if got := m.WireTime(intra, 1<<20); got != float64(1<<20)/m.IntraBW {
		t.Fatalf("intra wire time = %v", got)
	}
	if !(m.WireTime(inter, 1<<20) > m.WireTime(intra, 1<<20)) {
		t.Fatal("inter-node wire time must exceed intra-node at equal bytes")
	}
	if m.WireTime(Placement{0}, 1<<20) != 0 {
		t.Fatal("single-rank groups put nothing on the wire")
	}
}
