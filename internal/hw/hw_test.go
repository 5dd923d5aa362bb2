package hw

import (
	"math"
	"strings"
	"testing"
)

func TestFrontierConstants(t *testing.T) {
	m := Frontier()
	if m.GPUMemBytes != 64<<30 {
		t.Fatalf("GCD memory = %d, want 64 GiB", m.GPUMemBytes)
	}
	if m.GPUsPerNode != 8 {
		t.Fatalf("GPUs per node = %d, want 8 (4x MI250X = 8 GCDs)", m.GPUsPerNode)
	}
	if m.IntraBW <= m.InterBWPerGPU {
		t.Fatal("intra-node Infinity Fabric must be faster than the per-GCD Slingshot share")
	}
	if m.UsableMemBytes() >= m.GPUMemBytes {
		t.Fatal("usable memory must leave allocator headroom")
	}
	if m.SustainedFLOPS() >= m.PeakTFLOPS*1e12 {
		t.Fatal("sustained rate must be below peak")
	}
}

func TestGroupPlacement(t *testing.T) {
	m := Frontier()
	if !m.ContiguousPlacement(0, 8).IntraNode() {
		t.Fatal("8 GCDs fit in one node")
	}
	if m.ContiguousPlacement(0, 16).IntraNode() {
		t.Fatal("16 GCDs span nodes")
	}
}

func TestCollectiveTimesScaleWithSizeAndBytes(t *testing.T) {
	m := Frontier()
	at := func(n int) Placement { return m.ContiguousPlacement(0, n) }
	// Zero for trivial groups.
	if m.AllGatherTimeOn(at(1), 1<<20) != 0 || m.AllReduceTimeOn(at(1), 1<<20) != 0 || m.ReduceScatterTimeOn(at(1), 1<<20) != 0 {
		t.Fatal("single-rank collectives are free")
	}
	// More bytes take longer.
	if !(m.AllGatherTimeOn(at(4), 1<<24) > m.AllGatherTimeOn(at(4), 1<<20)) {
		t.Fatal("AllGather must scale with volume")
	}
	// Crossing the node boundary costs more at equal volume.
	if !(m.AllReduceTimeOn(at(16), 1<<24) > m.AllReduceTimeOn(at(8), 1<<24)) {
		t.Fatal("inter-node all-reduce must cost more than intra-node")
	}
	// AllReduce ~ ReduceScatter + AllGather of the chunks.
	n, bytes := 4, int64(1<<24)
	ar := m.AllReduceTimeOn(at(n), bytes)
	rsag := m.ReduceScatterTimeOn(at(n), bytes) + m.AllGatherTimeOn(at(n), bytes/int64(n))
	if math.Abs(ar-rsag)/ar > 0.01 {
		t.Fatalf("ring identity violated: AR=%v RS+AG=%v", ar, rsag)
	}
}

func TestComputeTimeAndNodes(t *testing.T) {
	m := Frontier()
	if m.ComputeTime(m.SustainedFLOPS()) != 1 {
		t.Fatal("one sustained-second of FLOPs must take one second")
	}
	if m.Nodes(1) != 1 || m.Nodes(8) != 1 || m.Nodes(9) != 2 || m.Nodes(1024) != 128 {
		t.Fatal("node counting wrong")
	}
}

func TestFormatBytes(t *testing.T) {
	if s := FormatBytes(64 << 30); !strings.Contains(s, "64.00 GiB") {
		t.Fatalf("FormatBytes = %q", s)
	}
}
