package dist

import (
	"testing"
)

// specGrid is the mesh-shape grid the property tests sweep: degenerate
// single-axis shapes, the paper's hybrid configurations, and uneven mixes.
var specGrid = []MeshSpec{
	{TP: 1, FSDP: 1, DP: 1},
	{TP: 2, FSDP: 1, DP: 1},
	{TP: 1, FSDP: 3, DP: 1},
	{TP: 1, FSDP: 1, DP: 4},
	{TP: 2, FSDP: 1, DP: 2},
	{TP: 2, FSDP: 2, DP: 2},
	{TP: 2, FSDP: 4, DP: 2},
	{TP: 4, FSDP: 2, DP: 3},
	{TP: 8, FSDP: 1, DP: 2},
	{TP: 2, FSDP: 3, DP: 5},
}

func TestRankCoordBijection(t *testing.T) {
	for _, spec := range specGrid {
		seen := make(map[Coord]bool, spec.World())
		for r := 0; r < spec.World(); r++ {
			c := spec.CoordOf(r)
			if c.TP < 0 || c.TP >= spec.TP || c.FSDP < 0 || c.FSDP >= spec.FSDP || c.DP < 0 || c.DP >= spec.DP {
				t.Fatalf("%+v: CoordOf(%d) = %+v out of range", spec, r, c)
			}
			if seen[c] {
				t.Fatalf("%+v: coord %+v produced twice", spec, c)
			}
			seen[c] = true
			if back := spec.RankOf(c); back != r {
				t.Fatalf("%+v: RankOf(CoordOf(%d)) = %d", spec, r, back)
			}
		}
		if len(seen) != spec.World() {
			t.Fatalf("%+v: %d distinct coords for world %d", spec, len(seen), spec.World())
		}
	}
}

func TestRankOfCoversAllRanks(t *testing.T) {
	for _, spec := range specGrid {
		seen := make(map[int]bool, spec.World())
		for tp := 0; tp < spec.TP; tp++ {
			for f := 0; f < spec.FSDP; f++ {
				for dp := 0; dp < spec.DP; dp++ {
					r := spec.RankOf(Coord{TP: tp, FSDP: f, DP: dp})
					if r < 0 || r >= spec.World() || seen[r] {
						t.Fatalf("%+v: RankOf(%d,%d,%d) = %d invalid or duplicate", spec, tp, f, dp, r)
					}
					seen[r] = true
				}
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for _, bad := range []MeshSpec{{}, {TP: 0, FSDP: 1, DP: 1}, {TP: 2, FSDP: -1, DP: 1}, {TP: 1, FSDP: 1, DP: 0}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %+v should not validate", bad)
		}
	}
	if err := (MeshSpec{TP: 2, FSDP: 2, DP: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoordAndRankRangePanics(t *testing.T) {
	spec := MeshSpec{TP: 2, FSDP: 2, DP: 2}
	for _, bad := range []int{-1, spec.World()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CoordOf(%d) should panic", bad)
				}
			}()
			spec.CoordOf(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RankOf out-of-range coord should panic")
			}
		}()
		spec.RankOf(Coord{TP: 2, FSDP: 0, DP: 0})
	}()
}

// TestGroupDisjointnessAndCoverage checks that along every axis the groups
// partition the world: each rank appears in exactly one group, group sizes
// equal the axis extent, and a rank's communicator rank equals its
// coordinate along the axis.
func TestGroupDisjointnessAndCoverage(t *testing.T) {
	for _, spec := range specGrid {
		topo := Topology{Nodes: 1, GPUsPerNode: spec.World()}
		m, err := NewMesh(spec, topo)
		if err != nil {
			t.Fatal(err)
		}
		for a := Axis(0); a < numAxes; a++ {
			seen := make(map[int]bool, spec.World())
			for gid := 0; gid < m.GroupCount(a); gid++ {
				ranks := m.axes[a].members[gid]
				if len(ranks) != spec.extent(a) {
					t.Fatalf("%+v axis %s: group %d size %d, want %d", spec, a, gid, len(ranks), spec.extent(a))
				}
				for pos, r := range ranks {
					if seen[r] {
						t.Fatalf("%+v axis %s: rank %d in two groups", spec, a, r)
					}
					seen[r] = true
					if m.axes[a].groupOf[r] != gid {
						t.Fatalf("%+v axis %s: groupOf[%d] = %d, want %d", spec, a, r, m.axes[a].groupOf[r], gid)
					}
					c := m.Comm(a, r)
					if c.Rank() != pos || c.Rank() != spec.CoordOf(r).axisOf(a) {
						t.Fatalf("%+v axis %s: rank %d comm rank %d, want coord %d",
							spec, a, r, c.Rank(), spec.CoordOf(r).axisOf(a))
					}
				}
			}
			if len(seen) != spec.World() {
				t.Fatalf("%+v axis %s: groups cover %d of %d ranks", spec, a, len(seen), spec.World())
			}
		}
	}
}

// TestGroupMembersAgreeOnOtherAxes checks group semantics directly: two
// ranks share an axis group exactly when they agree on both other
// coordinates.
func TestGroupMembersAgreeOnOtherAxes(t *testing.T) {
	spec := MeshSpec{TP: 2, FSDP: 3, DP: 2}
	m, err := NewMesh(spec, Topology{Nodes: 1, GPUsPerNode: spec.World()})
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < m.GroupCount(AxisDP); gid++ {
		ranks := m.axes[AxisDP].members[gid]
		first := spec.CoordOf(ranks[0])
		for _, r := range ranks[1:] {
			c := spec.CoordOf(r)
			if c.TP != first.TP || c.FSDP != first.FSDP {
				t.Fatalf("DP group %d mixes coords %+v and %+v", gid, first, c)
			}
		}
	}
}

// TestFrontierPlacementTPIntraNode asserts the placement claim of the
// paper's hybrid composition: under Frontier packing (8 GCDs/node, TP
// fastest-varying) TP groups never cross a node boundary when TP divides
// the node size, while DP groups span nodes whenever the replica footprint
// fills a node.
func TestFrontierPlacementTPIntraNode(t *testing.T) {
	for _, spec := range []MeshSpec{
		{TP: 2, FSDP: 4, DP: 2},
		{TP: 4, FSDP: 2, DP: 2},
		{TP: 8, FSDP: 1, DP: 3},
		{TP: 2, FSDP: 1, DP: 8},
		{TP: 1, FSDP: 8, DP: 2},
	} {
		if spec.World()%8 != 0 || 8%spec.TP != 0 {
			t.Fatalf("bad test spec %+v", spec)
		}
		topo := Frontier(spec.World() / 8)
		m, err := NewMesh(spec, topo)
		if err != nil {
			t.Fatal(err)
		}
		for gid := 0; gid < m.GroupCount(AxisTP); gid++ {
			if !m.GroupIntraNode(AxisTP, gid) {
				t.Fatalf("%+v on %d nodes: TP group %d (ranks %v) crosses nodes",
					spec, topo.Nodes, gid, m.axes[AxisTP].members[gid])
			}
		}
		if spec.TP*spec.FSDP == topo.GPUsPerNode && spec.DP > 1 {
			for gid := 0; gid < m.GroupCount(AxisDP); gid++ {
				if m.GroupIntraNode(AxisDP, gid) {
					t.Fatalf("%+v: DP group %d should span nodes", spec, gid)
				}
			}
		}
	}
}

func TestTopology(t *testing.T) {
	topo := Frontier(3)
	if topo.Nodes != 3 || topo.GPUsPerNode != 8 || topo.GCDs() != 24 {
		t.Fatalf("Frontier(3) = %+v", topo)
	}
	if topo.NodeOf(0) != 0 || topo.NodeOf(7) != 0 || topo.NodeOf(8) != 1 || topo.NodeOf(23) != 2 {
		t.Fatal("NodeOf boundaries wrong")
	}
	if err := (Topology{Nodes: 0, GPUsPerNode: 8}).Validate(); err == nil {
		t.Fatal("zero-node topology should not validate")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NodeOf beyond capacity should panic")
			}
		}()
		topo.NodeOf(24)
	}()
}

func TestAxisString(t *testing.T) {
	if AxisTP.String() != "tp" || AxisFSDP.String() != "fsdp" || AxisDP.String() != "dp" {
		t.Fatal("axis names wrong")
	}
}
