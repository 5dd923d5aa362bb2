package dist

import (
	"fmt"

	"repro/internal/hw"
)

// The dist→hw bridge: every axis group of a mesh spec, placed on a
// Topology, induces an hw.Placement (the node of each group member, in ring
// order). The hw cost functions price ring collectives from these
// placements, which is how the step-time simulator in internal/perfmodel
// knows that a TP group on one node rides Infinity Fabric while a DP group
// striding across nodes pays the Slingshot share. Everything here is pure
// arithmetic on (MeshSpec, Topology) — no Mesh (and no comm groups) needed,
// so sweeps can price thousands of shapes cheaply.

// AxisGroupCount returns the number of groups along the axis
// (world / axis extent), computed from the spec alone.
func (s MeshSpec) AxisGroupCount(a Axis) int { return s.World() / s.extent(a) }

// AxisGroupRanks returns the world ranks of axis group gid in
// axis-coordinate order, computed from the spec alone. It matches the
// members of a built mesh's group. It panics when gid is out of range.
func (s MeshSpec) AxisGroupRanks(a Axis, gid int) []int {
	if gid < 0 || gid >= s.AxisGroupCount(a) {
		panic(fmt.Sprintf("dist: axis %s group %d out of range [0,%d)", a, gid, s.AxisGroupCount(a)))
	}
	// Invert groupKeyOf: gid linearizes the two non-axis coordinates.
	var base Coord
	switch a {
	case AxisTP:
		base = Coord{FSDP: gid % s.FSDP, DP: gid / s.FSDP}
	case AxisFSDP:
		base = Coord{TP: gid % s.TP, DP: gid / s.TP}
	case AxisDP:
		base = Coord{TP: gid % s.TP, FSDP: gid / s.TP}
	default:
		panic(fmt.Sprintf("dist: unknown axis %d", int(a)))
	}
	ranks := make([]int, s.extent(a))
	for i := range ranks {
		c := base
		switch a {
		case AxisTP:
			c.TP = i
		case AxisFSDP:
			c.FSDP = i
		case AxisDP:
			c.DP = i
		}
		ranks[i] = s.RankOf(c)
	}
	return ranks
}

// GroupPlacement converts one axis group of the spec into the hw ring
// placement induced by the topology: element i is the node hosting the
// group's rank of axis coordinate i. It panics when the spec does not fit
// the topology.
func GroupPlacement(s MeshSpec, t Topology, a Axis, gid int) hw.Placement {
	ranks := s.AxisGroupRanks(a, gid)
	p := make(hw.Placement, len(ranks))
	for i, r := range ranks {
		p[i] = t.NodeOf(r)
	}
	return p
}

// AxisPlacements returns the placements of every group along the axis,
// indexed by group id.
func AxisPlacements(s MeshSpec, t Topology, a Axis) []hw.Placement {
	out := make([]hw.Placement, s.AxisGroupCount(a))
	for gid := range out {
		out[gid] = GroupPlacement(s, t, a, gid)
	}
	return out
}

// WorstAxisPlacement returns the placement of the axis group with the
// slowest ring link — an inter-node group when any group of the axis
// crosses a node boundary, otherwise the first group. Since all groups of
// an axis have equal size and step in lockstep with their peers, the worst
// group's collective time is the axis's collective time.
func WorstAxisPlacement(s MeshSpec, t Topology, a Axis) hw.Placement {
	placements := AxisPlacements(s, t, a)
	for _, p := range placements {
		if !p.IntraNode() {
			return p
		}
	}
	return placements[0]
}

// AxisWireSeconds prices the traffic the axis's groups actually recorded on
// the machine model: each group's mean per-rank wire bytes move through the
// group's slowest link, and the axis time is the slowest group's (groups of
// one axis run concurrently). Latency is not modeled here — this is the
// bandwidth-bound replay of a measured run, complementing the analytic
// per-collective times in internal/perfmodel.
func (m *Mesh) AxisWireSeconds(machine hw.Machine, a Axis) float64 {
	extent := m.Spec.extent(a)
	worst := 0.0
	for gid, g := range m.axes[a].groups {
		perRank := g.Traffic().TotalBytes() / int64(extent)
		if t := machine.WireTime(GroupPlacement(m.Spec, m.Topo, a, gid), perRank); t > worst {
			worst = t
		}
	}
	return worst
}
