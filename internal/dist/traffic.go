package dist

import "repro/internal/comm"

// Per-axis traffic accessors. Every group of an axis keeps its own
// comm.Traffic ledger; these roll the ledgers up and classify each group as
// intra-node (all member ranks placed on one node of the Topology) or
// inter-node (the group's ring crosses a node boundary). They exist so
// tests can assert the paper's communication claims quantitatively: under
// Frontier placement TP traffic stays intra-node and the per-step DP
// gradient AllReduce is the only inter-node collective.

// GroupCount returns the number of groups along the axis
// (world / axis extent).
func (m *Mesh) GroupCount(a Axis) int { return len(m.axes[a].groups) }

// GroupTraffic returns the traffic ledger of the axis group.
func (m *Mesh) GroupTraffic(a Axis, group int) *comm.Traffic {
	return m.axes[a].groups[group].Traffic()
}

// GroupIntraNode reports whether every member of the axis group is placed
// on the same node, i.e. none of the group's collective traffic crosses a
// node boundary.
func (m *Mesh) GroupIntraNode(a Axis, group int) bool {
	members := m.axes[a].members[group]
	node := m.Topo.NodeOf(members[0])
	for _, r := range members[1:] {
		if m.Topo.NodeOf(r) != node {
			return false
		}
	}
	return true
}

// AxisBytes returns the total bytes recorded across all groups of the axis.
func (m *Mesh) AxisBytes(a Axis) int64 {
	var total int64
	for _, g := range m.axes[a].groups {
		total += g.Traffic().TotalBytes()
	}
	return total
}

// IntraNodeBytes returns the axis bytes carried by groups contained within
// a single node.
func (m *Mesh) IntraNodeBytes(a Axis) int64 {
	return m.nodeBytes(a, true)
}

// InterNodeBytes returns the axis bytes carried by groups whose members
// span more than one node.
func (m *Mesh) InterNodeBytes(a Axis) int64 {
	return m.nodeBytes(a, false)
}

func (m *Mesh) nodeBytes(a Axis, intra bool) int64 {
	var total int64
	for gid, g := range m.axes[a].groups {
		if m.GroupIntraNode(a, gid) == intra {
			total += g.Traffic().TotalBytes()
		}
	}
	return total
}

// AxisCallsInPhase returns the total collective calls (excluding barriers)
// recorded under the phase label across all groups of the axis. Each
// participating rank records one call per collective, so a single
// group-wide collective contributes the group size.
func (m *Mesh) AxisCallsInPhase(a Axis, phase string) int {
	total := 0
	for _, g := range m.axes[a].groups {
		total += g.Traffic().CallsInPhase(phase)
	}
	return total
}

// InterNodeCallsInPhase is AxisCallsInPhase restricted to groups spanning
// more than one node.
func (m *Mesh) InterNodeCallsInPhase(a Axis, phase string) int {
	total := 0
	for gid, g := range m.axes[a].groups {
		if !m.GroupIntraNode(a, gid) {
			total += g.Traffic().CallsInPhase(phase)
		}
	}
	return total
}
