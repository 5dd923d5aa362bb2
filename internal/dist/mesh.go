// Package dist implements the 3-axis device mesh the paper's Sec. 3.4
// hybrid composition runs on: every world rank has a coordinate along the
// TP (D-CHAG channel-sharding), FSDP and DP axes, and belongs to exactly one
// comm.Group per axis. RunMesh spawns one goroutine per world rank, wires
// the per-axis groups, and hands each rank its Mesh handle.
//
// Rank numbering follows Frontier packing (see DESIGN.md): TP is the
// fastest-varying axis, then FSDP, then DP. Under the Frontier topology
// (8 GCDs per node) this places each TP group — and, when TP*FSDP divides
// the node size, each FSDP group — inside a single node, while DP groups
// stride across nodes; the per-step gradient AllReduce is then the only
// inter-node collective, which the tests assert via the per-axis traffic
// accessors.
package dist

import "fmt"

// MeshSpec is the logical shape of the device mesh: the group size along
// each parallelism axis. World size is the product of the three extents.
type MeshSpec struct {
	// TP is the tensor-parallel (D-CHAG channel group) extent.
	TP int
	// FSDP is the fully-sharded data-parallel extent.
	FSDP int
	// DP is the replicated data-parallel extent.
	DP int
}

// Validate reports whether every axis extent is positive.
func (s MeshSpec) Validate() error {
	if s.TP < 1 || s.FSDP < 1 || s.DP < 1 {
		return fmt.Errorf("dist: invalid mesh spec TP=%d FSDP=%d DP=%d (all extents must be >= 1)", s.TP, s.FSDP, s.DP)
	}
	return nil
}

// World returns the total number of ranks in the mesh.
func (s MeshSpec) World() int { return s.TP * s.FSDP * s.DP }

// Coord is a rank's position along each mesh axis.
type Coord struct {
	TP, FSDP, DP int
}

// CoordOf maps a world rank to its mesh coordinate. TP varies fastest,
// then FSDP, then DP:
//
//	rank = tp + TP*(fsdp + FSDP*dp)
//
// It panics when rank is outside [0, World()).
func (s MeshSpec) CoordOf(rank int) Coord {
	if rank < 0 || rank >= s.World() {
		panic(fmt.Sprintf("dist: rank %d out of range [0,%d)", rank, s.World()))
	}
	return Coord{
		TP:   rank % s.TP,
		FSDP: (rank / s.TP) % s.FSDP,
		DP:   rank / (s.TP * s.FSDP),
	}
}

// RankOf is the inverse of CoordOf. It panics when any coordinate is
// outside its axis extent.
func (s MeshSpec) RankOf(c Coord) int {
	if c.TP < 0 || c.TP >= s.TP || c.FSDP < 0 || c.FSDP >= s.FSDP || c.DP < 0 || c.DP >= s.DP {
		panic(fmt.Sprintf("dist: coord %+v out of range for spec %+v", c, s))
	}
	return c.TP + s.TP*(c.FSDP+s.FSDP*c.DP)
}

// Axis identifies one of the three mesh axes.
type Axis int

// The mesh axes, in rank-layout order (TP fastest-varying).
const (
	AxisTP Axis = iota
	AxisFSDP
	AxisDP
	numAxes
)

// NumAxes is the number of mesh axes, for callers that index per-axis
// arrays by Axis.
const NumAxes = int(numAxes)

// String returns the axis name.
func (a Axis) String() string {
	switch a {
	case AxisTP:
		return "tp"
	case AxisFSDP:
		return "fsdp"
	case AxisDP:
		return "dp"
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// extent returns the spec's group size along the axis.
func (s MeshSpec) extent(a Axis) int {
	switch a {
	case AxisTP:
		return s.TP
	case AxisFSDP:
		return s.FSDP
	case AxisDP:
		return s.DP
	}
	panic(fmt.Sprintf("dist: unknown axis %d", int(a)))
}

// axisOf returns the coordinate's position along the axis.
func (c Coord) axisOf(a Axis) int {
	switch a {
	case AxisTP:
		return c.TP
	case AxisFSDP:
		return c.FSDP
	case AxisDP:
		return c.DP
	}
	panic(fmt.Sprintf("dist: unknown axis %d", int(a)))
}

// groupKeyOf returns the index of the axis group the coordinate belongs to:
// the linearization of the two non-axis coordinates. Ranks share an axis
// group exactly when they agree on every other coordinate.
func (s MeshSpec) groupKeyOf(a Axis, c Coord) int {
	switch a {
	case AxisTP:
		return c.FSDP + s.FSDP*c.DP
	case AxisFSDP:
		return c.TP + s.TP*c.DP
	case AxisDP:
		return c.TP + s.TP*c.FSDP
	}
	panic(fmt.Sprintf("dist: unknown axis %d", int(a)))
}
