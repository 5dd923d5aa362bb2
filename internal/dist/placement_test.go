package dist

import (
	"reflect"
	"testing"

	"repro/internal/hw"
)

func TestAxisGroupRanksMatchMesh(t *testing.T) {
	for _, spec := range specGrid {
		topo := Topology{Nodes: (spec.World() + 3) / 4, GPUsPerNode: 4}
		m, err := NewMesh(spec, topo)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		for _, a := range Axes {
			if got, want := spec.AxisGroupCount(a), m.GroupCount(a); got != want {
				t.Fatalf("%+v axis %s: group count %d, want %d", spec, a, got, want)
			}
			for gid := 0; gid < m.GroupCount(a); gid++ {
				if got, want := spec.AxisGroupRanks(a, gid), m.GroupRanks(a, gid); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v axis %s group %d: ranks %v, want %v", spec, a, gid, got, want)
				}
			}
		}
	}
}

func TestGroupPlacementAgreesWithMeshClassification(t *testing.T) {
	for _, spec := range specGrid {
		for _, gpusPerNode := range []int{2, 4, 8} {
			topo := Topology{Nodes: (spec.World() + gpusPerNode - 1) / gpusPerNode, GPUsPerNode: gpusPerNode}
			m, err := NewMesh(spec, topo)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			for _, a := range Axes {
				for gid := 0; gid < m.GroupCount(a); gid++ {
					p := GroupPlacement(spec, topo, a, gid)
					if p.IntraNode() != m.GroupIntraNode(a, gid) {
						t.Fatalf("%+v on %d-wide nodes, axis %s group %d: placement intra=%v, mesh says %v",
							spec, gpusPerNode, a, gid, p.IntraNode(), m.GroupIntraNode(a, gid))
					}
					if len(p) != spec.extent(a) {
						t.Fatalf("placement length %d, want extent %d", len(p), spec.extent(a))
					}
				}
			}
		}
	}
}

func TestWorstAxisPlacementPicksInterNodeGroup(t *testing.T) {
	// TP=3 on 4-wide nodes: TP group 0 = {0,1,2} (intra), group 1 = {3,4,5}
	// (straddles the boundary). The worst placement must be the straddler.
	spec := MeshSpec{TP: 3, FSDP: 2, DP: 1}
	topo := Topology{Nodes: 2, GPUsPerNode: 4}
	p := WorstAxisPlacement(spec, topo, AxisTP)
	if p.IntraNode() {
		t.Fatalf("worst TP placement should cross nodes, got %v", p)
	}
	if GroupPlacement(spec, topo, AxisTP, 0).IntraNode() != true {
		t.Fatal("group 0 should be intra-node")
	}
	// All-intra axis: worst is simply a representative group.
	spec = MeshSpec{TP: 2, FSDP: 2, DP: 2}
	topo = Frontier(1)
	if !WorstAxisPlacement(spec, topo, AxisTP).IntraNode() {
		t.Fatal("node-local mesh must report intra-node worst placement")
	}
}

func TestFrontierPackingPlacements(t *testing.T) {
	// The paper's packing: TP*FSDP fills a node, DP strides across nodes.
	spec := MeshSpec{TP: 2, FSDP: 4, DP: 8}
	topo := Frontier(8)
	for _, a := range []Axis{AxisTP, AxisFSDP} {
		for gid := 0; gid < spec.AxisGroupCount(a); gid++ {
			if !GroupPlacement(spec, topo, a, gid).IntraNode() {
				t.Fatalf("axis %s group %d must be node-local under Frontier packing", a, gid)
			}
		}
	}
	for gid := 0; gid < spec.AxisGroupCount(AxisDP); gid++ {
		p := GroupPlacement(spec, topo, AxisDP, gid)
		if p.IntraNode() || nodeSpan(p) != 8 {
			t.Fatalf("DP group %d must touch every node, got %v", gid, p)
		}
	}
}

func TestAxisWireSecondsPricesPlacement(t *testing.T) {
	machine := hw.Frontier()
	spec := MeshSpec{TP: 8, FSDP: 1, DP: 2}
	topo := Frontier(2)
	mesh, err := RunMesh(spec, topo, func(rank int, m *Mesh) error {
		// One all-reduce on each axis' communicator records identical bytes
		// on the (intra-node) TP axis and the (inter-node) DP axis.
		m.TPComm(rank).AllReduceScalarSum(1)
		m.DPComm(rank).AllReduceScalarSum(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := mesh.AxisWireSeconds(machine, AxisTP)
	dp := mesh.AxisWireSeconds(machine, AxisDP)
	if tp <= 0 || dp <= 0 {
		t.Fatalf("recorded traffic must price to positive time: tp=%v dp=%v", tp, dp)
	}
	if mesh.AxisWireSeconds(machine, AxisFSDP) != 0 {
		t.Fatal("silent axis must price to zero")
	}
	// The node-local TP axis is priced at the Infinity Fabric rate and the
	// node-striding DP axis at the Slingshot share, exactly.
	tpPerRank := mesh.GroupTraffic(AxisTP, 0).TotalBytes() / int64(spec.TP)
	dpPerRank := mesh.GroupTraffic(AxisDP, 0).TotalBytes() / int64(spec.DP)
	if want := float64(tpPerRank) / machine.IntraBW; tp != want {
		t.Fatalf("TP axis wire time = %v, want intra-priced %v", tp, want)
	}
	if want := float64(dpPerRank) / machine.InterBWPerGPU; dp != want {
		t.Fatalf("DP axis wire time = %v, want inter-priced %v", dp, want)
	}
}

// nodeSpan counts the distinct nodes a placement touches.
func nodeSpan(p hw.Placement) int {
	seen := map[int]bool{}
	for _, n := range p {
		seen[n] = true
	}
	return len(seen)
}
