package dist

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/leakcheck"
	"repro/internal/tensor"
)

// TestRunMeshCommunicatorsWired runs a real mesh program: summing a
// constant over each axis group must yield the axis extent, and summing the
// off-axis coordinates must agree across the group (they are what members
// share).
func TestRunMeshCommunicatorsWired(t *testing.T) {
	leakcheck.Check(t)
	spec := MeshSpec{TP: 2, FSDP: 3, DP: 2}
	m, err := RunMesh(spec, Topology{Nodes: 1, GPUsPerNode: spec.World()}, func(rank int, m *Mesh) error {
		c := m.Spec.CoordOf(rank)
		if got := m.TPComm(rank).AllReduceScalarSum(1); got != float64(spec.TP) {
			return fmt.Errorf("rank %d: TP group size %v", rank, got)
		}
		if got := m.FSDPComm(rank).AllReduceScalarSum(1); got != float64(spec.FSDP) {
			return fmt.Errorf("rank %d: FSDP group size %v", rank, got)
		}
		if got := m.DPComm(rank).AllReduceScalarSum(1); got != float64(spec.DP) {
			return fmt.Errorf("rank %d: DP group size %v", rank, got)
		}
		// Every member of my TP group shares my (FSDP, DP) coordinate, so the
		// group mean of that linearized value must equal my own.
		key := float64(c.FSDP + spec.FSDP*c.DP)
		if got := m.TPComm(rank).AllReduceScalarSum(key) / float64(spec.TP); got != key {
			return fmt.Errorf("rank %d: TP group mixes replicas (mean %v, want %v)", rank, got, key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.World() != spec.World() {
		t.Fatalf("World() = %d", m.World())
	}
}

// TestRunMeshTrafficClaims drives the paper's hybrid communication pattern
// on 2 Frontier nodes and asserts its placement claims quantitatively:
// TP and FSDP collectives stay inside a node, and the per-step DP
// AllReduce is the only inter-node collective.
func TestRunMeshTrafficClaims(t *testing.T) {
	spec := MeshSpec{TP: 2, FSDP: 4, DP: 2} // TP x FSDP fills one node; DP spans the two
	const steps = 3
	m, err := RunMesh(spec, Frontier(spec.World()/8), func(rank int, m *Mesh) error {
		tpc, fc, dpc := m.TPComm(rank), m.FSDPComm(rank), m.DPComm(rank)
		for s := 0; s < steps; s++ {
			tpc.SetPhase("forward")
			tpc.AllGatherEach(tensor.Full(float64(rank), 4), func(int, *tensor.Tensor) {})
			fc.SetPhase("forward")
			fc.AllGatherEach(tensor.Full(1, 4), func(int, *tensor.Tensor) {})
			dpc.SetPhase("dp-sync")
			grads := []*tensor.Tensor{tensor.Full(float64(rank), 8)}
			dpc.AllReduce(grads, grads, 1/float64(spec.DP)) // the mean, in place
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.AxisBytes(AxisTP) == 0 || m.AxisBytes(AxisFSDP) == 0 {
		t.Fatal("intra-node axes moved no bytes; test is vacuous")
	}
	if b := m.InterNodeBytes(AxisTP); b != 0 {
		t.Fatalf("TP moved %d inter-node bytes, want 0", b)
	}
	if b := m.InterNodeBytes(AxisFSDP); b != 0 {
		t.Fatalf("FSDP moved %d inter-node bytes, want 0", b)
	}
	if b := m.IntraNodeBytes(AxisDP); b != 0 {
		t.Fatalf("DP recorded %d intra-node bytes; its groups must span nodes", b)
	}
	if b := m.InterNodeBytes(AxisDP); b == 0 {
		t.Fatal("DP moved no inter-node bytes")
	}
	// One DP AllReduce per rank per step, all of it inter-node, none of it
	// outside the dp-sync phase.
	if got, want := m.InterNodeCallsInPhase(AxisDP, "dp-sync"), steps*spec.World(); got != want {
		t.Fatalf("inter-node dp-sync calls = %d, want %d", got, want)
	}
	if got := m.AxisCallsInPhase(AxisDP, "forward"); got != 0 {
		t.Fatalf("DP axis recorded %d forward-phase calls, want 0", got)
	}
}

// TestRunMeshRankErrorAbortsCollectives is the deadlock-regression test:
// one rank fails while the others are blocked in collectives — including
// collectives on a *different* axis than any group the failing rank shares
// with them — and RunMesh must surface the root-cause error within the
// timeout instead of hanging the survivors at the rendezvous.
func TestRunMeshRankErrorAbortsCollectives(t *testing.T) {
	leakcheck.Check(t)
	spec := MeshSpec{TP: 2, FSDP: 1, DP: 2}
	boom := errors.New("boom: simulated rank failure")
	type result struct {
		m   *Mesh
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := RunMesh(spec, Topology{Nodes: 1, GPUsPerNode: spec.World()}, func(rank int, m *Mesh) error {
			if rank == 0 {
				return boom
			}
			// Rank 2 blocks in rank 0's DP group {0,2}; ranks 1 and 3 form
			// a healthy DP group, complete both AllReduces together, then
			// strand at the TP Barrier waiting on ranks 0 and 2 — a group
			// the failed rank belongs to only transitively. All must be
			// released: the abort cascades group-by-group as each released
			// rank's panic propagates (swallowing it would strand peers).
			m.DPComm(rank).AllReduceScalarSum(1)
			m.DPComm(rank).AllReduceScalarSum(1)
			m.TPComm(rank).Barrier()
			return nil
		})
		done <- result{m, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			t.Fatal("RunMesh returned nil error")
		}
		if !errors.Is(res.err, boom) {
			t.Fatalf("err = %v, want root cause %v", res.err, boom)
		}
		if errors.Is(res.err, comm.ErrAborted) {
			t.Fatalf("err = %v reports the abort cascade, not the root cause", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunMesh deadlocked after a rank error")
	}
}

// TestRunMeshRankPanicRecovered: a panicking rank must abort the mesh and
// be reported, not crash the process or hang the others.
func TestRunMeshRankPanicRecovered(t *testing.T) {
	leakcheck.Check(t)
	spec := MeshSpec{TP: 3, FSDP: 1, DP: 1}
	_, err := RunMesh(spec, Topology{Nodes: 1, GPUsPerNode: spec.World()}, func(rank int, m *Mesh) error {
		if rank == 1 {
			panic("rank one exploded")
		}
		defer func() { recover() }()
		m.TPComm(rank).Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("err = %v, want panic text", err)
	}
}

// TestRunMeshAllAborted: when every surviving rank is released by the
// abort (none swallows the panic), the cascade error is still reported
// rather than a nil error — but the root cause wins when present.
func TestRunMeshAllAborted(t *testing.T) {
	leakcheck.Check(t)
	spec := MeshSpec{TP: 2, FSDP: 1, DP: 1}
	boom := errors.New("root cause")
	_, err := RunMesh(spec, Topology{Nodes: 1, GPUsPerNode: spec.World()}, func(rank int, m *Mesh) error {
		if rank == 0 {
			return boom
		}
		m.TPComm(rank).Barrier() // released by abort; panic propagates to RunMesh's recover
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestRunMeshValidation(t *testing.T) {
	if _, err := RunMesh(MeshSpec{TP: 0, FSDP: 1, DP: 1}, Frontier(1), nil); err == nil {
		t.Fatal("want error for invalid spec")
	}
	if _, err := RunMesh(MeshSpec{TP: 4, FSDP: 4, DP: 1}, Frontier(1), nil); err == nil {
		t.Fatal("want error for world 16 on 8 GCDs")
	}
	if _, err := RunMesh(MeshSpec{TP: 2, FSDP: 1, DP: 1}, Topology{Nodes: 1, GPUsPerNode: 0}, nil); err == nil {
		t.Fatal("want error for invalid topology")
	}
}

// TestRunMeshUnderfilledTopology: a world smaller than the topology is
// allowed (partial allocation of a cluster) and placement still follows
// dense rank order.
func TestRunMeshUnderfilledTopology(t *testing.T) {
	spec := MeshSpec{TP: 2, FSDP: 1, DP: 1}
	m, err := RunMesh(spec, Frontier(2), func(rank int, m *Mesh) error {
		m.TPComm(rank).Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.GroupIntraNode(AxisTP, 0) {
		t.Fatal("2 ranks on 16 GCDs must share node 0")
	}
}
