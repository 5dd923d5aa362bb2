package train

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
)

// setMeshObserver installs per-axis comm observers for the tracer's rows
// (one row per world rank). A nil tracer installs nothing, keeping the
// disabled path free of observer calls entirely.
func setMeshObserver(m *dist.Mesh, tr *obs.Tracer) {
	if tr == nil {
		return
	}
	m.SetObserver(func(a dist.Axis, rank int) comm.Observer {
		return obs.NewCommObserver(tr.Rank(rank), obs.CommCat(a.String()))
	})
}

// runMesh is every entry point: it builds the g.TP×1×g.DP mesh, gives each
// world rank a worker over the model rankModel returns for the rank's TP
// communicator, and runs them up to global step g.End from g.From (the
// workers derive the first step from the restore source, so g.Start is the
// caller's to validate). arch names the logical model the restore source is
// checked against. The history is world rank 0's and is valid up to the
// last completed step even when the run fails; the mesh is nil when the
// restore source is refused (checkRestore, before any rank starts) or the
// mesh could not be built.
func runMesh(arch model.Arch, opts Options, g GenSpec, rankModel func(tpc *comm.Communicator) *model.FoundationModel, boundary func(rank, step int, tree ckpt.Tree), batch BatchFn) (History, *dist.Mesh, error) {
	var hist History
	// Every rank's stage takes one partition per TP rank when the
	// architecture leaves the count unset.
	partitions := arch.Partitions
	if partitions == 0 {
		partitions = g.TP
	}
	if err := checkRestore(g.From, arch, partitions); err != nil {
		return hist, nil, err
	}
	spec := dist.MeshSpec{TP: g.TP, FSDP: 1, DP: g.DP}
	// Frontier-shaped placement when the world fills nodes evenly; otherwise
	// a single "node" wide enough for the whole group (the functional layer
	// only uses the topology for placement metadata).
	topo := dist.Topology{Nodes: 1, GPUsPerNode: spec.World()}
	if spec.World() > 8 && spec.World()%8 == 0 {
		topo = dist.Frontier(spec.World() / 8)
	}
	mesh, err := dist.NewMesh(spec, topo)
	if err != nil {
		return hist, nil, err
	}
	if g.Fault != nil {
		mesh.SetFaultInjector(g.Fault)
	}
	setMeshObserver(mesh, opts.Trace)
	err = mesh.Run(func(rank int, m *dist.Mesh) error {
		w := worker{
			m:   rankModel(m.TPComm(rank)),
			tpc: m.TPComm(rank), dpc: m.DPComm(rank),
			rank: rank, coord: m.Spec.CoordOf(rank),
			from: g.From, end: g.End,
			row: opts.Trace.Rank(rank), hist: &hist,
			fault: g.Fault, boundary: boundary,
		}
		return w.train(opts, batch)
	})
	return hist, mesh, err
}

// distributedModel builds each rank's D-CHAG model shard of arch on the
// rank's TP communicator.
func distributedModel(arch model.Arch, tpViT bool) func(*comm.Communicator) *model.FoundationModel {
	return func(tpc *comm.Communicator) *model.FoundationModel { return model.NewDistributed(arch, tpc, tpViT) }
}

// Hybrid trains with the paper's Sec. 3.4 composition on the device mesh:
// every data-parallel replica is a D-CHAG (= TP) group of tp ranks holding a
// channel shard of its replica's batch shard; gradients are averaged across
// the DP groups at the end of each backward pass (the single inter-node
// AllReduce the paper's Sec. 6.3 describes).
//
// The returned history holds world-rank-0's view: the DP-mean loss per step.
// The trajectory follows model.NewSerialDCHAGEquivalent(arch, tp) trained
// on the full batch by SerialCheckpointed — bit for bit at 1×1, which is
// the serial run, and to round-off on larger meshes — which the tests
// assert.
func Hybrid(arch model.Arch, tp, dp int, tpViT bool, opts Options, batch BatchFn) (History, *dist.Mesh, error) {
	return trainOn(arch, tp, dp, opts, distributedModel(arch, tpViT), batch)
}

// trainOn is Hybrid with each rank's model from rankModel: it validates the
// shape and options, opens the restore source and runs the whole step range.
// A failed run's history holds the steps it completed.
func trainOn(arch model.Arch, tp, dp int, opts Options, rankModel func(*comm.Communicator) *model.FoundationModel, batch BatchFn) (History, *dist.Mesh, error) {
	if err := opts.validate(tp, dp); err != nil {
		return History{}, nil, err
	}
	// One read-only Checkpoint shared by all rank goroutines.
	ck, err := openRestore(opts)
	if err != nil {
		return History{}, nil, err
	}
	hist, mesh, err := runMesh(arch, opts, GenSpec{TP: tp, DP: dp, End: opts.Steps, From: ck}, rankModel, nil, batch)
	if err != nil {
		return hist, mesh, fmt.Errorf("train: mesh run failed: %w", err)
	}
	return hist, mesh, nil
}
