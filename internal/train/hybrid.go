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

// runMesh is every distributed entry point: it builds the g.TP×1×g.DP mesh,
// gives each world rank a worker over its D-CHAG model shard, and runs them
// up to global step g.End from g.From (the workers derive the first step
// from the restore source, so g.Start is the caller's to validate). The
// history is world rank 0's and is valid up to the last completed step even
// when the run fails; the mesh is nil when the restore source is refused
// (checkRestore, before any rank starts) or the mesh could not be built.
func runMesh(arch model.Arch, opts Options, g GenSpec, boundary func(rank, step int, tree ckpt.Tree), batch BatchFn) (History, *dist.Mesh, error) {
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
			m:   model.NewDistributed(arch, m.TPComm(rank), g.TPViT),
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

// Hybrid trains with the paper's Sec. 3.4 composition on the device mesh:
// every data-parallel replica is a D-CHAG (= TP) group of tp ranks holding a
// channel shard of its replica's batch shard; gradients are averaged across
// the DP groups at the end of each backward pass (the single inter-node
// AllReduce the paper's Sec. 6.3 describes).
//
// The returned history holds world-rank-0's view: the DP-mean loss per step,
// which equals the serial full-batch loss exactly when batch shards are
// equal — the hybrid trajectory is bit-compatible with
// model.NewSerialDCHAGEquivalent(arch, tp) trained on the full batch, which
// the tests assert.
func Hybrid(arch model.Arch, tp, dp int, tpViT bool, opts Options, batch BatchFn) (History, *dist.Mesh, error) {
	if err := opts.validate(tp, dp); err != nil {
		return History{}, nil, err
	}
	// One read-only Checkpoint shared by all rank goroutines.
	ck, err := openRestore(opts)
	if err != nil {
		return History{}, nil, err
	}
	hist, mesh, err := runMesh(arch, opts, GenSpec{TP: tp, DP: dp, End: opts.Steps, From: ck, TPViT: tpViT}, nil, batch)
	if err != nil {
		return History{}, mesh, fmt.Errorf("train: mesh run failed: %w", err)
	}
	return hist, mesh, nil
}
