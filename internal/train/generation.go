package train

import (
	"encoding/json"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/model"
)

// GenSpec describes one elastic generation: a contiguous [Start, End) slice
// of the global step range run at a fixed TP×DP shape, optionally restored
// from a checkpoint (in-memory reshard or disk restore — both arrive here
// as a *ckpt.Checkpoint). It is also how every mesh run is described to the
// step engine: Hybrid is the generation [restored step, Options.Steps) with
// no fault plan and no snapshots.
type GenSpec struct {
	TP, DP int
	// Start and End bound the generation's global steps: [Start, End).
	// End may stop short of Options.Steps (an explicit resize boundary).
	Start, End int
	// From is the restore source — the only one a generation has, restored
	// in full (weights, moments, step). It is required when Start > 0 and
	// its manifest step must equal Start; nil trains from fresh state.
	From *ckpt.Checkpoint
	// Fault, when non-nil, is installed on every mesh communicator and
	// consulted at the step-top and checkpoint hooks.
	Fault *faultinject.Plan
	TPViT bool
}

// GenResult is one generation's outcome. Err carries the mesh run error
// (a *dist.MeshError on rank failure); Hist holds world-rank-0's per-step
// DP-mean losses for the steps the generation completed. Trees[r] is rank
// r's last step-boundary state snapshot and Boundary[r] the global step it
// was taken at (-1 if rank r never snapshotted) — the raw material for
// in-memory resharding: because the collectives are rendezvous-synchronous,
// every surviving rank's last boundary snapshot is from the same step.
type GenResult struct {
	Hist     History
	Mesh     *dist.Mesh
	Err      error
	Trees    []ckpt.Tree
	Boundary []int
}

// AssembleBoundary builds an in-memory restore source from per-rank state
// trees snapshotted at the same global step boundary — the elastic
// supervisor's zero-I/O reshard path. The trees must jointly cover every
// logical tensor (which rank deaths can break); incomplete coverage is an
// error, and the caller falls back to the last committed checkpoint.
func AssembleBoundary(arch model.Arch, partitions, step int, trees []ckpt.Tree) (*ckpt.Checkpoint, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("train: assemble boundary with no trees")
	}
	archJSON, err := json.Marshal(arch)
	if err != nil {
		return nil, fmt.Errorf("train: encode arch: %w", err)
	}
	man := ckpt.Manifest{
		Format:     ckpt.Format,
		World:      len(trees),
		Partitions: partitions,
		Step:       step,
		OptAlgo:    trees[0].OptAlgo,
		Meta:       map[string]string{ckpt.MetaStage: stageDCHAG, ckpt.MetaArch: string(archJSON)},
	}
	return ckpt.Assemble(man, trees)
}

// validate is the shared shape and option validation plus what only a
// generation can get wrong: its step range and its restore source.
func (g GenSpec) validate(opts Options) error {
	if err := opts.validate(g.TP, g.DP); err != nil {
		return err
	}
	if opts.Resume || opts.InitFrom != "" {
		return fmt.Errorf("train: a generation restores from GenSpec.From; Options.Resume/InitFrom would be ignored")
	}
	if g.Start < 0 || g.Start >= g.End || g.End > opts.Steps {
		return fmt.Errorf("train: generation step range [%d,%d) outside [0,%d)", g.Start, g.End, opts.Steps)
	}
	// Start > 0 needs a restore source; Start == 0 admits one too — an
	// in-memory reshard at the step-0 boundary after a very early failure.
	if g.Start > 0 && g.From == nil {
		return fmt.Errorf("train: generation start %d without a restore source", g.Start)
	}
	if g.From != nil && g.From.Manifest.Step != g.Start {
		return fmt.Errorf("train: restore source at step %d, generation starts at %d", g.From.Manifest.Step, g.Start)
	}
	return nil
}

// RunGeneration runs one elastic generation of hybrid (TP×DP) training: the
// step engine every other entry point runs, over [g.Start, g.End) with g.From
// as the restore source, so a generation restored from a checkpoint continues
// bitwise exactly like an uninterrupted run at the same shape. It adds the
// two things only elasticity needs — the fault plan, threaded through the
// mesh and the step's hooks, and every rank's state tree at each step
// boundary (for in-memory resharding).
func RunGeneration(arch model.Arch, opts Options, g GenSpec, batch BatchFn) GenResult {
	if err := g.validate(opts); err != nil {
		return GenResult{Err: err}
	}
	world := g.TP * g.DP
	res := GenResult{Trees: make([]ckpt.Tree, world), Boundary: make([]int, world)}
	for r := range res.Boundary {
		res.Boundary[r] = -1
	}
	// Each rank writes only its own slot; the mesh run's WaitGroup publishes
	// them to the supervisor.
	snapshot := func(rank, step int, tree ckpt.Tree) {
		res.Trees[rank], res.Boundary[rank] = tree, step
	}
	res.Hist, res.Mesh, res.Err = runMesh(arch, opts, g, snapshot, batch)
	return res
}
