// Package elastic is the fault-tolerant training supervisor: it wraps
// hybrid (TP×DP) training in generations, and on a rank failure — or an
// explicit grow/shrink request — re-rendezvouses the survivors at a new
// mesh shape whose TP extent divides the logical partition count, reshards
// the training state, and continues with the LR schedule and mask-RNG
// stream fast-forwarded exactly as a checkpoint resume would.
//
// Resharding prefers the zero-I/O path: every rank snapshots its state tree
// at each step boundary, and because the collectives are rendezvous-
// synchronous, survivors' snapshots are usually from the same boundary; if
// they are consistent and jointly cover every logical tensor (data-parallel
// replication makes this common), the supervisor assembles them in memory
// and loses zero steps. Otherwise it rolls back to the latest committed
// checkpoint (ckpt.OpenLatest) — which is why durable elastic runs want the
// keep-last-k retention layout, where a kill mid-save can never corrupt an
// earlier commit. See DESIGN.md "Elastic training".
package elastic

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/train"
)

// Resize is an explicit shape change: the running generation ends at the
// boundary before executing global step AtStep, and the next one starts
// there at TP×DP.
type Resize struct {
	AtStep int
	TP, DP int
}

// Options configures the supervisor.
type Options struct {
	// TP and DP are the initial mesh shape.
	TP, DP int
	// MinWorld is the smallest world size the supervisor will re-rendezvous
	// at; below it, the run fails with the triggering error. 0 means 1.
	MinWorld int
	// MaxGenerations bounds the number of re-rendezvous attempts (a repeated
	// deterministic failure must not loop forever). 0 means 16.
	MaxGenerations int
	// Plan is the deterministic fault plan threaded through every
	// generation's mesh (nil: no injected faults). The supervisor advances
	// its generation scope before each launch.
	Plan *faultinject.Plan
	// Resizes are explicit shape changes, applied in AtStep order.
	Resizes []Resize
	TPViT   bool
	// Trace, when non-nil, records supervisor lifecycle instants
	// (generation start/end, rank deaths, reshard decisions) on the
	// tracer's last row, while the generations' per-rank rows come from
	// train.Options.Trace — by convention the same tracer sized with
	// rows = initial world + 1 so world ranks and supervisor never share
	// a row.
	Trace *obs.Tracer
}

// Source values recorded per generation: how its initial state was produced.
const (
	SourceFresh      = "fresh"      // random initialization at step 0
	SourceMemory     = "memory"     // in-memory reshard of survivors' boundary snapshots
	SourceCheckpoint = "checkpoint" // restore from the latest committed checkpoint
)

// Generation records one generation's shape and fate.
type Generation struct {
	Gen    int
	TP, DP int
	// Start is the global step the generation began at.
	Start int
	// Source says how the generation's initial state was produced.
	Source string
	// Failed lists the ranks that died during the generation (root causes
	// from dist.FailedRanks); empty when it completed its step range.
	Failed []int
}

// Report is the supervisor's outcome. Loss is indexed by global step; when
// a rollback replays steps, the replayed values overwrite the originals, so
// the final vector is the realized trajectory.
type Report struct {
	Loss        []float64
	Generations []Generation
}

// Run trains arch for opts.Steps steps under elastic supervision. The
// returned Report covers every generation even when Run fails partway.
func Run(arch model.Arch, opts train.Options, eo Options, batch train.BatchFn) (Report, error) {
	rep := Report{Loss: make([]float64, opts.Steps)}
	if eo.TP < 1 || eo.DP < 1 {
		return rep, fmt.Errorf("elastic: invalid initial shape tp=%d dp=%d", eo.TP, eo.DP)
	}
	// Pin the logical partition count to the initial TP extent so every
	// later generation builds the same logical model regardless of its
	// world size (the model default would re-derive it from the group).
	partitions := arch.Partitions
	if partitions == 0 {
		partitions = eo.TP
		arch.Partitions = partitions
	}
	if partitions%eo.TP != 0 {
		return rep, fmt.Errorf("elastic: tp %d does not divide partitions %d", eo.TP, partitions)
	}
	resizes := append([]Resize(nil), eo.Resizes...)
	sort.Slice(resizes, func(i, j int) bool { return resizes[i].AtStep < resizes[j].AtStep })
	for _, rz := range resizes {
		if rz.TP < 1 || rz.DP < 1 || partitions%rz.TP != 0 || opts.Batch%rz.DP != 0 {
			return rep, fmt.Errorf("elastic: invalid resize to tp=%d dp=%d at step %d", rz.TP, rz.DP, rz.AtStep)
		}
	}
	maxGen := eo.MaxGenerations
	if maxGen == 0 {
		maxGen = 16
	}
	tp, dp := eo.TP, eo.DP
	start := 0
	source := SourceFresh
	var from *ckpt.Checkpoint
	if opts.Resume {
		ck, err := ckpt.OpenLatest(opts.CheckpointDir)
		if err != nil {
			return rep, err
		}
		from, start, source = ck, ck.Manifest.Step, SourceCheckpoint
	}
	// The generation loop consumes opts.Resume/InitFrom here; the restore
	// source reaches RunGeneration explicitly via GenSpec.From, and
	// RunGeneration refuses options that name another one.
	opts.Resume = false
	opts.InitFrom = ""
	if opts.Trace == nil {
		opts.Trace = eo.Trace
	}

	// Supervisor lifecycle events land on the tracer's last row, leaving
	// rows [0, world) to the generations' rank goroutines.
	sup := eo.Trace.Rank(eo.Trace.Rows() - 1)
	for gen := 0; gen < maxGen; gen++ {
		end := opts.Steps
		var next *Resize
		for i := range resizes {
			if resizes[i].AtStep > start && resizes[i].AtStep < opts.Steps {
				next = &resizes[i]
				end = resizes[i].AtStep
				break
			}
		}
		if eo.Plan != nil {
			eo.Plan.Advance(gen)
		}
		sup.Instant("generation-start", "elastic")
		genSpan := sup.Begin("generation", "elastic")
		res := train.RunGeneration(arch, opts, train.GenSpec{
			TP: tp, DP: dp, Start: start, End: end,
			From: from, Fault: eo.Plan, TPViT: eo.TPViT,
		}, batch)
		genSpan.End()
		grec := Generation{Gen: gen, TP: tp, DP: dp, Start: start, Source: source}
		for i, l := range res.Hist.Loss {
			if s := res.Hist.Start + i; s < len(rep.Loss) {
				rep.Loss[s] = l
			}
		}
		if res.Err == nil {
			rep.Generations = append(rep.Generations, grec)
			if end == opts.Steps {
				sup.Instant("run-complete", "elastic")
				return rep, nil
			}
			// Clean resize boundary: every rank's tree is present at the
			// same step, so the in-memory reshard cannot fail for coverage.
			sup.Instant("resize", "elastic")
			ck, err := boundarySource(arch, partitions, res, nil)
			if err != nil {
				return rep, fmt.Errorf("elastic: reshard at resize boundary %d: %w", end, err)
			}
			from, start, source = ck, end, SourceMemory
			tp, dp = next.TP, next.DP
			consumeResize(&resizes, end)
			continue
		}
		failed := dist.FailedRanks(res.Err)
		if len(failed) == 0 {
			// Pre-run validation or a pure cascade: not a survivable rank
			// loss.
			return rep, res.Err
		}
		for range failed {
			sup.Instant("rank-death", "elastic")
		}
		grec.Failed = failed
		rep.Generations = append(rep.Generations, grec)
		survivors := tp*dp - len(failed)
		ntp, ndp, ok := nextShape(partitions, tp, survivors, eo.MinWorld, opts.Batch)
		if !ok {
			return rep, fmt.Errorf("elastic: %d survivor(s) below viable world (min %d): %w",
				survivors, eo.MinWorld, res.Err)
		}
		sup.Instant("re-rendezvous", "elastic")
		if ck, step, ok := memoryReshard(arch, partitions, res, failed); ok {
			sup.Instant("reshard-memory", "elastic")
			from, start, source = ck, step, SourceMemory
		} else if opts.CheckpointDir != "" {
			ck, err := ckpt.OpenLatest(opts.CheckpointDir)
			if err != nil {
				return rep, fmt.Errorf("elastic: no in-memory reshard and checkpoint restore failed: %w", err)
			}
			sup.Instant("reshard-checkpoint", "elastic")
			from, start, source = ck, ck.Manifest.Step, SourceCheckpoint
		} else {
			return rep, fmt.Errorf("elastic: survivors cannot cover state and no checkpoint dir: %w", res.Err)
		}
		tp, dp = ntp, ndp
	}
	return rep, fmt.Errorf("elastic: gave up after %d generations", maxGen)
}

// consumeResize drops every resize at or before step so it is not re-applied.
func consumeResize(resizes *[]Resize, step int) {
	out := (*resizes)[:0]
	for _, rz := range *resizes {
		if rz.AtStep > step {
			out = append(out, rz)
		}
	}
	*resizes = out
}

// boundarySource assembles the surviving ranks' boundary trees into a
// restore source, requiring every survivor to be at the same boundary.
// failed is the set of dead ranks to exclude (nil: none).
func boundarySource(arch model.Arch, partitions int, res train.GenResult, failed []int) (*ckpt.Checkpoint, error) {
	dead := make(map[int]bool, len(failed))
	for _, r := range failed {
		dead[r] = true
	}
	boundary := -1
	var trees []ckpt.Tree
	for r := range res.Trees {
		if dead[r] {
			continue
		}
		if res.Boundary[r] < 0 {
			return nil, fmt.Errorf("elastic: rank %d has no boundary snapshot", r)
		}
		if boundary == -1 {
			boundary = res.Boundary[r]
		} else if boundary != res.Boundary[r] {
			return nil, fmt.Errorf("elastic: survivors at inconsistent boundaries %d vs %d", boundary, res.Boundary[r])
		}
		trees = append(trees, res.Trees[r])
	}
	ck, err := train.AssembleBoundary(arch, partitions, boundary, trees)
	if err != nil {
		return nil, err
	}
	return ck, nil
}

// memoryReshard attempts the zero-rollback path after a failure. Survivors
// may legitimately straddle two step boundaries (a victim's data-parallel
// group blocks at gradient sync while the other groups finish the step), so
// it buckets the surviving trees per boundary and assembles the highest
// boundary whose bucket covers every logical tensor. The boundary is capped
// at the last step whose loss rank 0 recorded — restoring past it would
// leave a hole in the trajectory. Reports false — the caller falls back to
// the checkpoint — when no bucket covers (a needed shard died with its rank).
func memoryReshard(arch model.Arch, partitions int, res train.GenResult, failed []int) (*ckpt.Checkpoint, int, bool) {
	dead := make(map[int]bool, len(failed))
	for _, r := range failed {
		dead[r] = true
	}
	recorded := res.Hist.Start + len(res.Hist.Loss)
	buckets := map[int][]ckpt.Tree{}
	for r := range res.Trees {
		if dead[r] || res.Boundary[r] < 0 || res.Boundary[r] > recorded {
			continue
		}
		buckets[res.Boundary[r]] = append(buckets[res.Boundary[r]], res.Trees[r])
	}
	var steps []int
	for b := range buckets {
		steps = append(steps, b)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	for _, b := range steps {
		if ck, err := train.AssembleBoundary(arch, partitions, b, buckets[b]); err == nil {
			return ck, b, true
		}
	}
	return nil, 0, false
}

// nextShape picks the post-failure mesh shape: keep the TP extent (the
// channel sharding) and shed data-parallel replicas when enough ranks
// survive; otherwise drop TP to the largest divisor of the partition count
// that fits the survivors, at DP=1. Returns false when no shape at or above
// minWorld exists.
func nextShape(partitions, tp, survivors, minWorld, batch int) (ntp, ndp int, ok bool) {
	if minWorld < 1 {
		minWorld = 1
	}
	if survivors >= tp {
		ndp := survivors / tp
		for ndp > 1 && batch%ndp != 0 {
			ndp--
		}
		if tp*ndp >= minWorld {
			return tp, ndp, true
		}
	}
	for d := tp; d >= 1; d-- {
		if d <= survivors && partitions%d == 0 {
			if d >= minWorld {
				return d, 1, true
			}
			return 0, 0, false
		}
	}
	return 0, 0, false
}
