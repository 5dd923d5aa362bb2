package train

import (
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// worker is one rank's share of a training run, and train below is the only
// place the step is written: Serial, Distributed, Hybrid and RunGeneration
// differ in how they build workers, never in what a step does.
type worker struct {
	m *model.FoundationModel
	// tpc and dpc are the rank's communicators along the mesh's TP (D-CHAG)
	// and DP axes. Both are nil on the serial 1×1×1 run, which then issues no
	// collective at all and clips with optim.ClipGradNorm in m.Params()
	// order; on a mesh a size-1 axis still issues its collectives (exact
	// identities), so every shape runs one collective sequence and
	// op-indexed fault plans mean the same thing at every shape.
	tpc, dpc *comm.Communicator
	rank     int        // world rank
	coord    dist.Coord // zero on the serial run
	// from is the opened restore source (nil: fresh state); what it restores
	// is restoreStart's decision. end bounds the run: global steps
	// [restored step, end).
	from *ckpt.Checkpoint
	end  int
	row  *obs.Rank
	hist *History // shared by the run's workers; world rank 0 records

	// RunGeneration's two additions to the step, both nil elsewhere: the
	// fault plan consulted at the top of each step and after the rank's
	// shard write, and the receiver of the rank's state tree at every step
	// boundary (building the tree is the cost, so no hook means no tree).
	fault    *faultinject.Plan
	boundary func(rank, step int, tree ckpt.Tree)
}

// tpPhase labels the TP traffic that follows; the serial run has no ledger.
func (w *worker) tpPhase(label string) {
	if w.tpc != nil {
		w.tpc.SetPhase(label)
	}
}

// tpBarrier orders the checkpoint's shard writes against its manifest commit
// within the TP group; alone, a serial worker is already ordered.
func (w *worker) tpBarrier() {
	if w.tpc != nil {
		w.tpc.Barrier()
	}
}

// train restores from w.from and runs the rank's steps up to w.end. The
// arithmetic order — mask stream, DP mean, clip summation — is what the
// bitwise resume, reshard and elastic oracles (and the benchmark's
// replaying driver) pin; do not reorder it.
func (w *worker) train(opts Options, batch BatchFn) error {
	m, row := w.m, w.row
	params := m.Params()
	partitions, stage := modelPartitions(m), stageKind(m)
	opt := optim.NewAdamW(params, opts.LR, opts.WeightDecay)
	start, err := restoreStart(w.from, opts, params, opt, partitions, stage)
	if err != nil {
		return err
	}
	tokens := m.Arch.Tokens()
	maskRNG := tensor.NewRNG(opts.Seed)
	fastForwardMasks(maskRNG, start, opts, tokens)
	mse, masked := nn.NewMSELoss(), nn.NewMaskedMSELoss()

	// This replica's batch rows, then this rank's channels. One replica owns
	// every row and a serial stage every channel: neither copies anything.
	tp, dp := 1, 1
	if w.tpc != nil {
		tp, dp = w.tpc.Size(), w.dpc.Size()
	}
	shard := opts.Batch / dp
	rows := func(t *tensor.Tensor) *tensor.Tensor {
		if dp == 1 {
			return t
		}
		return tensor.SliceAxis(t, 0, w.coord.DP*shard, (w.coord.DP+1)*shard)
	}
	dchag, _ := m.Stage.(*model.DCHAGStage)
	var ddp *parallel.DDP
	if w.dpc != nil {
		ddp = parallel.NewDDP(w.dpc, params)
	}

	snapshot := func(step int) {
		if w.boundary != nil {
			w.boundary(w.rank, step, ckpt.BuildTree(params, opt))
		}
	}
	if w.rank == 0 {
		w.hist.Start = start
	}
	// A fresh AdamW exports complete (zeroed) moments, so the start-boundary
	// snapshot is always restorable.
	snapshot(start)

	for s := start; s < w.end; s++ {
		if w.fault != nil {
			w.fault.Step(w.rank, s)
		}
		nn.ZeroGrads(params)
		x, y := batch(s)
		xShard := rows(x)
		if dchag != nil {
			lo, hi := dchag.ChannelBounds()
			xShard = tensor.SliceAxis(xShard, 1, lo, hi)
		}
		target := model.Patchify(rows(y), m.Arch.Patch)
		var loss float64
		var grad *tensor.Tensor
		w.tpPhase("forward")
		fwd := row.Begin("forward", "train")
		if opts.MaskRatio > 0 {
			// Draw the full-batch mask so every replica consumes the same
			// stream as the serial run, then keep this replica's rows.
			mask := rows(data.RandomMask(maskRNG, x.Shape[0], tokens, opts.MaskRatio))
			pred := m.Forward(xShard, mask)
			loss = masked.Forward(pred, target, mask)
			grad = masked.Backward()
		} else {
			pred := m.Forward(xShard, nil)
			loss = mse.Forward(pred, target)
			grad = mse.Backward()
		}
		fwd.End()
		w.tpPhase("backward")
		bwd := row.Begin("backward", "train")
		m.Backward(grad)
		bwd.End()
		if ddp != nil {
			// The one cross-replica synchronization point (paper Sec. 6.3).
			w.dpc.SetPhase("dp-sync")
			sync := row.Begin("dp-sync", "train")
			ddp.SyncGradients()
			sync.End()
		}
		optSpan := row.Begin("optim", "train")
		if opts.ClipNorm > 0 {
			if w.tpc == nil {
				optim.ClipGradNorm(params, opts.ClipNorm)
			} else {
				w.tpc.SetPhase("optim")
				local, repl := m.PartitionParams()
				DistributedClipGradNorm(w.tpc, local, repl, opts.ClipNorm)
			}
		}
		opt.Step()
		optSpan.End()
		if w.dpc != nil {
			// Every rank reduces; only world rank 0 records. Keeping the
			// collective outside the rank conditional keeps the DP groups'
			// collective sequences identical (dchag-vet: collectivesym).
			w.dpc.SetPhase("metrics")
			loss = w.dpc.AllReduceScalarSum(loss) / float64(dp)
		}
		if w.rank == 0 {
			w.hist.Loss = append(w.hist.Loss, loss)
		}
		if opts.checkpointDue(s) {
			// DP replicas hold identical state after SyncGradients, so
			// replica 0's TP group alone writes shards; world rank 0 commits
			// the manifest once they are durable. checkpointDue is
			// rank-independent, so every TP group runs the same two barriers
			// — symmetric with no rank conditional around them.
			w.tpPhase("ckpt")
			ckSpan := row.Begin("ckpt", "train")
			dir := opts.checkpointTarget(s + 1)
			if w.coord.DP == 0 {
				if err := writeShard(dir, w.coord.TP, params, opt); err != nil {
					return err
				}
				if w.fault != nil {
					w.fault.Checkpoint(w.rank, s+1)
				}
			}
			w.tpBarrier() // every shard durable before the manifest commits
			if w.rank == 0 {
				if err := writeManifest(dir, tp, partitions, s+1, stage, m.Arch); err != nil {
					return err
				}
				if err := opts.pruneCheckpoints(); err != nil {
					return err
				}
			}
			w.tpBarrier() // checkpoint complete before training continues
			ckSpan.End()
		}
		snapshot(s + 1)
	}
	return nil
}
