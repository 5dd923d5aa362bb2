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

// worker is one world rank of a mesh run, and train below is the only place
// the step is written: SerialCheckpointed, Distributed, Hybrid and
// RunGeneration differ in the mesh shape and the model they give runMesh,
// never in what a step does.
type worker struct {
	m *model.FoundationModel
	// tpc and dpc are the rank's communicators along the mesh's TP (D-CHAG)
	// and DP axes. A size-1 axis still issues its collectives (exact
	// identities), so every shape — the serial 1×1 run included — runs one
	// collective sequence and op-indexed fault plans mean the same thing at
	// every shape.
	tpc, dpc *comm.Communicator
	rank     int // world rank
	coord    dist.Coord
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
	// boundary (a view of the live buffers, which the receiver clones).
	fault    *faultinject.Plan
	boundary func(rank, step int, tree ckpt.Tree)
}

// train restores from w.from and runs the rank's steps up to w.end. The
// arithmetic order — mask stream, DP mean, clip summation — is what the
// bitwise resume, reshard and elastic oracles (and the benchmark's
// replaying driver) pin; do not reorder it.
func (w *worker) train(opts Options, batch BatchFn) error {
	m, row := w.m, w.row
	params := m.Params()
	opt := optim.NewAdamW(params, opts.LR, opts.WeightDecay)
	start, err := restoreStart(w.from, opts, params, opt)
	if err != nil {
		return err
	}
	tokens := m.Arch.Tokens()
	maskRNG := tensor.NewRNG(opts.Seed)
	fastForwardMasks(maskRNG, start, opts, tokens)
	mse, masked := nn.NewMSELoss(), nn.NewMaskedMSELoss()

	// This replica's batch rows, then this rank's channels. One replica owns
	// every row and a one-rank stage every channel: neither copies anything.
	tp, dp := w.tpc.Size(), w.dpc.Size()
	shard := opts.Batch / dp
	rows := func(t *tensor.Tensor) *tensor.Tensor {
		if dp == 1 {
			return t
		}
		return tensor.SliceAxis(t, 0, w.coord.DP*shard, (w.coord.DP+1)*shard)
	}
	stage := m.DCHAG()
	chLo, chHi := stage.ChannelBounds()
	ddp := parallel.NewDDP(w.dpc, params)
	local, repl := m.PartitionParams()

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
		if chLo > 0 || chHi < m.Arch.Channels {
			xShard = tensor.SliceAxis(xShard, 1, chLo, chHi)
		}
		target := model.Patchify(rows(y), m.Arch.Patch)
		var loss float64
		var grad *tensor.Tensor
		w.tpc.SetPhase("forward")
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
		w.tpc.SetPhase("backward")
		bwd := row.Begin("backward", "train")
		m.Backward(grad)
		bwd.End()
		// The one cross-replica synchronization point (paper Sec. 6.3).
		w.dpc.SetPhase("dp-sync")
		sync := row.Begin("dp-sync", "train")
		ddp.SyncGradients()
		sync.End()
		optSpan := row.Begin("optim", "train")
		if opts.ClipNorm > 0 {
			w.tpc.SetPhase("optim")
			DistributedClipGradNorm(w.tpc, local, repl, opts.ClipNorm)
		}
		opt.Step()
		optSpan.End()
		// Every rank reduces; only world rank 0 records. Keeping the
		// collective outside the rank conditional keeps the DP groups'
		// collective sequences identical (dchag-vet: collectivesym).
		w.dpc.SetPhase("metrics")
		loss = w.dpc.AllReduceScalarSum(loss) / float64(dp)
		if w.rank == 0 {
			w.hist.Loss = append(w.hist.Loss, loss)
		}
		if opts.checkpointDue(s) {
			// DP replicas hold identical state after SyncGradients, so
			// replica 0's TP group alone writes shards; world rank 0 commits
			// the step directory once they are durable. checkpointDue is
			// rank-independent, so every TP group runs the same two barriers
			// — symmetric with no rank conditional around them.
			w.tpc.SetPhase("ckpt")
			ckSpan := row.Begin("ckpt", "train")
			if w.coord.DP == 0 {
				dir := ckpt.StepDir(opts.CheckpointDir, s+1)
				if err := ckpt.WriteShard(dir, w.coord.TP, ckpt.BuildTree(params, opt)); err != nil {
					return err
				}
				if w.fault != nil {
					w.fault.Checkpoint(w.rank, s+1)
				}
			}
			w.tpc.Barrier() // every shard durable before the manifest commits
			if w.rank == 0 {
				if err := opts.commit(tp, stage.Partitions, s+1, m.Arch); err != nil {
					return err
				}
			}
			w.tpc.Barrier() // checkpoint complete before training continues
			ckSpan.End()
		}
		snapshot(s + 1)
	}
	return nil
}
