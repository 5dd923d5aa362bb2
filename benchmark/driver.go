package main

import (
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The traced pass cannot put spans inside train.Serial, train.Distributed or
// train.Hybrid, so it drives the same step itself: the public constructors
// build each rank's model, the model's channel stage and transformer blocks
// are swapped for the timing wrappers below through the interfaces the model
// already holds them by, and every call of the step sits inside a span on
// the rank's row of the benchmark's own tracer. The driver's losses must
// equal the timed pass's bit for bit; that is the proof that it runs the
// same arithmetic.

// timedStage records a span around the channel stage's forward and backward.
type timedStage struct {
	model.ChannelStage
	row *obs.Rank
}

func (t timedStage) Forward(x *tensor.Tensor) *tensor.Tensor {
	sp := t.row.Begin("stage.fwd", "core")
	defer sp.End()
	return t.ChannelStage.Forward(x)
}

func (t timedStage) Backward(grad *tensor.Tensor) *tensor.Tensor {
	sp := t.row.Begin("stage.bwd", "core")
	defer sp.End()
	return t.ChannelStage.Backward(grad)
}

// timedBlock records a span around one transformer block's forward and
// backward; fwd and bwd name the spans after the block's package.
type timedBlock struct {
	nn.Layer
	row      *obs.Rank
	fwd, bwd string
	cat      string
}

func (t timedBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	sp := t.row.Begin(t.fwd, t.cat)
	defer sp.End()
	return t.Layer.Forward(x)
}

func (t timedBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	sp := t.row.Begin(t.bwd, t.cat)
	defer sp.End()
	return t.Layer.Backward(grad)
}

// wrapModel swaps the model's stage and blocks for their timing wrappers.
// Callers read ChannelBounds and PartitionParams first: both look at the
// concrete types the wrappers hide.
func wrapModel(m *model.FoundationModel, row *obs.Rank) {
	m.Stage = timedStage{ChannelStage: m.Stage, row: row}
	for i, blk := range m.Blocks {
		tb := timedBlock{Layer: blk, row: row, fwd: "nn.blocks.fwd", bwd: "nn.blocks.bwd", cat: "nn"}
		if _, ok := blk.(*parallel.ParallelTransformerBlock); ok {
			tb.fwd, tb.bwd, tb.cat = "parallel.blocks.fwd", "parallel.blocks.bwd", "parallel"
		}
		m.Blocks[i] = tb
	}
}

// rankStep is what one rank needs to run the traced step.
type rankStep struct {
	spec     *trainSpec
	seed     int64
	dir      string
	rank     int
	coord    dist.Coord
	tpc, dpc *comm.Communicator // nil on the serial workload
	row      *obs.Rank
	batch    train.BatchFn
	steps    int
}

// loop builds the rank's model and runs the plain training step — slice,
// patchify, mask, forward, loss, backward, gradient sync, clip, AdamW,
// checkpoint — with a span around each call. It mirrors train.Serial,
// train.Distributed and train.Hybrid; world rank 0's losses are returned.
func (rs rankStep) loop() ([]float64, error) {
	s, arch, row := rs.spec, rs.spec.arch, rs.row
	var mdl *model.FoundationModel
	if s.serial {
		mdl = model.NewSerialDCHAGEquivalent(arch, arch.Partitions)
	} else {
		mdl = model.NewDistributed(arch, rs.tpc, s.tpViT)
	}
	lo, hi := 0, arch.Channels
	if st, ok := mdl.Stage.(*model.DCHAGStage); ok {
		lo, hi = st.ChannelBounds()
	}
	local, repl := mdl.PartitionParams()
	wrapModel(mdl, row)
	params := mdl.Params()
	opt := optim.NewAdamW(params, trainLR, trainWD)
	var ddp *parallel.DDP
	if s.dp > 1 {
		ddp = parallel.NewDDP(rs.dpc, params)
	}
	maskRNG := tensor.NewRNG(maskSeed(rs.seed))
	mse, masked := nn.NewMSELoss(), nn.NewMaskedMSELoss()
	tokens := arch.Tokens()
	shard := s.batch
	if s.dp > 1 {
		shard = s.batch / s.dp
	}
	rlo, rhi := rs.coord.DP*shard, (rs.coord.DP+1)*shard
	var losses []float64
	for st := 0; st < rs.steps; st++ {
		step := row.Begin("step", "bench")
		nn.ZeroGrads(params)

		sp := row.Begin("data", "data")
		x, y := rs.batch(st)
		var mask *tensor.Tensor
		if s.mask > 0 {
			// The full-batch mask keeps every replica on the serial run's
			// mask stream; each keeps its own rows.
			mask = data.RandomMask(maskRNG, x.Shape[0], tokens, s.mask)
		}
		if s.dp > 1 {
			x, y = tensor.SliceAxis(x, 0, rlo, rhi), tensor.SliceAxis(y, 0, rlo, rhi)
			if mask != nil {
				mask = tensor.SliceAxis(mask, 0, rlo, rhi)
			}
		}
		if !s.serial {
			x = tensor.SliceAxis(x, 1, lo, hi)
		}
		target := model.Patchify(y, arch.Patch)
		sp.End()

		rs.phase("forward")
		sp = row.Begin("fwd", "model")
		pred := mdl.Forward(x, mask)
		sp.End()

		sp = row.Begin("loss", "nn")
		var loss float64
		var grad *tensor.Tensor
		if mask != nil {
			loss = masked.Forward(pred, target, mask)
			grad = masked.Backward()
		} else {
			loss = mse.Forward(pred, target)
			grad = mse.Backward()
		}
		sp.End()

		rs.phase("backward")
		sp = row.Begin("bwd", "model")
		mdl.Backward(grad)
		sp.End()

		if ddp != nil {
			rs.dpc.SetPhase("dp-sync")
			sp = row.Begin("dp_sync", "parallel")
			ddp.SyncGradients()
			sp.End()
		}

		rs.phase("optim")
		sp = row.Begin("clip", "optim")
		if s.serial {
			optim.ClipGradNorm(params, trainClip)
		} else {
			train.DistributedClipGradNorm(rs.tpc, local, repl, trainClip)
		}
		sp.End()
		sp = row.Begin("optim", "optim")
		opt.Step()
		sp.End()

		if s.dp > 1 {
			rs.dpc.SetPhase("metrics")
			sp = row.Begin("loss_sync", "parallel")
			loss = rs.dpc.AllReduceScalarSum(loss) / float64(s.dp)
			sp.End()
		}
		if rs.rank == 0 {
			losses = append(losses, loss)
		}

		if s.ckptDue(st, rs.steps) {
			rs.phase("ckpt")
			sp = row.Begin("ckpt", "ckpt")
			if err := rs.checkpoint(mdl, opt, st+1); err != nil {
				return nil, err
			}
			sp.End()
		}
		step.End()
	}
	return losses, nil
}

// phase labels the TP communicator's traffic like the training loops do.
func (rs rankStep) phase(label string) {
	if rs.tpc != nil {
		rs.tpc.SetPhase(label)
	}
}

// checkpoint writes what train.Hybrid writes: replica 0's TP group saves its
// shards, world rank 0 commits the manifest between two barriers. Every TP
// group runs the barriers, so the collectives stay symmetric.
func (rs rankStep) checkpoint(mdl *model.FoundationModel, opt *optim.AdamW, step int) error {
	if rs.coord.DP == 0 {
		sp := rs.row.Begin("ckpt.write", "ckpt")
		err := ckpt.WriteShard(rs.dir, rs.coord.TP, ckpt.BuildTree(mdl.Params(), opt))
		sp.End()
		if err != nil {
			return err
		}
	}
	if rs.tpc != nil {
		rs.tpc.Barrier()
	}
	if rs.rank == 0 {
		world := 1
		if !rs.spec.serial {
			world = rs.spec.tp
		}
		err := ckpt.WriteManifest(rs.dir, ckpt.Manifest{
			World: world, Partitions: rs.spec.arch.Partitions, Step: step, OptAlgo: "adamw",
		})
		if err != nil {
			return err
		}
	}
	if rs.tpc != nil {
		rs.tpc.Barrier()
	}
	return nil
}

// tracedEpisode runs the driver for steps steps on the workload's shape and
// returns world rank 0's losses. The tracer needs one row per rank; each
// axis's collectives are recorded through obs.NewCommObserver.
func (s *trainSpec) tracedEpisode(seed int64, dir string, tr *obs.Tracer, steps int) (losses []float64, err error) {
	xs, ys := s.batches(seed)
	batch := func(step int) (x, y *tensor.Tensor) { return xs[step%len(xs)], ys[step%len(ys)] }
	base := rankStep{spec: s, seed: seed, dir: dir, batch: batch, steps: steps}
	if s.serial {
		base.row = tr.Rank(0)
		return base.loop()
	}
	spec := dist.MeshSpec{TP: s.tp, FSDP: 1, DP: s.dp}
	mesh, err := dist.NewMesh(spec, dist.Topology{Nodes: 1, GPUsPerNode: spec.World()})
	if err != nil {
		return nil, err
	}
	mesh.SetObserver(func(a dist.Axis, rank int) comm.Observer {
		return obs.NewCommObserver(tr.Rank(rank), obs.CommCat(a.String()))
	})
	err = mesh.Run(func(rank int, m *dist.Mesh) error {
		rs := base
		rs.rank, rs.coord = rank, m.Spec.CoordOf(rank)
		rs.tpc, rs.dpc, rs.row = m.TPComm(rank), m.DPComm(rank), tr.Rank(rank)
		got, err := rs.loop()
		if rank == 0 {
			losses = got
		}
		return err
	})
	return losses, err
}
