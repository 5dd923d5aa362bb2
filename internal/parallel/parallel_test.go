package parallel

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

const tpTol = 1e-9

func TestColumnRowPairMatchesSerialLinears(t *testing.T) {
	const (
		in, mid, out = 6, 8, 5
		tp           = 2
		seed1, seed2 = 100, 101
	)
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 3, in)
	upstream := tensor.Randn(rng, 3, out)

	// Serial reference: two stacked linears.
	l1 := nn.NewLinear("l1", in, mid, seed1)
	l2 := nn.NewLinear("l2", mid, out, seed2)
	ySerial := l2.Forward(l1.Forward(x))
	nn.ZeroGrads(append(l1.Params(), l2.Params()...))
	dxSerial := l1.Backward(l2.Backward(upstream))

	results := make([]*tensor.Tensor, tp)
	dxs := make([]*tensor.Tensor, tp)
	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		col := NewColumnParallelLinear("l1", in, mid, seed1, c)
		row := NewRowParallelLinear("l2", mid, out, seed2, c)
		y := row.Forward(col.Forward(x))
		results[c.Rank()] = y
		dx := col.Backward(row.Backward(upstream))
		dxs[c.Rank()] = dx
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tp; r++ {
		if tensor.MaxAbsDiff(results[r], ySerial) > tpTol {
			t.Fatalf("rank %d forward differs from serial by %g", r, tensor.MaxAbsDiff(results[r], ySerial))
		}
		if tensor.MaxAbsDiff(dxs[r], dxSerial) > tpTol {
			t.Fatalf("rank %d dx differs from serial by %g", r, tensor.MaxAbsDiff(dxs[r], dxSerial))
		}
	}
}

func TestColumnParallelWeightShardMatchesSlice(t *testing.T) {
	const in, out, tp = 4, 6, 3
	full := nn.NewLinear("w", in, out, 42)
	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		col := NewColumnParallelLinear("w", in, out, 42, c)
		lo := out / tp
		want := tensor.SliceAxis(full.Weight.W, 1, c.Rank()*lo, (c.Rank()+1)*lo)
		if tensor.MaxAbsDiff(col.Local.Weight.W, want) != 0 {
			return fmt.Errorf("rank %d shard is not the column slice", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestColumnParallelGradShardMatchesSerial(t *testing.T) {
	const in, out, tp = 4, 6, 2
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, 5, in)
	upstream := tensor.Randn(rng, 5, out)

	serial := nn.NewLinear("w", in, out, 7)
	serial.Forward(x)
	nn.ZeroGrads(serial.Params())
	serial.Backward(upstream)

	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		col := NewColumnParallelLinear("w", in, out, 7, c)
		col.Forward(x)
		nn.ZeroGrads(col.Params())
		lo := out / tp
		localUp := tensor.SliceAxis(upstream, 1, c.Rank()*lo, (c.Rank()+1)*lo)
		col.Backward(localUp)
		wantW := tensor.SliceAxis(serial.Weight.Grad, 1, c.Rank()*lo, (c.Rank()+1)*lo)
		if tensor.MaxAbsDiff(col.Local.Weight.Grad, wantW) > tpTol {
			return fmt.Errorf("rank %d weight grad shard mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelSelfAttentionMatchesSerial(t *testing.T) {
	const embed, heads, tp = 12, 4, 2
	rng := tensor.NewRNG(3)
	x := tensor.Randn(rng, 2, 5, embed)
	upstream := tensor.Randn(rng, 2, 5, embed)

	serial := nn.NewSelfAttention("attn", embed, heads, 55)
	ySerial := serial.Forward(x)
	nn.ZeroGrads(serial.Params())
	dxSerial := serial.Backward(upstream)

	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		par := NewParallelSelfAttention("attn", embed, heads, 55, c)
		y := par.Forward(x)
		if tensor.MaxAbsDiff(y, ySerial) > tpTol {
			return fmt.Errorf("rank %d forward diff %g", c.Rank(), tensor.MaxAbsDiff(y, ySerial))
		}
		dx := par.Backward(upstream)
		if tensor.MaxAbsDiff(dx, dxSerial) > tpTol {
			return fmt.Errorf("rank %d dx diff %g", c.Rank(), tensor.MaxAbsDiff(dx, dxSerial))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelMLPMatchesSerial(t *testing.T) {
	const embed, hidden, tp = 6, 12, 3
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 4, embed)
	upstream := tensor.Randn(rng, 4, embed)

	serial := nn.NewMLP("mlp", embed, hidden, 77)
	ySerial := serial.Forward(x)
	nn.ZeroGrads(serial.Params())
	dxSerial := serial.Backward(upstream)

	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		par := NewParallelMLP("mlp", embed, hidden, 77, c)
		y := par.Forward(x)
		if tensor.MaxAbsDiff(y, ySerial) > tpTol {
			return fmt.Errorf("forward diff %g", tensor.MaxAbsDiff(y, ySerial))
		}
		dx := par.Backward(upstream)
		if tensor.MaxAbsDiff(dx, dxSerial) > tpTol {
			return fmt.Errorf("dx diff %g", tensor.MaxAbsDiff(dx, dxSerial))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelBlockMatchesSerial(t *testing.T) {
	const embed, heads, tp = 8, 4, 4
	rng := tensor.NewRNG(6)
	x := tensor.Randn(rng, 2, 3, embed)
	upstream := tensor.Randn(rng, 2, 3, embed)

	serial := nn.NewTransformerBlock("blk", embed, heads, 88)
	ySerial := serial.Forward(x)
	nn.ZeroGrads(serial.Params())
	dxSerial := serial.Backward(upstream)

	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		par := NewParallelTransformerBlock("blk", embed, heads, 88, c)
		y := par.Forward(x)
		if tensor.MaxAbsDiff(y, ySerial) > tpTol {
			return fmt.Errorf("forward diff %g", tensor.MaxAbsDiff(y, ySerial))
		}
		dx := par.Backward(upstream)
		if tensor.MaxAbsDiff(dx, dxSerial) > tpTol {
			return fmt.Errorf("dx diff %g", tensor.MaxAbsDiff(dx, dxSerial))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelMLPCommunicationCount(t *testing.T) {
	// Exactly one forward AllReduce and one backward AllReduce per rank.
	const embed, hidden, tp = 4, 8, 2
	x := tensor.Randn(tensor.NewRNG(7), 2, embed)
	g, err := comm.Run(tp, func(c *comm.Communicator) error {
		par := NewParallelMLP("mlp", embed, hidden, 99, c)
		c.SetPhase("forward")
		y := par.Forward(x)
		c.SetPhase("backward")
		par.Backward(y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tp; r++ {
		if got := g.Traffic().CallsFor(r, "forward", comm.OpAllReduce); got != 1 {
			t.Fatalf("rank %d forward allreduces = %d, want 1", r, got)
		}
		if got := g.Traffic().CallsFor(r, "backward", comm.OpAllReduce); got != 1 {
			t.Fatalf("rank %d backward allreduces = %d, want 1", r, got)
		}
	}
}

// trainSerial runs steps of full-batch training on a small regression model
// and returns the final weights.
func trainSerial(t *testing.T, steps int, xs, ys []*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	model := nn.NewLinear("m", 4, 2, 500)
	opt := optim.NewAdamW(model.Params(), 0.05, 0.01)
	loss := nn.NewMSELoss()
	for s := 0; s < steps; s++ {
		pred := model.Forward(xs[s])
		loss.Forward(pred, ys[s])
		nn.ZeroGrads(model.Params())
		model.Backward(loss.Backward())
		opt.Step()
	}
	return model.Weight.W.Clone()
}

func makeBatches(steps, batch int) (xs, ys []*tensor.Tensor) {
	rng := tensor.NewRNG(501)
	trueW := tensor.Randn(rng, 4, 2)
	for s := 0; s < steps; s++ {
		x := tensor.Randn(rng, batch, 4)
		y := tensor.MatMulInto(nil, x, trueW)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func TestDDPMatchesSerialFullBatch(t *testing.T) {
	const steps, batch, world = 5, 8, 2
	xs, ys := makeBatches(steps, batch)
	wSerial := trainSerial(t, steps, xs, ys)

	finals := make([]*tensor.Tensor, world)
	_, err := comm.Run(world, func(c *comm.Communicator) error {
		model := nn.NewLinear("m", 4, 2, 500)
		ddp := NewDDP(c, model.Params())
		opt := optim.NewAdamW(model.Params(), 0.05, 0.01)
		loss := nn.NewMSELoss()
		half := batch / world
		for s := 0; s < steps; s++ {
			x := tensor.SliceAxis(xs[s], 0, c.Rank()*half, (c.Rank()+1)*half)
			y := tensor.SliceAxis(ys[s], 0, c.Rank()*half, (c.Rank()+1)*half)
			pred := model.Forward(x)
			loss.Forward(pred, y)
			nn.ZeroGrads(model.Params())
			model.Backward(loss.Backward())
			ddp.SyncGradients()
			opt.Step()
		}
		finals[c.Rank()] = model.Weight.W.Clone()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world; r++ {
		if tensor.MaxAbsDiff(finals[r], wSerial) > 1e-9 {
			t.Fatalf("DDP rank %d final weights differ from serial by %g", r, tensor.MaxAbsDiff(finals[r], wSerial))
		}
	}
}

func TestFSDPMatchesDDP(t *testing.T) {
	const steps, batch, world = 5, 8, 2
	xs, ys := makeBatches(steps, batch)
	wSerial := trainSerial(t, steps, xs, ys)

	finals := make([]*tensor.Tensor, world)
	_, err := comm.Run(world, func(c *comm.Communicator) error {
		model := nn.NewLinear("m", 4, 2, 500)
		fsdp := NewFSDP(c, model.Params())
		opt := optim.NewAdamW(fsdp.ShardParams(), 0.05, 0.01)
		loss := nn.NewMSELoss()
		half := batch / world
		for s := 0; s < steps; s++ {
			fsdp.GatherParams()
			x := tensor.SliceAxis(xs[s], 0, c.Rank()*half, (c.Rank()+1)*half)
			y := tensor.SliceAxis(ys[s], 0, c.Rank()*half, (c.Rank()+1)*half)
			pred := model.Forward(x)
			loss.Forward(pred, y)
			fsdp.ZeroGrads()
			model.Backward(loss.Backward())
			fsdp.ReduceScatterGrads()
			opt.Step()
		}
		fsdp.GatherParams()
		finals[c.Rank()] = model.Weight.W.Clone()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world; r++ {
		if tensor.MaxAbsDiff(finals[r], wSerial) > 1e-9 {
			t.Fatalf("FSDP rank %d final weights differ from serial by %g", r, tensor.MaxAbsDiff(finals[r], wSerial))
		}
	}
}

func TestFSDPShardBytesScaleDown(t *testing.T) {
	// The point of FSDP: per-rank persistent parameter memory is ~1/n.
	model4 := nn.NewLinear("m", 32, 32, 1)
	var bytes1, bytes4 int64
	if _, err := comm.Run(1, func(c *comm.Communicator) error {
		bytes1 = NewFSDP(c, model4.Params()).ShardBytes()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := comm.Run(4, func(c *comm.Communicator) error {
		f := NewFSDP(c, nn.NewLinear("m", 32, 32, 1).Params())
		if c.Rank() == 0 {
			bytes4 = f.ShardBytes()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bytes4*4 != bytes1 {
		t.Fatalf("shard bytes %d * 4 != full %d", bytes4, bytes1)
	}
}

func TestFSDPPaddingNonDivisible(t *testing.T) {
	// 3 elements across 2 ranks forces padding; round trip must preserve
	// values exactly.
	_, err := comm.Run(2, func(c *comm.Communicator) error {
		p := nn.NewParam("p", tensor.FromSlice([]float64{1, 2, 3}, 3))
		f := NewFSDP(c, []*nn.Param{p})
		p.W.Zero() // destroy live copy
		f.GatherParams()
		want := []float64{1, 2, 3}
		for i, w := range want {
			if p.W.Data[i] != w {
				return fmt.Errorf("rank %d: param[%d] = %v after gather", c.Rank(), i, p.W.Data[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFSDPGatherParamsDoesNotAllocate pins the gather over the callers' own
// buffers: a warm GatherParams writes every rank's shard straight into the
// live parameters and allocates nothing. At two ranks rank 0 counts while
// rank 1 gathers in step with it; the count is process-wide, so it covers
// both ranks.
func TestFSDPGatherParamsDoesNotAllocate(t *testing.T) {
	const runs = 10
	for _, world := range []int{1, 2} {
		var allocs float64
		_, err := comm.Run(world, func(c *comm.Communicator) error {
			f := NewFSDP(c, nn.NewLinear("m", 8, 6, 1).Params())
			f.GatherParams()
			if c.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, f.GatherParams)
				return nil
			}
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call, then its runs
				f.GatherParams()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%d ranks: a warm GatherParams allocates %.1f times per call, want 0", world, allocs)
		}
	}
}

func TestParallelModuleParamCounts(t *testing.T) {
	// Shard parameter counts must sum (over the group) to the serial counts,
	// with replicated parameters (row biases, norms) counted once per rank.
	const embed, heads, tp = 8, 4, 2
	serialBlock := nn.NewTransformerBlock("blk", embed, heads, 5)
	serialCount := nn.NumParams(serialBlock.Params())
	counts := make([]int, tp)
	replCounts := make([]int, tp)
	_, err := comm.Run(tp, func(c *comm.Communicator) error {
		blk := NewParallelTransformerBlock("blk", embed, heads, 5, c)
		local, repl := blk.Partition()
		counts[c.Rank()] = nn.NumParams(local)
		replCounts[c.Rank()] = nn.NumParams(repl)
		if len(blk.Params()) != len(local)+len(repl) {
			return fmt.Errorf("partition must cover Params exactly")
		}
		if nn.NumParams(blk.Attn.Params()) == 0 || nn.NumParams(blk.FFN.Params()) == 0 {
			return fmt.Errorf("attention/MLP params must be non-empty")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := counts[0] + counts[1] + replCounts[0] // replicated counted once
	if total != serialCount {
		t.Fatalf("shards %v + replicated %d != serial %d", counts, replCounts[0], serialCount)
	}
	if replCounts[0] != replCounts[1] {
		t.Fatal("replicated param count must agree across ranks")
	}
}
