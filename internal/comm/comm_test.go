package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestAllGatherOrderAndContent(t *testing.T) {
	const size = 4
	_, err := Run(size, func(c *Communicator) error {
		x := tensor.Full(float64(c.Rank()), 2)
		var seen []int
		var bad error
		c.AllGatherEach(x, func(r int, p *tensor.Tensor) {
			seen = append(seen, r)
			if p.Data[0] != float64(r) || p.Data[1] != float64(r) {
				bad = fmt.Errorf("rank %d saw wrong part %d: %v", c.Rank(), r, p.Data)
			}
		})
		if bad != nil {
			return bad
		}
		if len(seen) != size {
			return fmt.Errorf("got %d parts", len(seen))
		}
		for i, r := range seen {
			if r != i {
				return fmt.Errorf("parts visited in order %v", seen)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherVariableShapes(t *testing.T) {
	_, err := Run(3, func(c *Communicator) error {
		x := tensor.Full(1, c.Rank()+1) // rank r contributes r+1 elements
		var bad error
		c.AllGatherEach(x, func(r int, p *tensor.Tensor) {
			if p.Numel() != r+1 {
				bad = fmt.Errorf("part %d has %d elems", r, p.Numel())
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllGatherEachSharesParts pins that nothing is copied: visit sees each
// owner's own tensor, and the caller's input comes back untouched.
func TestAllGatherEachSharesParts(t *testing.T) {
	const size = 3
	xs := make([]*tensor.Tensor, size)
	_, err := Run(size, func(c *Communicator) error {
		x := tensor.Full(float64(c.Rank()), 3)
		xs[c.Rank()] = x
		c.Barrier()
		var bad error
		c.AllGatherEach(x, func(r int, p *tensor.Tensor) {
			if p != xs[r] {
				bad = fmt.Errorf("rank %d saw a copy of part %d", c.Rank(), r)
			}
		})
		if bad != nil {
			return bad
		}
		for _, v := range x.Data {
			if v != float64(c.Rank()) {
				return fmt.Errorf("rank %d input mutated: %v", c.Rank(), x.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllGatherConcat holds the gathered concatenation along axis 1 that
// DistTokenizer forms: each part written at its owner's offset with
// SetSliceAxis, parts of differing width included.
func TestAllGatherConcat(t *testing.T) {
	_, err := Run(2, func(c *Communicator) error {
		x := tensor.Full(float64(c.Rank()), 2, c.Rank()+1) // rank r: [2, r+1]
		joined := tensor.New(2, 3)
		off := 0
		c.AllGatherEach(x, func(_ int, p *tensor.Tensor) {
			tensor.SetSliceAxis(joined, 1, off, p)
			off += p.Shape[1]
		})
		want := []float64{0, 1, 1, 0, 1, 1}
		for i, w := range want {
			if joined.Data[i] != w {
				return fmt.Errorf("concat = %v", joined.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSumEqualsSumOfInputs(t *testing.T) {
	const size = 5
	_, err := Run(size, func(c *Communicator) error {
		x := tensor.Full(float64(c.Rank()+1), 3)
		s := c.AllReduceInto(tensor.New(3), x)
		want := float64(size * (size + 1) / 2)
		for _, v := range s.Data {
			if v != want {
				return fmt.Errorf("sum = %v, want %v", v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceScaledMean(t *testing.T) {
	_, err := Run(4, func(c *Communicator) error {
		x := tensor.Full(float64(c.Rank()), 2)
		m := tensor.New(2)
		c.AllReduce([]*tensor.Tensor{m}, []*tensor.Tensor{x}, 0.25)
		if m.Data[0] != 1.5 || m.Data[1] != 1.5 {
			return fmt.Errorf("mean = %v, want 1.5", m.Data)
		}
		if x.Data[0] != float64(c.Rank()) {
			return fmt.Errorf("src mutated: %v", x.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceScalarSum(t *testing.T) {
	_, err := Run(3, func(c *Communicator) error {
		got := c.AllReduceScalarSum(float64(c.Rank()))
		if got != 3 {
			return fmt.Errorf("scalar sum = %v, want 3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterSum(t *testing.T) {
	const size = 2
	_, err := Run(size, func(c *Communicator) error {
		// rank r contributes [r, r, 10r, 10r] split into 2 chunks of 2.
		r := float64(c.Rank())
		x := tensor.FromSlice([]float64{r, r, 10 * r, 10 * r}, 4)
		out := c.ReduceScatterSum(x, 0)
		if out.Numel() != 2 {
			return fmt.Errorf("chunk size = %d", out.Numel())
		}
		var want float64
		if c.Rank() == 0 {
			want = 0 + 1 // sum of first chunks
		} else {
			want = 0 + 10 // sum of second chunks
		}
		if out.Data[0] != want || out.Data[1] != want {
			return fmt.Errorf("rank %d chunk = %v, want %v", c.Rank(), out.Data, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	// The classic decomposition identity, here as a property over seeds.
	f := func(seed int64) bool {
		const size = 4
		rng := tensor.NewRNG(seed)
		inputs := make([]*tensor.Tensor, size)
		for r := range inputs {
			inputs[r] = tensor.Randn(rng, size*3)
		}
		ok := true
		_, err := Run(size, func(c *Communicator) error {
			viaAR := c.AllReduceInto(tensor.New(size*3), inputs[c.Rank()])
			chunk := c.ReduceScatterSum(inputs[c.Rank()], 0)
			viaRSAG := tensor.New(size * 3)
			c.AllGatherEach(chunk, func(r int, p *tensor.Tensor) { copy(viaRSAG.Data[r*p.Numel():], p.Data) })
			if tensor.MaxAbsDiff(viaAR, viaRSAG) > 1e-12 {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	_, err := Run(3, func(c *Communicator) error {
		var x *tensor.Tensor
		if c.Rank() == 1 {
			x = tensor.FromSlice([]float64{7, 8}, 2)
		}
		var got []float64
		c.Broadcast(x, 1, func(src *tensor.Tensor) { got = append(got, src.Data...) })
		if len(got) != 2 || got[0] != 7 || got[1] != 8 {
			return fmt.Errorf("broadcast = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSequentialCollectivesDoNotInterleave(t *testing.T) {
	// Back-to-back collectives with different values must not bleed into
	// each other even when ranks race.
	_, err := Run(4, func(c *Communicator) error {
		for i := 0; i < 50; i++ {
			x := tensor.Full(float64(i*10+c.Rank()), 1)
			s := c.AllReduceInto(tensor.New(1), x)
			want := float64(4*10*i + 0 + 1 + 2 + 3)
			if s.Data[0] != want {
				return fmt.Errorf("iter %d: sum %v, want %v", i, s.Data[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	_, err := Run(3, func(c *Communicator) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		// Other ranks block on a collective; the abort must release them.
		defer func() { recover() }() // swallow ErrAborted panic
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := Run(2, func(c *Communicator) error {
		if c.Rank() == 0 {
			panic("rank zero exploded")
		}
		defer func() { recover() }()
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("err = %v, want panic text", err)
	}
}

func TestRunPrefersRootCauseOverAbortCascade(t *testing.T) {
	// Rank 0 blocks in a collective and is released by rank 1's failure with
	// an ErrAborted panic; Run must report rank 1's error, not the cascade.
	boom := errors.New("root cause")
	g, err := Run(2, func(c *Communicator) error {
		if c.Rank() == 1 {
			return boom
		}
		c.Barrier() // released by abort; the ErrAborted panic reaches Run's recover
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	g.mu.Lock()
	aborted := g.aborted
	g.mu.Unlock()
	if !aborted {
		t.Fatal("group should report aborted")
	}
}

func TestTrafficLedgerPhases(t *testing.T) {
	g, err := Run(2, func(c *Communicator) error {
		c.SetPhase("forward")
		c.AllGatherEach(tensor.Full(1, 10), func(int, *tensor.Tensor) {})
		c.SetPhase("backward")
		// no collectives in backward
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Traffic().BytesInPhase("backward") != 0 {
		t.Fatal("backward phase must have zero bytes")
	}
	fwd := g.Traffic().BytesInPhase("forward")
	// Each rank relays the other's 10 elements: 2 ranks * 10 elems * 8 B.
	if fwd != 2*10*8 {
		t.Fatalf("forward bytes = %d, want 160", fwd)
	}
	if g.Traffic().CallsFor(0, "forward", OpAllGather) != 1 {
		t.Fatal("call count wrong")
	}
}

func TestTrafficAllReduceVolume(t *testing.T) {
	g, err := Run(4, func(c *Communicator) error {
		c.SetPhase("sync")
		c.AllReduceInto(tensor.New(8), tensor.Full(1, 8))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ring all-reduce: 2*(n-1)/n * numel elements per rank = 2*3/4*8 = 12
	// elements = 96 bytes per rank, 4 ranks.
	if got := g.Traffic().BytesInPhase("sync"); got != 4*12*8 {
		t.Fatalf("allreduce bytes = %d, want 384", got)
	}
}

func TestTrafficStringAndReset(t *testing.T) {
	g, err := Run(2, func(c *Communicator) error {
		c.AllReduceInto(tensor.New(2), tensor.Full(1, 2))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.Traffic().String(), "allreduce") {
		t.Fatal("String missing op name")
	}
	g.Traffic().Reset()
	if g.Traffic().TotalBytes() != 0 {
		t.Fatal("Reset did not clear ledger")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// All ranks must observe every other rank's pre-barrier write after the
	// barrier. The exchange itself is the synchronization point.
	const size = 8
	flags := make([]int32, size)
	_, err := Run(size, func(c *Communicator) error {
		flags[c.Rank()] = 1
		c.Barrier()
		for r, f := range flags {
			if f != 1 {
				return fmt.Errorf("rank %d not visible after barrier", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewGroup(0)
}

func TestCommRankValidation(t *testing.T) {
	g := NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad rank")
		}
	}()
	g.Comm(2)
}
