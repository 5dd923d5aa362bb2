package comm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/tensor"
)

// TestReduceScatterSumEqualsRankOrderedSumBitwise holds the collective to the
// oracle — each rank's chunk cut out by SplitEqual, then ((c0 + c1) + c2) + …
// — over group sizes, shapes and every axis, negative included.
func TestReduceScatterSumEqualsRankOrderedSumBitwise(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for _, shape := range [][]int{{n}, {3 * n}, {2, n, 3}, {n, 1, 5}, {4, 3, 2 * n}, {0, n}} {
			for axis := range shape {
				if shape[axis]%n != 0 {
					continue
				}
				for _, ax := range []int{axis, axis - len(shape)} {
					name := fmt.Sprintf("n%d/%v/axis%d", n, shape, ax)
					rng := tensor.NewRNG(int64(100*n + 10*axis + len(shape)))
					in := make([]*tensor.Tensor, n)
					for r := range in {
						in[r] = tensor.Randn(rng, shape...)
					}
					want := make([][]float64, n)
					for r := range want {
						chunks := make([][]float64, n)
						for q := range chunks {
							chunks[q] = tensor.SplitEqual(in[q], axis, n)[r].Data
						}
						want[r] = rankOrderedSum(chunks, 1)
					}
					_, err := Run(n, func(c *Communicator) error {
						mine := in[c.Rank()].Clone()
						got := c.ReduceScatterSum(mine, ax)
						if got.Shape[axis] != shape[axis]/n || len(got.Data) != len(want[c.Rank()]) {
							return fmt.Errorf("rank %d: result shape %v", c.Rank(), got.Shape)
						}
						for i, v := range got.Data {
							if math.Float64bits(v) != math.Float64bits(want[c.Rank()][i]) {
								return fmt.Errorf("rank %d [%d] = %x, want %x", c.Rank(), i, math.Float64bits(v), math.Float64bits(want[c.Rank()][i]))
							}
						}
						if tensor.MaxAbsDiff(mine, in[c.Rank()]) != 0 {
							return fmt.Errorf("rank %d: operand was written", c.Rank())
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestViewOperandsAreTheCallersOnReturn: the instant Broadcast or
// ReduceScatterSum returns, the caller may overwrite what it passed. The root
// rewrites its broadcast operand and every rank its reduce-scatter operand,
// 1 000 times; without the closing rendezvous a slow peer would still be
// reading a buffer its owner has begun to refill (a data race under -race, a
// wrong value without).
func TestViewOperandsAreTheCallersOnReturn(t *testing.T) {
	const n, elems, rounds = 3, 257, 1000
	_, err := Run(n, func(c *Communicator) error {
		x, seen := tensor.New(elems), tensor.New(elems)
		y := tensor.New(n * elems)
		visit := func(src *tensor.Tensor) { copy(seen.Data, src.Data) }
		for round := 0; round < rounds; round++ {
			root := round % n
			var send *tensor.Tensor
			if c.Rank() == root {
				x.Fill(float64(round))
				send = x
			}
			c.Broadcast(send, root, visit)
			x.Fill(-1)
			for i, v := range seen.Data {
				if v != float64(round) {
					return fmt.Errorf("rank %d round %d: broadcast[%d] = %v", c.Rank(), round, i, v)
				}
			}
			y.Fill(float64(round*n + c.Rank()))
			sum := c.ReduceScatterSum(y, 0)
			y.Fill(-1)
			want := float64(n*n*round + n*(n-1)/2)
			for i, v := range sum.Data {
				if v != want {
					return fmt.Errorf("rank %d round %d: reduce-scatter[%d] = %v, want %v", c.Rank(), round, i, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// killOpAt kills one rank at its first op, before or after the rendezvous.
type killOpAt struct {
	rank int
	op   Op
	pre  bool
	err  error
}

func (k killOpAt) Point(id int, op Op, pre bool) {
	if id == k.rank && op == k.op && pre == k.pre {
		panic(k.err)
	}
}

// TestViewFailuresReleaseEveryRank: a rank killed at the pre or the post point
// of Broadcast or ReduceScatterSum, and reduce-scatter operands that disagree
// in shape, each end with every rank returned, no goroutine left behind, and
// the root cause reported.
func TestViewFailuresReleaseEveryRank(t *testing.T) {
	killed := errors.New("rank killed by plan")
	type tc struct {
		name   string
		inject *killOpAt
		elems  func(rank int) int
		want   string
	}
	var cases []tc
	for _, op := range []Op{OpBroadcast, OpReduceScatter} {
		for _, pre := range []bool{true, false} {
			for _, rank := range []int{0, 2} { // the broadcast root and a peer
				cases = append(cases, tc{
					name:   fmt.Sprintf("%s/kill-rank%d-pre=%v", op, rank, pre),
					inject: &killOpAt{rank: rank, op: op, pre: pre, err: killed},
					want:   killed.Error(),
				})
			}
		}
	}
	cases = append(cases, tc{name: "reducescatter/shape-disagrees", want: "shape mismatch", elems: func(rank int) int {
		if rank == 1 {
			return 6
		}
		return 9
	}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			done := make(chan error, 1)
			go func() {
				_, err := Run(3, func(c *Communicator) error {
					if tc.inject != nil {
						c.SetFaultInjector(*tc.inject, c.Rank())
					}
					x := tensor.Full(1, 9)
					if tc.elems != nil {
						x = tensor.Full(1, tc.elems(c.Rank()))
					}
					c.Broadcast(x, 0, func(*tensor.Tensor) {})
					c.ReduceScatterSum(x, 0)
					c.Barrier() // where the survivors of a post-point kill are released
					return nil
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
				if errors.Is(err, ErrAborted) {
					t.Fatalf("err = %v is an abort cascade, not the root cause", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a rank hung in the failed collective")
			}
		})
	}
}

// TestViewCollectivesReadWhatTheLedgerRecords: a reduce-scatter reads n-1
// chunks from its peers, the (n-1)/n·N the ledger records; a broadcast shows
// each rank the root's N elements, the figure it records on every rank.
func TestViewCollectivesReadWhatTheLedgerRecords(t *testing.T) {
	for n := 1; n <= 5; n++ {
		const per = 6
		total := n * per
		read, shown := make([]int64, n), make([]int64, n)
		g, err := Run(n, func(c *Communicator) error {
			c.SetPhase("sync")
			x := tensor.Full(float64(c.Rank()), 2, total/2)
			c.ReduceScatterSum(x, -1)
			read[c.Rank()] = c.peerElems
			var send *tensor.Tensor
			if c.Rank() == n-1 {
				send = x
			}
			c.Broadcast(send, n-1, func(src *tensor.Tensor) { shown[c.Rank()] = int64(len(src.Data)) })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			tr := g.Traffic()
			if want := int64((n - 1) * total / n); read[r] != want || tr.BytesFor(r, "sync", OpReduceScatter) != want*BytesPerElem {
				t.Errorf("n=%d rank %d: reduce-scatter read %d peer elements, recorded %d bytes, a ring moves %d",
					n, r, read[r], tr.BytesFor(r, "sync", OpReduceScatter), want)
			}
			if shown[r] != int64(total) || tr.BytesFor(r, "sync", OpBroadcast) != int64(total)*BytesPerElem {
				t.Errorf("n=%d rank %d: broadcast showed %d elements, recorded %d bytes", n, r, shown[r], tr.BytesFor(r, "sync", OpBroadcast))
			}
			if tr.CallsFor(r, "sync", OpReduceScatter) != 1 || tr.CallsFor(r, "sync", OpBroadcast) != 1 {
				t.Errorf("n=%d rank %d: one collective each must be one ledger record each", n, r)
			}
		}
	}
}
