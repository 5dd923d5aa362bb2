package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/tensor"
)

// splitList cuts total elements into count tensors at boundaries drawn from
// rng (empty tensors included), so the ranks' n slices cut through them.
func splitList(rng *rand.Rand, total, count int) []int {
	cuts := make([]int, count+1)
	for i := 1; i < count; i++ {
		cuts[i] = rng.Intn(total + 1)
	}
	cuts[count] = total
	sort.Ints(cuts)
	sizes := make([]int, count)
	for i := range sizes {
		sizes[i] = cuts[i+1] - cuts[i]
	}
	return sizes
}

// rankOrderedSum is the oracle: ((s0 + s1) + s2) + ... per element, then the
// scale — the order the clone-and-add all-reduce summed in.
func rankOrderedSum(srcs [][]float64, scale float64) []float64 {
	out := append([]float64(nil), srcs[0]...)
	for _, s := range srcs[1:] {
		for i, v := range s {
			out[i] += v
		}
	}
	for i := range out {
		out[i] *= scale
	}
	return out
}

// TestAllReduceEqualsRankOrderedSumBitwise holds the collective to the oracle
// over group sizes, lengths around the slice boundaries, list shapes, both
// destinations and both scales.
func TestAllReduceEqualsRankOrderedSumBitwise(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for _, total := range []int{0, 1, n - 1, n, n + 1, 10007} {
			for count := 1; count <= 7; count++ {
				for _, inPlace := range []bool{false, true} {
					for _, scale := range []float64{1, 1 / float64(n+2)} {
						name := fmt.Sprintf("n%d/N%d/L%d/inplace=%v/scale=%v", n, total, count, inPlace, scale)
						rng := tensor.NewRNG(int64(1000*n + 10*total + count))
						sizes := splitList(rng, total, count)
						flat := make([][]float64, n)
						for r := range flat {
							flat[r] = tensor.Randn(rng, total).Data
						}
						want := rankOrderedSum(flat, scale)
						_, err := Run(n, func(c *Communicator) error {
							src := make([]*tensor.Tensor, count)
							dst := make([]*tensor.Tensor, count)
							off := 0
							for k, sz := range sizes {
								src[k] = tensor.FromSlice(append([]float64(nil), flat[c.Rank()][off:off+sz]...), sz)
								dst[k] = src[k]
								if !inPlace {
									dst[k] = tensor.Full(math.NaN(), sz)
								}
								off += sz
							}
							c.AllReduce(dst, src, scale)
							off = 0
							for k, sz := range sizes {
								for i := 0; i < sz; i++ {
									if got := dst[k].Data[i]; math.Float64bits(got) != math.Float64bits(want[off+i]) {
										return fmt.Errorf("rank %d tensor %d[%d] = %x, want %x", c.Rank(), k, i, math.Float64bits(got), math.Float64bits(want[off+i]))
									}
									if !inPlace && src[k].Data[i] != flat[c.Rank()][off+i] {
										return fmt.Errorf("rank %d src tensor %d[%d] was written", c.Rank(), k, i)
									}
								}
								off += sz
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
}

// TestAllReduceOperandsAreTheCallersOnReturn is the view rule's other half:
// the instant the collective returns, a rank may overwrite what it passed.
// Every rank does, 1 000 times; the closing rendezvous is what makes that
// legal, and without it a slow peer is still copying its slice out of the
// buffer a fast rank has begun to refill (a data race under -race, a wrong
// sum without).
func TestAllReduceOperandsAreTheCallersOnReturn(t *testing.T) {
	const n, elems, rounds = 4, 257, 1000
	_, err := Run(n, func(c *Communicator) error {
		x, y := tensor.New(elems), tensor.New(elems)
		for round := 0; round < rounds; round++ {
			x.Fill(float64(round*n + c.Rank()))
			want := float64(n*n*round + n*(n-1)/2)
			if round%2 == 0 {
				c.AllReduceInto(x, x)
			} else {
				c.AllReduceInto(y, x)
				x.Fill(-1) // src is the caller's again too
				x, y = y, x
			}
			for i, v := range x.Data {
				if v != want {
					return fmt.Errorf("rank %d round %d: x[%d] = %v, want %v", c.Rank(), round, i, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// killAt is the smallest FaultInjector: it kills one rank at its first
// all-reduce, before or after.
type killAt struct {
	rank int
	pre  bool
	err  error
}

func (k killAt) Point(id int, op Op, pre bool) {
	if id == k.rank && op == OpAllReduce && pre == k.pre {
		panic(k.err)
	}
}

// TestAllReduceFailuresReleaseEveryRank: a rank killed before the collective,
// a rank killed after it, and operand lists that disagree across ranks each
// end with every rank returned, no goroutine left behind, and the root cause
// — not an ErrAborted cascade — reported.
func TestAllReduceFailuresReleaseEveryRank(t *testing.T) {
	killed := errors.New("rank killed by plan")
	cases := []struct {
		name   string
		inject *killAt
		shape  func(rank int) []int // per-rank list of tensor sizes
		want   string
	}{
		{name: "kill-pre", inject: &killAt{rank: 1, pre: true, err: killed}, want: killed.Error()},
		{name: "kill-post", inject: &killAt{rank: 2, pre: false, err: killed}, want: killed.Error()},
		{name: "shape-disagrees", want: "shape mismatch", shape: func(rank int) []int {
			if rank == 2 {
				return []int{8, 5}
			}
			return []int{8, 4}
		}},
		{name: "list-length-disagrees", want: "tensors meets rank", shape: func(rank int) []int {
			if rank == 0 {
				return []int{8}
			}
			return []int{8, 4}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			done := make(chan error, 1)
			go func() {
				_, err := Run(3, func(c *Communicator) error {
					if tc.inject != nil {
						c.SetFaultInjector(*tc.inject, c.Rank())
					}
					sizes := []int{8, 4}
					if tc.shape != nil {
						sizes = tc.shape(c.Rank())
					}
					list := make([]*tensor.Tensor, len(sizes))
					for k, sz := range sizes {
						list[k] = tensor.Full(1, sz)
					}
					c.AllReduce(list, list, 1)
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

// TestAllReduceReadsWhatTheLedgerRecords keeps the accounting honest on the
// production collective: when n divides every tensor, the elements a rank
// actually read from its peers — slice by slice in the reduce, then in the
// gather — are the 2(n-1)/n*N of a ring all-reduce, the figure the ledger
// records and internal/hw prices.
func TestAllReduceReadsWhatTheLedgerRecords(t *testing.T) {
	for n := 1; n <= 5; n++ {
		sizes := []int{n * 7, n, n * 12}
		total := n * 20
		read := make([]int64, n)
		g, err := Run(n, func(c *Communicator) error {
			c.SetPhase("sync")
			list := make([]*tensor.Tensor, len(sizes))
			for k, sz := range sizes {
				list[k] = tensor.Full(float64(c.Rank()), sz)
			}
			c.AllReduce(list, list, 1)
			read[c.Rank()] = c.peerElems
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2 * (n - 1) * total / n)
		for r := 0; r < n; r++ {
			if read[r] != want {
				t.Errorf("n=%d rank %d read %d peer elements, a ring moves %d", n, r, read[r], want)
			}
			if got := g.Traffic().BytesFor(r, "sync", OpAllReduce); got != want*BytesPerElem {
				t.Errorf("n=%d rank %d recorded %d bytes, read %d", n, r, got, want*BytesPerElem)
			}
			if got := g.Traffic().CallsFor(r, "sync", OpAllReduce); got != 1 {
				t.Errorf("n=%d rank %d recorded %d calls for one collective", n, r, got)
			}
		}
	}
}

// TestAllGatherEachShowsPeersInPlace: the visitor sees every rank's tensor
// itself, in rank order, and the owner may rewrite it on return.
func TestAllGatherEachShowsPeersInPlace(t *testing.T) {
	const n, rounds = 3, 500
	owners := make([]*tensor.Tensor, n)
	_, err := Run(n, func(c *Communicator) error {
		x := tensor.New(5)
		owners[c.Rank()] = x
		for round := 0; round < rounds; round++ {
			x.Fill(float64(round*n + c.Rank()))
			next := 0
			var bad error
			c.AllGatherEach(x, func(r int, part *tensor.Tensor) {
				if r != next || part != owners[r] || part.Data[4] != float64(round*n+r) {
					bad = fmt.Errorf("rank %d round %d: visit %d saw %v (copy: %v)", c.Rank(), round, r, part.Data, part != owners[r])
				}
				next++
			})
			if bad != nil || next != n {
				return fmt.Errorf("%d visits: %v", next, bad)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewCollectivesDoNotAllocate pins the point of passing views: nothing
// is staged, so nothing is allocated (the scalar all-reduce ran twice per
// step per rank on a fresh tensor each).
func TestViewCollectivesDoNotAllocate(t *testing.T) {
	c := NewGroup(1).Comm(0)
	list := []*tensor.Tensor{tensor.Ones(100), tensor.Ones(3)}
	sink := 0.0
	visit := func(r int, part *tensor.Tensor) { sink += part.Data[0] }
	if a := testing.AllocsPerRun(20, func() {
		c.AllReduce(list, list, 0.5)
		c.AllReduceInto(list[0], list[0])
		sink += c.AllReduceScalarSum(1)
		c.AllGatherEach(list[1], visit)
	}); a != 0 {
		t.Fatalf("%v allocs per round of view collectives, want 0", a)
	}
}
