package tensor

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedArena is a run of readable, writable float64s with an inaccessible
// page directly below and directly above it.
type guardedArena struct{ data []float64 }

func newGuardedArena(t *testing.T, elems int) *guardedArena {
	t.Helper()
	page := syscall.Getpagesize()
	size := (elems*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over either way
	for _, guard := range [][]byte{mem[:page], mem[page+size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return &guardedArena{data: unsafe.Slice((*float64)(unsafe.Pointer(&mem[page])), size/8)}
}

// guardSink keeps the compiler from dropping the probing load below.
var guardSink float64

// place returns n elements that end flush against the upper guard page, or
// that begin right after the lower one.
func (g *guardedArena) place(n int, atEnd bool) []float64 {
	if atEnd {
		return g.data[len(g.data)-n:]
	}
	return g.data[:n:n]
}

// TestKernelsStayInsideOperands runs every product entry point with each of
// A, B and C — and the epilogue's bias row and residual, where the entry
// takes them — in its own guarded arena, once ending flush against an
// inaccessible page, once beginning right after one, over the shapes that
// cross the tile edges and straddle kc, under every kernel tier the machine
// has (under AVX-512 a column panel pair reads B's second panel too), and
// the row-accumulate over ragged widths. Now that the kernels read operands
// where they lie, a kernel (or a pack routine) that reads or writes a single
// element outside an operand faults here instead of picking up a
// neighbour's bytes unnoticed.
func TestKernelsStayInsideOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const arenaElems = 1 << 18 // the largest operand below: 300 x 513
	var arenas [5]*guardedArena
	for i := range arenas {
		arenas[i] = newGuardedArena(t, arenaElems)
	}
	faults := func(f func()) (fault any) {
		defer func() { fault = recover() }()
		f()
		return nil
	}
	// The arena does fault: one element past either end is not addressable.
	for _, atEnd := range []bool{true, false} {
		s, off := arenas[0].place(8, atEnd), -8
		if atEnd {
			off = 8 * 8
		}
		if faults(func() { guardSink = *(*float64)(unsafe.Add(unsafe.Pointer(&s[0]), off)) }) == nil {
			t.Fatalf("reading outside the arena (atEnd=%v) did not fault: the test cannot see an overrun", atEnd)
		}
	}

	withEveryTier(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // per goroutine, and a subtest is one
		for _, atEnd := range []bool{true, false} {
			for _, e := range driverEntries {
				for _, sh := range productShapes() {
					m, k, n := sh[0], sh[1], sh[2]
					if e.batched && m*k*n > 1<<18 {
						continue
					}
					for _, strided := range e.layouts() {
						next := 0
						dst, a, b, ep, alpha := e.operands(m, k, n, strided, func(elems int) []float64 {
							next++
							return arenas[next-1].place(elems, atEnd)
						})
						if fault := faults(func() { e.call(dst, a, b, alpha, ep) }); fault != nil {
							t.Fatalf("%s %v strided=%v atEnd=%v kernel=%s: touched memory outside an operand: %v",
								e.name, sh, strided, atEnd, KernelTier(), fault)
						}
					}
				}
			}
			// BatchedAffineInto's per-member bias rows, the last member's
			// ending flush against the page.
			for _, g := range []int{1, 3} {
				for _, n := range []int{1, 5, 8, 12, 32} {
					const rows, k = 9, 4
					p, w := arenas[0].place(g*rows*k, atEnd), arenas[1].place(g*k*n, atEnd)
					dst, bias := arenas[2].place(rows*g*n, atEnd), arenas[3].place(g*n, atEnd)
					if fault := faults(func() {
						BatchedAffineInto(HeadView(FromSlice(dst, 1, rows, g*n), g), MatView(FromSlice(p, g, rows, k)), MatView(FromSlice(w, g, k, n)), 1, bias)
					}); fault != nil {
						t.Fatalf("BatchedAffineInto g=%d n=%d atEnd=%v kernel=%s: touched memory outside an operand: %v", g, n, atEnd, KernelTier(), fault)
					}
				}
			}
			for _, rows := range []int{1, 3, 17} {
				for n := 1; n <= 37; n++ {
					for _, weighted := range []bool{false, true} {
						ld := n + n%3
						dst, src := arenas[0].place(n, atEnd), arenas[1].place((rows-1)*ld+n, atEnd)
						var w []float64
						if weighted {
							w = arenas[2].place(rows, atEnd)
						}
						if fault := faults(func() { AccumRows(dst, src, ld, rows, w) }); fault != nil {
							t.Fatalf("AccumRows rows=%d n=%d ld=%d weighted=%v atEnd=%v kernel=%s: touched memory outside an operand: %v",
								rows, n, ld, weighted, atEnd, KernelTier(), fault)
						}
					}
				}
			}
		}
	})
}
