package tensor

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"
)

// TestExpKernelsStayInsideOperands runs the exponential, GELU, GELUBackward
// and softmax rows (one to three of them, out of place and in place, which
// sweeps the even rows and then the odd ones) over slices of every length
// 1..17 —
// the eight-wide body, the masked tail and both — each operand in its own
// guarded arena, once ending flush against an inaccessible page and once
// beginning right after one, under every tier, and holds every result to its
// Go twin bit for bit. A tail that loads or stores one lane past its slice
// faults here.
func TestExpKernelsStayInsideOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	var arenas [3]*guardedArena
	for i := range arenas {
		arenas[i] = newGuardedArena(t, 1<<10)
	}
	rng := NewRNG(73)
	withEveryTier(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // per goroutine, and a subtest is one
		run := func(what string, f func()) {
			t.Helper()
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s kernel=%s: %v", what, KernelTier(), r)
				}
			}()
			f()
		}
		check := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%s kernel=%s: element %d = %#x, Go twin %#x", what, KernelTier(), i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		for _, atEnd := range []bool{true, false} {
			for n := 1; n <= 17; n++ {
				x, d, g := arenas[0].place(n, atEnd), arenas[1].place(n, atEnd), arenas[2].place(n, atEnd)
				for i := range x {
					x[i], g[i] = 30*rng.NormFloat64(), rng.NormFloat64()
				}
				want := make([]float64, n)
				what := fmt.Sprintf("n=%d atEnd=%v", n, atEnd)

				run("exp "+what, func() { exp(d, x) })
				for i, v := range x {
					want[i] = expGo(v)
				}
				check("exp "+what, d, want)
				run("GELU "+what, func() { GELU(d, x) })
				geluGo(want, x)
				check("GELU "+what, d, want)
				run("GELUBackward "+what, func() { GELUBackward(d, x, g) })
				geluGradGo(want, x, g)
				check("GELUBackward "+what, d, want)

				for rows := 1; rows <= 3; rows++ {
					x, d := arenas[0].place(rows*n, atEnd), arenas[1].place(rows*n, atEnd)
					for i := range x {
						x[i] = 30 * rng.NormFloat64()
					}
					what := fmt.Sprintf("softmax %dx%d atEnd=%v", rows, n, atEnd)
					run(what, func() { SoftmaxLastDimInto(FromSlice(d, rows, n), FromSlice(x, rows, n)) })
					want := make([]float64, rows*n)
					softmaxRowsGo(want, x, n)
					check(what, d, want)
					copy(d, x)
					run(what+" in place", func() { SoftmaxLastDimInto(FromSlice(d, rows, n), FromSlice(d, rows, n)) })
					check(what+" in place", d, want)
				}
			}
		}
	})
}
