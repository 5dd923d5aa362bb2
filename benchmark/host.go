package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The reference host is a small shared virtual machine whose processors run
// up to half as fast for tens of seconds at a time, with no steal time
// reported: the same code then takes a fifth more or less from one run to the
// next (README.md, "Noise"). The untraced pass therefore times, before and
// after every episode, a fixed piece of arithmetic that belongs to the
// benchmark and not to the program, and uses it as a control variate: the
// episode's times are corrected for how much slower than undisturbed the host
// ran that arithmetic just then.
const (
	// refReps passes of refKernel are one burst.
	refReps = 2000
	// refNominalMs is how long a burst takes on the undisturbed reference
	// host: the fastest tenth of 526 bursts measured when this was written.
	refNominalMs = 170.0
	refN         = 48
	// hostSensitivity is the regression coefficient of the control variate:
	// when a burst takes x times as long, the program's own times grow by
	// about x to this power. Fitted over 50 runs of 18 s, ten per workload,
	// while the host's speed ranged from 0.5 to 0.9: the spread of ten runs
	// was smallest between 0.5 and 0.7 on every workload, and there the
	// corrected times equal those measured on the undisturbed host. The
	// program is less sensitive than the burst because it also waits: for
	// memory, for the other rank, for the scheduler.
	hostSensitivity = 0.6
)

// refKernel is a naive 48x48 float64 matrix product, repeated: it stays in
// the first-level cache and keeps the floating-point units busy, which is
// what the program's own kernels do. It shares no code with the program, so
// a change to the program cannot move it.
func refKernel(reps int) float64 {
	var a, b, c [refN * refN]float64
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	for r := 0; r < reps; r++ {
		for i := 0; i < refN; i++ {
			for k := 0; k < refN; k++ {
				aik := a[i*refN+k]
				for j := 0; j < refN; j++ {
					c[i*refN+j] += aik * b[k*refN+j]
				}
			}
		}
	}
	return c[refN+1]
}

// hostBurst runs refKernel on each of procs goroutines at once — as many as
// the workload has processors — and returns the wall time in ms, scaled to a
// full burst when reps is smaller than refReps (the quick profile's).
func hostBurst(procs, reps int) float64 {
	t0 := time.Now()
	sums := make([]float64, procs) // the results are stored so that the arithmetic is not optimised away
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = refKernel(reps)
		}()
	}
	wg.Wait()
	return ms(time.Since(t0)) * refReps / float64(reps)
}

// hostSpeed is the host's speed during an episode relative to the
// undisturbed reference host, from the bursts before and after it: 1 when
// nothing disturbs it, 0.7 when the same arithmetic takes 1/0.7 as long.
func hostSpeed(beforeMs, afterMs float64) float64 {
	return refNominalMs / ((beforeMs + afterMs) / 2)
}

// undisturbed is the factor that corrects a time measured at the given host
// speed to the time the undisturbed host would have taken.
func undisturbed(speed float64) float64 { return math.Pow(speed, hostSensitivity) }

// burst times one burst on every processor the workload runs at; the quick
// profile, which measures nothing, runs a hundredth of one.
func (r *run) burst() float64 {
	reps := refReps
	if r.quick {
		reps /= 100
	}
	return hostBurst(runtime.GOMAXPROCS(0), reps)
}
