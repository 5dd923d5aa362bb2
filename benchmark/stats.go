package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p percent of the sample
// at or below it. An empty sample yields 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := nearestRank(p, len(asc))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// nearestRank is ceil(p/100 * n), computed so that a product that is a whole
// number in exact arithmetic is not pushed up by rounding.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median is the nearest-rank 50th percentile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tailLadder lists the percentiles tailPercentile chooses from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that still has
// at least ten samples beyond it in a sample of size n, or 0 when even the
// median does not (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanSums is one traced step of one rank: per span key, the total time of
// the spans with that key, their self time (total minus the time their
// child spans cover) and their count.
type spanSums struct {
	wall  float64 // the step span's own duration, ms
	top   float64 // time covered by the step span's direct children, ms
	total map[string]float64
	self  map[string]float64
	calls map[string]int
}

// spanKey names a span in a breakdown: collectives are grouped by their
// axis category ("comm/tp", "comm/dp"), everything else by span name.
func spanKey(e obs.Event) string {
	if len(e.Cat) > 5 && e.Cat[:5] == "comm/" {
		return e.Cat
	}
	return e.Name
}

// stepBreakdown splits one row's events into traced steps. A row belongs to
// one rank goroutine, so its spans nest properly: a span's children are the
// spans that begin and end inside it, and its self time is its duration
// minus the durations of its direct children. Spans outside a "step" span
// and instants are ignored.
func stepBreakdown(events []obs.Event) []spanSums {
	type open struct {
		ev       obs.Event
		children time.Duration
	}
	var steps []spanSums
	var stack []open
	var cur *spanSums
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			stack[len(stack)-1].children += top.ev.Dur
		}
		if len(stack) == 0 { // the step span itself
			cur.wall = ms(top.ev.Dur)
			cur.top = ms(top.children)
			steps = append(steps, *cur)
			cur = nil
			return
		}
		k := spanKey(top.ev)
		cur.total[k] += ms(top.ev.Dur)
		cur.self[k] += ms(top.ev.Dur - top.children)
		cur.calls[k]++
	}
	for _, e := range events {
		if e.Ph != 'X' {
			continue
		}
		for len(stack) > 0 && e.Start >= stack[len(stack)-1].ev.Start+stack[len(stack)-1].ev.Dur {
			closeTop()
		}
		if len(stack) == 0 {
			if e.Name != "step" {
				continue
			}
			cur = &spanSums{total: map[string]float64{}, self: map[string]float64{}, calls: map[string]int{}}
		}
		stack = append(stack, open{ev: e})
	}
	for len(stack) > 0 {
		closeTop()
	}
	return steps
}
