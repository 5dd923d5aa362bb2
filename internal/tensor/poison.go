package tensor

import "math"

// poisoning is set while WithPoisonedLends runs f.
var poisoning bool

// Poison fills the whole capacity of each non-nil t with NaN while lent
// buffers are poisoned, and does nothing otherwise. A lender that hands
// buffers to a borrower for one call (a stage's backward workspaces, its
// Q/K/V buffer, a block stack's workspace) calls it on everything the
// borrower finds there but what it hands over explicitly: a borrower that
// reads a leftover of an earlier borrower then reads NaN, which reaches its
// results, instead of a value today's call order happens to make right.
func Poison(ts ...*Tensor) {
	if !poisoning {
		return
	}
	for _, t := range ts {
		if t != nil {
			d := t.Data[:cap(t.Data)]
			for i := range d {
				d[i] = math.NaN()
			}
		}
	}
}

// WithPoisonedLends runs f with lent buffers poisoned, then stops: the aliasing
// oracle of the lent buffers. Tests of other packages run a stage or a model
// under it and hold the results to an unpoisoned run bit for bit; no other
// goroutine may call into a lender while it starts or ends.
func WithPoisonedLends(f func()) {
	defer func() { poisoning = false }()
	poisoning = true
	f()
}
