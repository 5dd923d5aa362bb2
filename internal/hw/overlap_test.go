package hw

import "testing"

func TestOverlapBudgetHideBounds(t *testing.T) {
	b := NewOverlapBudget(1.0)
	// factor 1, window and budget ample: everything hides.
	if got := b.Hide(0.3, 1.0, 1.0); got != 0 {
		t.Fatalf("fully hideable stream exposed %v, want 0", got)
	}
	if got := b.remaining; got != 0.7 {
		t.Fatalf("remaining = %v, want 0.7", got)
	}
	// Window caps the hidden portion even with budget left.
	if got := b.Hide(0.5, 0.2, 1.0); got != 0.3 {
		t.Fatalf("window-capped stream exposed %v, want 0.3", got)
	}
	// Budget caps the hidden portion once earlier streams drained it.
	if got := b.Hide(10.0, 10.0, 1.0); got != 10.0-0.5 {
		t.Fatalf("budget-capped stream exposed %v, want 9.5", got)
	}
	if b.remaining != 0 {
		t.Fatalf("budget must be drained, remaining %v", b.remaining)
	}
	// A drained budget exposes everything.
	if got := b.Hide(0.4, 1.0, 1.0); got != 0.4 {
		t.Fatalf("drained budget exposed %v, want 0.4", got)
	}
}

func TestOverlapBudgetFactorZeroIsSerialBitForBit(t *testing.T) {
	b := NewOverlapBudget(5.0)
	comm := 0.123456789
	if got := b.Hide(comm, 5.0, 0); got != comm {
		t.Fatalf("factor 0 exposed %v, want comm %v unchanged", got, comm)
	}
	if b.remaining != 5.0 {
		t.Fatal("factor 0 must not consume budget")
	}
}

func TestOverlapBudgetClamps(t *testing.T) {
	b := NewOverlapBudget(-1)
	if b.remaining != 0 {
		t.Fatal("negative compute must clamp to an empty budget")
	}
	if got := b.Hide(1.0, 1.0, 1.0); got != 1.0 {
		t.Fatal("empty budget must expose everything")
	}
	b = NewOverlapBudget(10)
	// factor > 1 clamps to 1; negative window clamps to 0.
	if got := b.Hide(2.0, 5.0, 3.0); got != 0 {
		t.Fatalf("factor > 1 must clamp to full hiding, exposed %v", got)
	}
	if got := b.Hide(2.0, -1, 1.0); got != 2.0 {
		t.Fatalf("negative window must hide nothing, exposed %v", got)
	}
	if got := b.Hide(0, 5, 1); got != 0 {
		t.Fatalf("zero comm must expose zero, got %v", got)
	}
	if got := b.Hide(-3, 5, 1); got != 0 {
		t.Fatalf("negative comm must expose zero, got %v", got)
	}
}

func TestOverlapBudgetMonotoneInFactor(t *testing.T) {
	// Exposed time is non-increasing as the factor rises, all else equal.
	prev := 2.0 + 1
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b := NewOverlapBudget(0.8)
		got := b.Hide(2.0, 0.6, f)
		if got > prev {
			t.Fatalf("exposed rose from %v to %v at factor %v", prev, got, f)
		}
		prev = got
	}
}
