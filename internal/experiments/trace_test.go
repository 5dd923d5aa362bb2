package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
)

// TestTraceBenchAgrees pins the schedule-and-byte-accounting invariant:
// traced wire volumes, inverted and priced with the model's own formulas,
// reproduce the analytic per-axis time exactly (1e-9), and every rank
// traced exactly the spans the schedule issues.
func TestTraceBenchAgrees(t *testing.T) {
	rep, tr, err := RunTraceBench()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agrees {
		t.Fatalf("accounting disagrees: max ratio err %g, %d rank rows off schedule", rep.MaxRatioErr, rep.SpanCountErr)
	}
	if len(rep.Axes) != int(dist.NumAxes) {
		t.Fatalf("report has %d axes, want %d", len(rep.Axes), dist.NumAxes)
	}
	// Per rank: TP 4L+2 AllReduces + 1 AllGather at L = 2, FSDP 2
	// AllGathers + 1 ReduceScatter, DP 1 AllReduce; world 8.
	wantSpans := map[string]int{"tp": 11 * 8, "fsdp": 3 * 8, "dp": 1 * 8}
	for _, a := range rep.Axes {
		if a.Spans != wantSpans[a.Axis] {
			t.Errorf("axis %s traced %d spans, want %d", a.Axis, a.Spans, wantSpans[a.Axis])
		}
		if a.WireBytes == 0 || a.TracedSeconds == 0 {
			t.Errorf("axis %s traced nothing: %+v", a.Axis, a)
		}
		if a.ModeledSeconds == 0 {
			t.Errorf("axis %s has no modeled schedule — the 2x2x2 strategy must exercise every axis", a.Axis)
		}
		if math.Abs(a.Ratio-1) > 1e-9 {
			t.Errorf("axis %s ratio %.12f is not 1 within 1e-9", a.Axis, a.Ratio)
		}
	}
	if rep.Events != 120 {
		t.Errorf("%d priced spans, want 120", rep.Events)
	}
	// The tracer must hold a per-rank view exportable to Chrome JSON.
	if tr.Rows() != rep.World {
		t.Fatalf("tracer rows %d, want world %d", tr.Rows(), rep.World)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("bench trace does not validate: %v", err)
	}
}

// TestTraceBenchCatchesMissingCollective runs a schedule one TP AllReduce
// short on rank 0 (and on its TP peer, rank 1: a rendezvous one side skips
// never completes). The other three TP groups still gate the axis time, so
// every ratio stays 1 — only the per-rank span count sees the loss.
func TestTraceBenchCatchesMissingCollective(t *testing.T) {
	rep, _, err := runTraceBench(func(rank int, m *dist.Mesh, s traceSizes) error {
		if m.GroupOf(dist.AxisTP, rank) == 0 {
			s.tpAllReduces--
		}
		return traceSchedule(rank, m, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agrees {
		t.Fatalf("a schedule missing one collective agrees: %+v", rep)
	}
	if rep.SpanCountErr != 2 {
		t.Errorf("SpanCountErr = %d, want 2 (one span on each of ranks 0 and 1)", rep.SpanCountErr)
	}
	if rep.MaxRatioErr > 1e-9 {
		t.Errorf("max ratio err %g: the worst TP group should still price the full schedule", rep.MaxRatioErr)
	}
}

// TestTraceBenchDeterministic: no wall clock enters the report, so two
// runs are equal field for field.
func TestTraceBenchDeterministic(t *testing.T) {
	a, _, err := RunTraceBench()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunTraceBench()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("trace reports differ between runs:\n%+v\n%+v", a, b)
	}
}
