package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

func TestNilTracerIsSafeEverywhere(t *testing.T) {
	var tr *Tracer
	if tr.Rows() != 0 {
		t.Fatalf("nil tracer rows = %d, want 0", tr.Rows())
	}
	r := tr.Rank(0)
	if r != nil {
		t.Fatalf("nil tracer Rank(0) = %v, want nil", r)
	}
	// Every record entry point must be a no-op on the nil row.
	sp := r.Begin("x", "y")
	sp.End()
	sp.EndBytes(7)
	r.Instant("x", "y")
	if got := r.Events(); got != nil {
		t.Fatalf("nil rank Events = %v, want nil", got)
	}
	tr.SetMeta("k", "v")
	tr.SetRowName(0, "n")
	if tr.Meta() != nil {
		t.Fatalf("nil tracer Meta = %v, want nil", tr.Meta())
	}
}

func TestSpanAndInstantRecording(t *testing.T) {
	tr := NewTracer(2, 8)
	sp := tr.Rank(0).Begin("allreduce", "comm/tp")
	time.Sleep(time.Millisecond)
	sp.EndBytes(4096)
	tr.Rank(1).Instant("rank-death", "elastic")

	evs := tr.Events(0)
	if len(evs) != 1 {
		t.Fatalf("row 0 has %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "allreduce" || ev.Cat != "comm/tp" || ev.Ph != 'X' || ev.Bytes != 4096 {
		t.Fatalf("unexpected span event %+v", ev)
	}
	if ev.Dur <= 0 {
		t.Fatalf("span duration %v, want > 0", ev.Dur)
	}
	ins := tr.Events(1)
	if len(ins) != 1 || ins[0].Ph != 'i' || ins[0].Name != "rank-death" {
		t.Fatalf("unexpected instant events %+v", ins)
	}
}

func TestRingOverwriteKeepsNewestAndCountsDropped(t *testing.T) {
	tr := NewTracer(1, 4)
	r := tr.Rank(0)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range names {
		r.Instant(n, "t")
	}
	evs := tr.Events(0)
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, want := range []string{"c", "d", "e", "f"} {
		if evs[i].Name != want {
			t.Fatalf("event %d = %q, want %q (ring should keep newest)", i, evs[i].Name, want)
		}
	}
	if got := tr.Dropped(0); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
}

func TestStaleSpanEndIsNoOp(t *testing.T) {
	tr := NewTracer(1, 2)
	r := tr.Rank(0)
	sp := r.Begin("victim", "t")
	// Lap the ring so the span's slot now holds a different event.
	r.Instant("x", "t")
	r.Instant("y", "t")
	r.Instant("z", "t")
	sp.EndBytes(999)
	for _, ev := range tr.Events(0) {
		if ev.Bytes == 999 || ev.Name == "victim" {
			t.Fatalf("stale End mutated a lapped slot: %+v", ev)
		}
	}
}

func TestRecordPathDoesNotAllocate(t *testing.T) {
	tr := NewTracer(1, 1024)
	r := tr.Rank(0)
	if allocs := testing.AllocsPerRun(200, func() {
		sp := r.Begin("allreduce", "comm/tp")
		sp.EndBytes(1024)
		r.Instant("tick", "t")
	}); allocs != 0 {
		t.Fatalf("enabled record path allocates %.1f per op, want 0", allocs)
	}
	var off *Rank
	if allocs := testing.AllocsPerRun(200, func() {
		sp := off.Begin("allreduce", "comm/tp")
		sp.End()
		off.Instant("tick", "t")
	}); allocs != 0 {
		t.Fatalf("disabled record path allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentRecordOnSharedRow(t *testing.T) {
	tr := NewTracer(1, 1<<12)
	r := tr.Rank(0)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := r.Begin("op", "t")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events(0)); got != workers*per {
		t.Fatalf("recorded %d events, want %d", got, workers*per)
	}
}

func TestChromeTraceExportValidates(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.SetMeta("version", "test")
	tr.SetRowName(1, "supervisor")
	sp := tr.Rank(0).Begin("forward", "train")
	sp.End()
	tr.Rank(1).Instant("generation-start", "elastic")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"thread_name"`, `"supervisor"`, `"forward"`, `"generation-start"`, `"version"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("exported trace missing %s:\n%s", want, out)
		}
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `]`,
		"no traceEvents": `{"metadata":{}}`,
		"empty events":   `{"traceEvents":[]}`,
		"missing name":   `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`,
		"missing dur":    `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`,
		"bad phase":      `{"traceEvents":[{"name":"a","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"bad scope":      `{"traceEvents":[{"name":"a","ph":"i","ts":0,"s":"x","pid":0,"tid":0}]}`,
		"no scope":       `{"traceEvents":[{"name":"a","ph":"i","ts":0,"pid":0,"tid":0}]}`,
		"null numbers":   `{"traceEvents":[{"name":"a","ph":"X","pid":null,"tid":null,"ts":null,"dur":null}]}`,
		"null ts":        `{"traceEvents":[{"name":"a","ph":"i","ts":null,"s":"t","pid":0,"tid":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted malformed trace %s", name, data)
		}
	}
}

// TestCommObserverTracesCollectives drives a real 2-rank group with
// observers installed and checks every base op lands as a closed span
// with the ledger's wire volume.
func TestCommObserverTracesCollectives(t *testing.T) {
	tr := NewTracer(2, 64)
	g, err := comm.Run(2, func(c *comm.Communicator) error {
		c.SetObserver(NewCommObserver(tr.Rank(c.Rank()), CommCat("tp")))
		x := tensor.FromSlice([]float64{1, 2, 3, 4}, 4)
		c.Barrier()
		c.AllReduceInto(tensor.New(4), x)
		c.AllGatherEach(x, func(int, *tensor.Tensor) {})
		c.ReduceScatterSum(x, 0)
		c.Broadcast(x, 0, func(*tensor.Tensor) {})
		return nil
	})
	if err != nil {
		t.Fatalf("comm.Run: %v", err)
	}
	wantOps := map[string]int64{
		"barrier":       0,
		"allreduce":     2 * 4 / 2 * comm.BytesPerElem, // 2*(n-1)*numel/n
		"allgather":     4 * comm.BytesPerElem,
		"reducescatter": 4 / 2 * comm.BytesPerElem,
		"broadcast":     4 * comm.BytesPerElem,
	}
	for rank := 0; rank < 2; rank++ {
		got := map[string]int64{}
		for _, ev := range tr.Events(rank) {
			if ev.Ph != 'X' {
				t.Fatalf("rank %d: comm event %+v is not a span", rank, ev)
			}
			if ev.Cat != "comm/tp" {
				t.Fatalf("rank %d: comm event category %q", rank, ev.Cat)
			}
			got[ev.Name] = ev.Bytes
		}
		for op, bytes := range wantOps {
			b, ok := got[op]
			if !ok {
				t.Fatalf("rank %d: no span for %s (got %v)", rank, op, got)
			}
			if b != bytes {
				t.Fatalf("rank %d %s: bytes = %d, want %d", rank, op, b, bytes)
			}
		}
	}
	_ = g
}
