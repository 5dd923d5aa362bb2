package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/promtext"
)

// scrape fetches url and parses it as Prometheus text format, failing
// the test on anything a strict scraper would reject.
func scrape(t *testing.T, url string) promtext.Families {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("metrics page does not parse: %v", err)
	}
	return fams
}

// TestEngineMetricsEndpoint round-trips GET /metrics through the
// text-format parser and pins the exported series against the engine's
// own snapshot.
func TestEngineMetricsEndpoint(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{
		Ranks: 1, Replicas: 1, MaxBatch: 2, MaxWait: time.Millisecond,
		CacheBytes: 1 << 20,
	}, FromArch(a))
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	x := testInput(a, 31, a.ImgH, a.ImgW)
	if _, err := e.Do(context.Background(), &Request{Input: x.Clone()}); err != nil {
		t.Fatal(err)
	}
	// Same content again: a cache hit.
	if _, err := e.Do(context.Background(), &Request{Input: x.Clone()}); err != nil {
		t.Fatal(err)
	}

	fams := scrape(t, srv.URL+"/metrics")
	s := e.Metrics().Snapshot()
	for name, want := range map[string]float64{
		"dchag_requests_completed_total": float64(s.Completed),
		"dchag_requests_rejected_total":  float64(s.Rejected),
		"dchag_batches_total":            float64(s.Batches),
		"dchag_cache_hits_total":         float64(s.CacheHits),
		"dchag_cache_misses_total":       float64(s.CacheMisses),
		"dchag_swaps_total":              float64(s.Swaps),
	} {
		got, ok := fams.Value(name, nil)
		if !ok {
			t.Fatalf("series %s missing from /metrics", name)
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if s.Completed < 1 || s.CacheHits < 1 {
		t.Fatalf("test did not exercise both a forward and a hit: %+v", s)
	}
	if _, ok := fams.Value("dchag_total_latency_ms", map[string]string{"quantile": "0.99"}); !ok {
		t.Fatal("latency quantile series missing")
	}
	bi, ok := fams["dchag_build_info"]
	if !ok || len(bi.Samples) != 1 || bi.Samples[0].Value != 1 {
		t.Fatalf("dchag_build_info missing or wrong: %+v", bi)
	}
	if bi.Samples[0].Labels["go_version"] == "" {
		t.Fatal("build info has no go_version label")
	}
	if bi.Type != "gauge" {
		t.Fatalf("dchag_build_info type %q, want gauge", bi.Type)
	}
}

// TestServeTraceLifecycle runs a traced engine end to end and checks the
// request lifecycle appears on the tracer: front-end events on the last
// row, an infer span on a worker row, and a valid Chrome export.
func TestServeTraceLifecycle(t *testing.T) {
	a := testArch()
	tr := obs.NewTracer(2*1+1, 256) // ranks*replicas + engine row
	e := startTest(t, Config{
		Ranks: 2, Replicas: 1, MaxBatch: 2, MaxWait: time.Millisecond,
		CacheBytes: 1 << 20, Trace: tr,
	}, FromArch(a))

	x := testInput(a, 91, a.ImgH, a.ImgW)
	for i := 0; i < 2; i++ { // second submit hits the cache
		if _, err := e.Do(context.Background(), &Request{Input: x.Clone()}); err != nil {
			t.Fatal(err)
		}
	}

	names := func(row int) map[string]int {
		out := map[string]int{}
		for _, ev := range tr.Events(row) {
			out[ev.Name]++
		}
		return out
	}
	front := names(tr.Rows() - 1)
	for _, want := range []string{"enqueue", "batch-collect", "batch-assemble", "dispatch-wait", "respond", "cache-fill", "cache-hit"} {
		if front[want] == 0 {
			t.Errorf("front-end row missing %q event; have %v", want, front)
		}
	}
	if names(0)["infer"] == 0 {
		t.Errorf("worker row 0 has no infer span; have %v", names(0))
	}
	// The 2-rank TP group broadcasts control and batch: comm spans too.
	if names(1)["broadcast"] == 0 {
		t.Errorf("worker row 1 has no broadcast span; have %v", names(1))
	}
}
