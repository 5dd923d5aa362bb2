package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
)

// promWriter emits Prometheus text exposition format (0.0.4). HELP/TYPE
// headers are written once per family, on the family's first sample —
// the format requires TYPE before any sample of its family.
type promWriter struct {
	w     io.Writer
	typed map[string]bool
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, typed: map[string]bool{}}
}

// sample writes one series sample, declaring the family on first use.
// labels are emitted in the given order (callers keep them sorted for a
// byte-deterministic page).
func (p *promWriter) sample(name, typ, help string, labels [][2]string, v float64) {
	if !p.typed[name] {
		fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		p.typed[name] = true
	}
	io.WriteString(p.w, name)
	if len(labels) > 0 {
		io.WriteString(p.w, "{")
		for i, kv := range labels {
			if i > 0 {
				io.WriteString(p.w, ",")
			}
			fmt.Fprintf(p.w, "%s=%q", kv[0], escapeLabel(kv[1]))
		}
		io.WriteString(p.w, "}")
	}
	fmt.Fprintf(p.w, " %s\n", strconv.FormatFloat(v, 'g', -1, 64))
}

// escapeLabel applies the exposition format's label-value escapes. %q
// already handles \\ and \"; newlines must become \n explicitly.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeBuildInfo emits the dchag_build_info gauge: constant 1 with the
// binary's identity as labels, the convention Prometheus ecosystems use
// for joining version metadata onto any series.
func writeBuildInfo(p *promWriter) {
	bi := buildinfo.Get()
	labels := [][2]string{
		{"go_version", bi.GoVersion},
		{"module", bi.Main},
		{"version", bi.Version},
	}
	if bi.Revision != "" {
		labels = append(labels, [2]string{"revision", bi.Revision})
	}
	p.sample("dchag_build_info", "gauge",
		"Build metadata of the serving binary (value is always 1).", labels, 1)
}

// writeSnapshot emits the engine's metrics snapshot.
func writeSnapshot(p *promWriter, s Snapshot) {
	counter := func(name, help string, v float64) {
		p.sample(name, "counter", help, nil, v)
	}
	gauge := func(name, help string, v float64) {
		p.sample(name, "gauge", help, nil, v)
	}
	counter("dchag_requests_completed_total", "Requests served by a forward pass.", float64(s.Completed))
	counter("dchag_requests_rejected_total", "Requests refused at admission (queue full).", float64(s.Rejected))
	counter("dchag_requests_failed_total", "Requests failed by engine shutdown.", float64(s.Failed))
	counter("dchag_batches_total", "Micro-batches dispatched to the mesh.", float64(s.Batches))
	gauge("dchag_batch_size_mean", "Mean requests per dispatched micro-batch.", s.MeanBatch)
	gauge("dchag_queue_depth_max", "Deepest request queue observed at submission.", float64(s.MaxQueueDepth))
	counter("dchag_cache_hits_total", "Responses answered from the content-addressable cache.", float64(s.CacheHits))
	counter("dchag_cache_misses_total", "Cache misses that owned their forward.", float64(s.CacheMisses))
	counter("dchag_cache_coalesced_total", "Requests coalesced onto an identical in-flight forward.", float64(s.CacheCoalesced))
	counter("dchag_swaps_total", "Completed hot checkpoint swaps.", float64(s.Swaps))
	gauge("dchag_uptime_seconds", "Seconds since the engine started.", s.ElapsedSeconds)
	gauge("dchag_throughput_rps", "Completed requests per second since start.", s.ThroughputRPS)
	quantile := func(name, help, q string, v float64) {
		p.sample(name, "gauge", help, [][2]string{{"quantile", q}}, v)
	}
	quantile("dchag_queued_latency_ms", "Time waiting for the micro-batch to form, by quantile.", "0.5", s.QueuedP50Ms)
	quantile("dchag_queued_latency_ms", "Time waiting for the micro-batch to form, by quantile.", "0.99", s.QueuedP99Ms)
	quantile("dchag_total_latency_ms", "Enqueue-to-response latency, by quantile.", "0.5", s.TotalP50Ms)
	quantile("dchag_total_latency_ms", "Enqueue-to-response latency, by quantile.", "0.95", s.TotalP95Ms)
	quantile("dchag_total_latency_ms", "Enqueue-to-response latency, by quantile.", "0.99", s.TotalP99Ms)
	quantile("dchag_cache_hit_latency_ms", "Submit-to-answer latency of cache hits, by quantile.", "0.5", s.HitP50Ms)
	quantile("dchag_cache_hit_latency_ms", "Submit-to-answer latency of cache hits, by quantile.", "0.99", s.HitP99Ms)
}

// handleMetrics serves GET /metrics.
func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := newPromWriter(w)
	writeBuildInfo(p)
	writeSnapshot(p, e.metrics.Snapshot())
}
