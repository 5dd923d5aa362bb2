// Command dchag-trace is the observability driver: it replays the
// analytic model's per-axis collective schedule on a real traced 2x2x2
// mesh, prices the traced wire bytes with the model's own formulas and
// sets them against perfmodel (a schedule-and-byte-accounting invariant:
// exact agreement, no clock), and exports the raw trace as Chrome
// trace-event JSON viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Examples:
//
//	dchag-trace                      # print the accounting table
//	dchag-trace -chrome trace.json   # export the traced mesh run
//	dchag-trace -train train.json    # trace a 4-rank hybrid training run
//	dchag-trace -smoke               # hermetic end-to-end smoke (CI)
//
// -smoke runs the whole observability surface hermetically: a traced
// 4-rank hybrid training run exported and validated against the Chrome
// trace-event schema, the byte-accounting invariant (ratio 1 within 1e-9,
// exact span counts per rank), and a traced serving engine's GET /metrics
// scraped through the strict Prometheus text-format parser.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/promtext"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dchag-trace: ")
	var (
		chromePath = flag.String("chrome", "", "export the traced bench mesh run as Chrome trace-event JSON to this path")
		trainPath  = flag.String("train", "", "trace a 4-rank (TP=2 x DP=2) hybrid training run and export it to this path")
		smoke      = flag.Bool("smoke", false, "run the hermetic observability smoke check and exit")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if *smoke {
		runSmoke()
		return
	}
	if *trainPath != "" {
		tr, err := tracedTrainingRun()
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteChromeTraceFile(*trainPath, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d rank rows)\n", *trainPath, tr.Rows())
		if *chromePath == "" {
			return
		}
	}

	if *chromePath != "" {
		rep, tr, err := experiments.RunTraceBench()
		if err != nil {
			log.Fatal(err)
		}
		stamp(tr)
		if err := obs.WriteChromeTraceFile(*chromePath, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events over %d rows)\n", *chromePath, rep.Events, tr.Rows())
		return
	}
	e, _ := experiments.Find("trace")
	fmt.Print(e.Run())
}

// stamp adds the build identity to a tracer's exported metadata.
func stamp(tr *obs.Tracer) {
	for k, v := range buildinfo.Get().Meta() {
		tr.SetMeta(k, v)
	}
}

// smokeArch is the tiny MAE architecture the traced runs use.
func smokeArch(channels int) model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: channels, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 16, Heads: 2, Kind: core.KindLinear, Seed: 11,
		},
		Depth: 2, MetaTokens: 1,
	}
}

// tracedTrainingRun trains 3 hybrid steps at TP=2 x DP=2 with tracing on
// and returns the populated tracer: 4 comm/train rows, one per rank.
func tracedTrainingRun() (*obs.Tracer, error) {
	const channels, batch = 8, 4
	arch := smokeArch(channels)
	tr := obs.NewTracer(4, 4096)
	tr.SetMeta("workload", "hybrid mae tp=2 dp=2")
	stamp(tr)
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: 64, Channels: channels, ImgH: 8, ImgW: 8,
		Endmembers: 4, Noise: 0.01, Seed: 11,
	})
	opts := train.Options{
		Steps: 3, Batch: batch, LR: 1e-3, ClipNorm: 1, Seed: 11,
		MaskRatio: 0.5, Trace: tr,
	}
	_, _, err := train.Hybrid(arch, 2, 2, false, opts, func(s int) (*tensor.Tensor, *tensor.Tensor) {
		x := gen.Batch(s*batch, batch)
		return x, x
	})
	return tr, err
}

// runSmoke is the hermetic observability check wired into `make
// trace-smoke` and CI: any failure exits nonzero.
func runSmoke() {
	// 1. Traced 4-rank training run -> Chrome export -> schema validation.
	tr, err := tracedTrainingRun()
	if err != nil {
		log.Fatalf("traced training run: %v", err)
	}
	dir, err := os.MkdirTemp("", "dchag-trace-smoke")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tracePath := dir + "/train_trace.json"
	if err := obs.WriteChromeTraceFile(tracePath, tr); err != nil {
		log.Fatalf("chrome export: %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(raw); err != nil {
		log.Fatalf("exported trace is not valid Chrome trace-event JSON: %v", err)
	}
	events := 0
	for r := 0; r < tr.Rows(); r++ {
		events += len(tr.Events(r))
	}
	if events == 0 {
		log.Fatal("traced training run recorded no events")
	}
	fmt.Printf("trace export ok: %d events over %d rows, %d bytes of valid trace JSON\n",
		events, tr.Rows(), len(raw))

	// 2. Byte accounting: traced wire volumes priced with the shared hw
	// formulas must reproduce the analytic model per axis, and every rank
	// must have traced exactly the scheduled spans.
	rep, _, err := experiments.RunTraceBench()
	if err != nil {
		log.Fatalf("trace bench: %v", err)
	}
	if !rep.Agrees {
		log.Fatalf("byte accounting disagrees: max ratio err %g, %d rank rows off schedule", rep.MaxRatioErr, rep.SpanCountErr)
	}
	fmt.Printf("byte accounting ok: %s, %d spans, max ratio err %g\n", rep.Strategy, rep.Events, rep.MaxRatioErr)

	// 3. Traced serving engine: request lifecycle on the tracer, and
	// GET /metrics must survive the strict Prometheus text parser.
	arch := smokeArch(8)
	str := obs.NewTracer(2, 1024) // 1 worker rank + engine front-end row
	eng, err := serve.Start(serve.Config{
		Ranks: 1, Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond,
		CacheBytes: 1 << 20, Trace: str,
	}, serve.FromArch(arch))
	if err != nil {
		log.Fatalf("serve start: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: eng.Handler()}
	go srv.Serve(ln)
	x := tensor.Randn(tensor.NewRNG(3), arch.Channels, arch.ImgH, arch.ImgW)
	for i := 0; i < 2; i++ { // second request is a cache hit
		if _, err := eng.Do(context.Background(), &serve.Request{Input: x.Clone()}); err != nil {
			log.Fatalf("serve request: %v", err)
		}
	}
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		log.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := promtext.Parse(bytes.NewReader(body))
	if err != nil {
		log.Fatalf("/metrics does not parse as Prometheus text format: %v", err)
	}
	for _, name := range []string{
		"dchag_build_info", "dchag_requests_completed_total",
		"dchag_cache_hits_total", "dchag_total_latency_ms",
	} {
		if _, ok := fams[name]; !ok {
			log.Fatalf("/metrics missing family %s", name)
		}
	}
	srv.Close()
	if err := eng.Close(); err != nil {
		log.Fatalf("serve close: %v", err)
	}
	front := str.Events(str.Rows() - 1)
	if len(front) == 0 {
		log.Fatal("serve front-end row recorded no lifecycle events")
	}
	fmt.Printf("serve metrics ok: %d families scraped, %d front-end trace events\n",
		len(fams), len(front))
	fmt.Println("trace smoke ok")
}
