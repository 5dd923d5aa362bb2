package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/ckpt"
	"repro/internal/debugserver"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dchag-serve: ")
	var (
		ckptDir  = flag.String("ckpt", "", "checkpoint directory to serve (dchag-ckpt/v2, as dchag-train -save writes it; required)")
		ranks    = flag.Int("ranks", 2, "TP (channel-sharding) ranks per replica; must divide the model's logical partitions")
		replicas = flag.Int("replicas", 2, "model replicas consuming batches")
		batch    = flag.Int("batch", 8, "micro-batch size cap (1 disables batching)")
		deadline = flag.Duration("deadline", 10*time.Millisecond, "micro-batch flush deadline")
		queue    = flag.Int("queue", 0, "request queue depth (admission control; 0: 4*batch*replicas)")
		cacheMB  = flag.Int64("cache-mb", 0, "content-addressable response cache size in MiB (0 disables)")
		watch    = flag.Bool("watch", false, "poll -ckpt for newer committed checkpoints and hot swap them in")
		listen   = flag.String("listen", "", "HTTP listen address (e.g. :8080 or 127.0.0.1:0); empty with -loadgen serves in-process")

		loadgen  = flag.Bool("loadgen", false, "drive the server with a self-generated load, print metrics, exit")
		requests = flag.Int("requests", 400, "loadgen: total requests")
		clients  = flag.Int("concurrency", 16, "loadgen: concurrent clients")
		p99Limit = flag.Duration("p99-limit", 0, "loadgen: fail (exit 1) when the server-side total-latency p99 exceeds this (0: no check)")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof profiling on this address (off by default; exposes runtime internals — never bind on an untrusted network)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %v", flag.Args())
	}
	if *debugAddr != "" {
		bound, err := debugserver.Start(*debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		fmt.Printf("pprof debug server on http://%s/debug/pprof/ (do not expose on untrusted networks)\n", bound)
	}

	if *ckptDir == "" {
		log.Fatal("-ckpt is required: name a checkpoint directory (dchag-train -save writes one)")
	}
	if err := checkLoadgen(*loadgen, *requests, *clients); err != nil {
		log.Fatal(err)
	}
	if *cacheMB < 0 || *cacheMB > math.MaxInt64>>20 {
		log.Fatalf("-cache-mb %d: want 0 (off) to %d", *cacheMB, int64(math.MaxInt64>>20))
	}
	src, err := serve.FromCheckpoint(*ckptDir)
	if err != nil {
		log.Fatal(err)
	}
	arch := src.Arch()
	fmt.Printf("serving %s: %d channels, %d logical partitions, at %d ranks x %d replicas (batch<=%d, deadline %v)\n",
		*ckptDir, arch.Channels, arch.Partitions, *ranks, *replicas, *batch, *deadline)

	engine, err := serve.Start(serve.Config{
		Ranks: *ranks, Replicas: *replicas,
		MaxBatch: *batch, MaxWait: *deadline, QueueDepth: *queue,
		CacheBytes: *cacheMB << 20,
	}, src)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := engine.Close(); err != nil {
			log.Printf("engine close: %v", err)
		}
	}()
	if *watch {
		stop := engine.AutoSwap(*ckptDir, ckpt.WatchOptions{}, func(u ckpt.Update, err error) {
			if err != nil {
				log.Printf("hot swap to step %d failed: %v", u.Step, err)
				return
			}
			fmt.Printf("hot swapped to checkpoint step %d (%s)\n", u.Step, u.Dir)
		})
		defer stop()
		fmt.Printf("watching %s for newer committed checkpoints\n", *ckptDir)
	}

	var baseURL string
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		baseURL = "http://" + ln.Addr().String()
		fmt.Printf("listening on %s (POST /v1/predict, GET /v1/stats, GET /healthz)\n", baseURL)
		go http.Serve(ln, engine.Handler())
	}

	if *loadgen {
		if code := runLoadgen(engine, baseURL, *requests, *clients, *p99Limit); code != 0 {
			// os.Exit skips the deferred close; tear down explicitly.
			if err := engine.Close(); err != nil {
				log.Printf("engine close: %v", err)
			}
			os.Exit(code)
		}
		return
	}

	// Serve until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("received %v, shutting down\n", s)
	case <-engine.Done():
		log.Fatalf("engine stopped: %v", engine.Err())
	}
}

// checkLoadgen refuses a -loadgen run that would send no request or start
// no client, and so report load it never sent.
func checkLoadgen(on bool, requests, clients int) error {
	switch {
	case !on:
		return nil
	case requests < 1:
		return fmt.Errorf("-requests %d: -loadgen needs at least 1", requests)
	case clients < 1:
		return fmt.Errorf("-concurrency %d: -loadgen needs at least 1 client", clients)
	}
	return nil
}

// runLoadgen drives the engine — through HTTP when baseURL is set, else
// in-process — and prints the outcome. Returns the process exit code.
func runLoadgen(engine *serve.Engine, baseURL string, requests, clients int, p99Limit time.Duration) int {
	arch := engine.Arch()
	const pool = 64
	inputs := make([]*tensor.Tensor, pool)
	for i := range inputs {
		inputs[i] = tensor.Randn(tensor.NewRNG(int64(3000+i)), arch.Channels, arch.ImgH, arch.ImgW)
	}

	var errCount int
	var wall time.Duration
	if baseURL != "" {
		errCount, wall = httpLoadgen(baseURL, inputs, requests, clients)
	} else {
		res := serve.RunLoadgen(engine, serve.LoadgenOptions{
			Requests:    requests,
			Concurrency: clients,
			NewRequest: func(i int) *serve.Request {
				return &serve.Request{ID: fmt.Sprint(i), Input: inputs[i%pool]}
			},
		})
		errCount, wall = res.Errors, res.Wall
	}

	snap := engine.Metrics().Snapshot()
	throughput := float64(requests-errCount) / wall.Seconds()
	fmt.Printf("loadgen: %d requests, %d errors, %.1f req/s over %v\n", requests, errCount, throughput, wall.Round(time.Millisecond))
	fmt.Printf("server:  %d batches (mean %.1f req/batch), queue depth max %d, rejected %d\n",
		snap.Batches, snap.MeanBatch, snap.MaxQueueDepth, snap.Rejected)
	fmt.Printf("latency: queued p50 %.2fms p99 %.2fms; total p50 %.2fms p95 %.2fms p99 %.2fms\n",
		snap.QueuedP50Ms, snap.QueuedP99Ms, snap.TotalP50Ms, snap.TotalP95Ms, snap.TotalP99Ms)

	if errCount != 0 {
		log.Printf("FAIL: %d request errors", errCount)
		return 1
	}
	if p99Limit > 0 {
		limitMs := float64(p99Limit) / float64(time.Millisecond)
		if snap.TotalP99Ms > limitMs {
			log.Printf("FAIL: total-latency p99 %.2fms exceeds limit %.2fms", snap.TotalP99Ms, limitMs)
			return 1
		}
		fmt.Printf("p99 %.2fms within limit %v\n", snap.TotalP99Ms, p99Limit)
	}
	return 0
}

// httpLoadgen issues the load over the JSON endpoint (queue-full 429s are
// retried with backoff), returning the terminal error count and wall time.
func httpLoadgen(baseURL string, inputs []*tensor.Tensor, requests, clients int) (int, time.Duration) {
	var next, errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				in := inputs[i%len(inputs)]
				body, _ := json.Marshal(serve.PredictRequest{ID: fmt.Sprint(i), Shape: in.Shape, Values: in.Data})
				for {
					resp, err := http.Post(baseURL+"/v1/predict", "application/json", bytes.NewReader(body))
					if err != nil {
						errs.Add(1)
						break
					}
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						errs.Add(1)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	return int(errs.Load()), time.Since(start)
}
