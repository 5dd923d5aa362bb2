package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
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
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/debugserver"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dchag-serve: ")
	var (
		ckptDir  = flag.String("ckpt", "", "checkpoint directory to serve (dchag-ckpt/v1; empty: self-train a demo model first)")
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

		swapSmoke = flag.Bool("swap-smoke", false, "hermetic: self-train two checkpoints, serve one under load with the cache on, hot swap to the other; exit 1 on any dropped request")
		trainRank = flag.Int("train-ranks", 4, "self-train: D-CHAG ranks the demo checkpoint is saved at (reshards to -ranks at serve time)")
		trainStep = flag.Int("train-steps", 6, "self-train: optimizer steps")

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
		startDebugServer(*debugAddr)
	}

	if *swapSmoke {
		os.Exit(runSwapSmoke(*ranks, *replicas, *batch, *deadline, *trainRank, *trainStep, *requests, *clients))
	}

	dir := *ckptDir
	if dir == "" {
		if !*loadgen && *listen == "" {
			log.Fatal("nothing to do: pass -ckpt (and -listen), -loadgen, or -swap-smoke")
		}
		dir = selfTrain(*trainRank, *trainStep)
	}
	src, err := serve.FromCheckpoint(dir)
	if err != nil {
		log.Fatal(err)
	}
	arch := src.Arch()
	fmt.Printf("serving %s: %d channels, %d logical partitions, at %d ranks x %d replicas (batch<=%d, deadline %v)\n",
		dir, arch.Channels, arch.Partitions, *ranks, *replicas, *batch, *deadline)

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
		stop := engine.AutoSwap(dir, ckpt.WatchOptions{}, func(u ckpt.Update, err error) {
			if err != nil {
				log.Printf("hot swap to step %d failed: %v", u.Step, err)
				return
			}
			fmt.Printf("hot swapped to checkpoint step %d (%s)\n", u.Step, u.Dir)
		})
		defer stop()
		fmt.Printf("watching %s for newer committed checkpoints\n", dir)
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

// startDebugServer brings up the opt-in pprof listener (see
// internal/debugserver for the trust caveats) and announces it.
func startDebugServer(addr string) {
	bound, err := debugserver.Start(addr)
	if err != nil {
		log.Fatalf("debug listener: %v", err)
	}
	fmt.Printf("pprof debug server on http://%s/debug/pprof/ (do not expose on untrusted networks)\n", bound)
}

// selfTrain builds the hermetic demo checkpoint: a tiny MAE model trained
// distributed at `ranks` D-CHAG ranks, saved shard-per-rank into a temp
// directory. Serving it at a different -ranks exercises the reshard path
// end to end.
func selfTrain(ranks, steps int) string {
	arch := model.Arch{
		Config: core.Config{
			Channels: 16, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 16, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 2026,
		},
		Depth: 2, MetaTokens: 1, Partitions: ranks,
	}
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: 64, Channels: arch.Channels, ImgH: arch.ImgH, ImgW: arch.ImgW,
		Endmembers: 4, Noise: 0.01, Seed: 2026,
	})
	batchFn := func(s int) (*tensor.Tensor, *tensor.Tensor) {
		x := gen.Batch(s*4, 4)
		return x, x
	}
	dir, err := os.MkdirTemp("", "dchag-serve-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	opts := train.Options{
		Steps: steps, Batch: 4, LR: 1e-3, MaskRatio: 0.5, Seed: 2026,
		CheckpointDir: dir,
	}
	fmt.Printf("self-training demo checkpoint: %d steps at %d ranks -> %s\n", steps, ranks, dir)
	if _, _, err := train.Distributed(arch, ranks, false, opts, batchFn); err != nil {
		log.Fatal(err)
	}
	return dir
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

// runSwapSmoke is the hermetic hot-swap smoke `make serve-smoke` runs: train
// two checkpoints of the same architecture to different steps, serve the
// first under sustained in-process load with the response cache on, hot swap
// to the second mid-stream, and require zero dropped requests and exactly
// one swap. Returns the process exit code.
func runSwapSmoke(ranks, replicas, batch int, deadline time.Duration, trainRanks, trainSteps, requests, clients int) int {
	dir1 := selfTrain(trainRanks, trainSteps)
	dir2 := selfTrain(trainRanks, trainSteps+2) // same geometry, further-trained weights
	src1, err := serve.FromCheckpoint(dir1)
	if err != nil {
		log.Fatal(err)
	}
	src2, err := serve.FromCheckpoint(dir2)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := serve.Start(serve.Config{
		Ranks: ranks, Replicas: replicas,
		MaxBatch: batch, MaxWait: deadline,
		CacheBytes: 16 << 20,
	}, src1)
	if err != nil {
		log.Fatal(err)
	}
	arch := engine.Arch()
	const pool = 8 // small pool: the stream repeats, so the swap also exercises cache invalidation
	inputs := make([]*tensor.Tensor, pool)
	for i := range inputs {
		inputs[i] = tensor.Randn(tensor.NewRNG(int64(4000+i)), arch.Channels, arch.ImgH, arch.ImgW)
	}
	fmt.Printf("swap smoke: %d requests @ %d clients across one hot swap (%s -> %s)\n", requests, clients, dir1, dir2)
	done := make(chan serve.LoadgenResult, 1)
	go func() {
		done <- serve.RunLoadgen(engine, serve.LoadgenOptions{
			Requests:    requests,
			Concurrency: clients,
			NewRequest: func(i int) *serve.Request {
				return &serve.Request{ID: fmt.Sprint(i), Input: inputs[i%pool]}
			},
		})
	}()
	for {
		s := engine.Metrics().Snapshot()
		if s.Completed+s.CacheHits > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := engine.Swap(src2); err != nil {
		log.Fatalf("hot swap under load: %v", err)
	}
	res := <-done
	snap := engine.Metrics().Snapshot()
	if err := engine.Close(); err != nil {
		log.Printf("engine close: %v", err)
	}
	fmt.Printf("loadgen: %d requests, %d errors, %d retries, %.1f req/s over %v\n",
		res.Requests, res.Errors, res.Retries, res.ThroughputRPS(), res.Wall.Round(time.Millisecond))
	fmt.Printf("server:  %d forwards, %d cache hits, %d failed, %d swap(s)\n",
		snap.Completed, snap.CacheHits, snap.Failed, snap.Swaps)
	if res.Errors != 0 || snap.Failed != 0 {
		log.Printf("FAIL: %d client errors, %d server-side failures across the swap", res.Errors, snap.Failed)
		return 1
	}
	if snap.Swaps != 1 {
		log.Printf("FAIL: %d swaps recorded, want exactly 1", snap.Swaps)
		return 1
	}
	fmt.Println("swap smoke passed: zero dropped requests across the hot swap")
	return 0
}
