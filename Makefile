GO ?= go

.PHONY: verify fmt-check vet vet-custom reach build test fmt bench bench-diff bench-compute serve-smoke elastic-smoke trace-smoke race surface

# verify is the tier-1 gate: formatting, vet (standard and project
# analyzers), the reachability check, full build, full test run, and the
# hermetic elastic and observability smokes.
verify: fmt-check vet vet-custom reach build test elastic-smoke trace-smoke

# bench runs every benchmark once, writes the topology-aware sweep as the
# BENCH_sweep.json artifact, and re-parses the artifact through the tier-1
# schema test — identical to the CI bench job.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/dchag-bench -json BENCH_sweep.json
	BENCH_SWEEP_JSON=BENCH_sweep.json $(GO) test -run TestSweepJSONArtifact .

# bench-diff regenerates the sweep and diffs it against the committed
# trajectory point (best-shape changes, >5% step-time regressions) —
# the mechanical perf gate CI runs before refreshing BENCH_sweep.json.
bench-diff:
	$(GO) run ./cmd/dchag-bench -json BENCH_sweep.new.json
	@status=0; \
	$(GO) run ./cmd/dchag-bench -diff BENCH_sweep.json BENCH_sweep.new.json || status=$$?; \
	rm -f BENCH_sweep.new.json; \
	exit $$status

# bench-compute regenerates the measured compute-substrate point
# (BENCH_compute.json, schema dchag-bench/compute/v11, with the kernel tier
# that ran — avx512, avx2 or go: naive vs blocked f64
# vs prepacked f32 GEMM at square sizes and at the product shapes the D-CHAG
# workloads issue, GFLOP/s, elements packed per product and steady-state
# allocs/op, whole cross-attention channel aggregations, forward and
# backward, next to the pooled attention pass inside them, softmax, GELU,
# LayerNorm and AdamW under the tier and under the Go twins (softmax and GELU
# next to their libm loops too), ns/element, the whole
# serial channel stage next to its channel-major composition, ns and
# scratch bytes, and two block products with one and with two concurrent
# callers, GFLOP/s per caller) and re-parses it through the tier-1 artifact gate. It is
# wall-clock, so the gate is schema + qualitative claims, not exact rates.
bench-compute:
	$(GO) run ./cmd/dchag-bench -compute BENCH_compute.json
	BENCH_COMPUTE_JSON=BENCH_compute.json $(GO) test -run TestComputeJSONArtifact .

# serve-smoke is the hermetic serving gate CI runs. First leg: self-train
# a tiny checkpoint at 4 ranks, serve it resharded at 2 ranks x 2 replicas
# over HTTP with the response cache on, drive a few hundred requests
# through the cache/queue/batcher/mesh path, and fail on any request error
# or a total-latency p99 above the limit. Second leg: self-train two
# checkpoints and hot swap between them under sustained load — zero
# dropped requests, exactly one swap.
serve-smoke:
	$(GO) run ./cmd/dchag-serve -loadgen -listen 127.0.0.1:0 \
		-train-ranks 4 -ranks 2 -replicas 2 -batch 8 -deadline 50ms \
		-cache-mb 16 -requests 300 -concurrency 12 -p99-limit 5s
	$(GO) run ./cmd/dchag-serve -swap-smoke \
		-train-ranks 4 -ranks 2 -replicas 2 -batch 8 -deadline 50ms \
		-requests 400 -concurrency 12

# trace-smoke is the hermetic observability gate CI runs (dchag-trace
# -smoke): a traced 4-rank hybrid training run exported and validated
# against the Chrome trace-event schema, the trace byte-accounting
# invariant (ratio 1 within 1e-9, exact span counts per rank), and a traced
# serving engine's GET /metrics scraped through the strict Prometheus
# text-format parser.
trace-smoke:
	$(GO) run ./cmd/dchag-trace -smoke

# elastic-smoke is the hermetic elastic-training gate CI runs: self-train
# a tiny model at 8 ranks under a deterministic fault plan that kills rank
# 5 at step 7, let the supervisor re-rendezvous the survivors at 4 ranks
# from the last committed checkpoint, then cold-restore the same commit
# independently and require the continued loss trajectory to be bitwise
# identical. Everything runs in a temp directory.
elastic-smoke:
	$(GO) run ./cmd/dchag-train -elastic-smoke

# race runs the whole module under the race detector — the
# rendezvous/abort paths in comm, the mesh teardown in dist, the
# rank-per-goroutine training and checkpoint loops, and the serving
# engine's queue/batcher/replica handoffs are exactly what -race exists
# for, and the leakcheck-instrumented tests catch stranded goroutines the
# detector alone would miss. Identical to the CI race job.
race:
	$(GO) test -race ./...

# surface rewrites SURFACE.md: non-test Go lines, exported top-level
# identifiers and assembly lines per package under internal/ and cmd/, with a
# module total — the size trend, made visible the way BENCH_*.json makes perf
# visible. The CI verify job regenerates it and fails on a stale committed
# report.
surface:
	GO=$(GO) sh scripts/surface.sh > SURFACE.md

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# vet-custom runs the project's own analyzers (cmd/dchag-vet: collective
# symmetry, dropped comm errors, guarded-field locking, hot-path
# allocations) over the whole module. Zero findings is the gate; see
# cmd/dchag-vet/doc.go for the suppression contract.
vet-custom:
	$(GO) run ./cmd/dchag-vet ./...

# reach fails on any export under internal/ (top-level identifier or
# method) that no non-test code reaches and that scripts/reach.sh does not
# list as a deliberate exception with its reason.
reach:
	GO=$(GO) sh scripts/reach.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...
