GO ?= go

.PHONY: verify fmt-check vet vet-custom reach build test fmt bench serve-smoke race surface

# verify is the tier-1 gate: formatting, vet (standard and project
# analyzers), the reachability check, full build and full test run.
verify: fmt-check vet vet-custom reach build test

# bench runs every benchmark once, writes the topology-aware sweep as the
# BENCH_sweep.json artifact, and re-parses the artifact through the tier-1
# schema test — identical to the CI bench job.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/dchag-bench -json BENCH_sweep.json
	BENCH_SWEEP_JSON=BENCH_sweep.json $(GO) test -run TestSweepJSONArtifact .

# serve-smoke is the one binary-level smoke CI runs: dchag-train saves a
# tiny checkpoint at 4 ranks into a temp directory, then dchag-serve serves
# it resharded at 2 ranks x 2 replicas over HTTP with the response cache
# on, drives a few hundred requests through the cache/queue/batcher/mesh
# path, and fails on any request error or a total-latency p99 above the
# limit. It exercises both binaries' flags and the checkpoint format
# between them; every other behaviour is gated by a test.
serve-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/dchag-train -ranks 4 -steps 6 -save "$$dir" && \
	$(GO) run ./cmd/dchag-serve -ckpt "$$dir" -loadgen -listen 127.0.0.1:0 \
		-ranks 2 -replicas 2 -batch 8 -deadline 50ms \
		-cache-mb 16 -requests 300 -concurrency 12 -p99-limit 5s

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
