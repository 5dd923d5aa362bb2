package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/tensor"
)

// cacheTestConfig is a cached single-replica engine sized so nothing
// evicts unless a test wants it to.
func cacheTestConfig() Config {
	return Config{
		Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond,
		QueueDepth: 64, CacheBytes: 1 << 20,
	}
}

// TestCacheHitBitwiseIdentical pins the cache's core claim: because the
// forward is deterministic, a hit is indistinguishable from a cold forward
// — bitwise — under both serving dtypes.
func TestCacheHitBitwiseIdentical(t *testing.T) {
	a := testArch()
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		t.Run(dt.String(), func(t *testing.T) {
			cfg := cacheTestConfig()
			cfg.DType = dt
			e := startTest(t, cfg, FromArch(a))
			x := testInput(a, 51, a.ImgH, a.ImgW)

			cold, err := e.Do(context.Background(), &Request{ID: "cold", Input: x})
			if err != nil {
				t.Fatal(err)
			}
			if cold.Cached {
				t.Fatal("first request reported Cached")
			}
			if dt == tensor.F64 {
				if d := tensor.MaxAbsDiff(cold.Output, reference(t, a, x)); d != 0 {
					t.Fatalf("cold response differs from direct inference by %g", d)
				}
			}
			// An identical resubmission (fresh tensor, same bytes) must hit.
			hot, err := e.Do(context.Background(), &Request{ID: "hot", Input: x.Clone()})
			if err != nil {
				t.Fatal(err)
			}
			if !hot.Cached {
				t.Fatal("identical resubmission was not served from cache")
			}
			if d := tensor.MaxAbsDiff(hot.Output, cold.Output); d != 0 {
				t.Fatalf("cache hit differs from cold forward by %g", d)
			}
			snap := e.Metrics().Snapshot()
			if snap.CacheHits != 1 || snap.CacheMisses != 1 || snap.Completed != 1 {
				t.Fatalf("want 1 hit / 1 miss / 1 forward, got %+v", snap)
			}
			if snap.HitP99Ms <= 0 {
				t.Fatalf("hit latency not sampled: %+v", snap)
			}
		})
	}
}

// TestCacheFilledBeforeOwnerAnswered pins the order inside Engine.complete:
// the cache entry exists before the owner's response is sent, so a caller
// that has its answer and repeats the request at once hits — it neither
// coalesces onto the closing flight nor misses. A thousand distinct inputs,
// each repeated immediately, must give exactly a thousand hits.
func TestCacheFilledBeforeOwnerAnswered(t *testing.T) {
	const iters = 1000
	a := testArch()
	cfg := cacheTestConfig()
	cfg.MaxBatch = 1 // dispatch at once: the test is about ordering, not batching
	cfg.CacheBytes = 64 << 20
	e := startTest(t, cfg, FromArch(a))
	x := testInput(a, 53, a.ImgH, a.ImgW)
	for i := 0; i < iters; i++ {
		x.Data[0] = float64(i) // a new content address each round
		cold, err := e.Do(context.Background(), &Request{Input: x})
		if err != nil {
			t.Fatal(err)
		}
		hot, err := e.Do(context.Background(), &Request{Input: x})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Cached || !hot.Cached {
			t.Fatalf("round %d: cold.Cached=%v hot.Cached=%v", i, cold.Cached, hot.Cached)
		}
	}
	snap := e.Metrics().Snapshot()
	if snap.CacheHits != iters || snap.CacheMisses != iters || snap.CacheCoalesced != 0 || snap.Completed != iters {
		t.Fatalf("want %d hits / %d misses / 0 coalesced / %d forwards, got %+v", iters, iters, iters, snap)
	}
}

// TestCacheFingerprintDistinct pins the content address: inputs that
// assemble to the same canvas but arrive differently (pre-regridded vs
// coarse grid, full canvas vs partial channel set), different instances,
// and different dtypes must all fingerprint apart — correctness never
// leans on the batcher's normalization.
func TestCacheFingerprintDistinct(t *testing.T) {
	a := testArch()
	base := &Request{Input: testInput(a, 52, a.ImgH, a.ImgW)}
	fp := func(inst int64, dt tensor.DType, r *Request) fingerprint {
		return fingerprintOf(inst, dt, r)
	}
	want := fp(1, tensor.F64, base)

	coarse := &Request{Input: data.RegridBatch(base.Input, 2*a.ImgH, 2*a.ImgW)}
	partial := &Request{
		Input:    tensor.SliceAxis(base.Input, 0, 0, 3),
		Channels: []int{0, 1, 2},
	}
	fullAsList := &Request{Input: base.Input, Channels: seqInts(a.Channels)}
	distinct := map[string]fingerprint{
		"regridded input":      fp(1, tensor.F64, coarse),
		"partial channel set":  fp(1, tensor.F64, partial),
		"explicit channel set": fp(1, tensor.F64, fullAsList),
		"other instance":       fp(2, tensor.F64, base),
		"other dtype":          fp(1, tensor.F32, base),
	}
	for name, got := range distinct {
		if got == want {
			t.Errorf("%s fingerprints identically to the base request", name)
		}
	}
	// And the address is stable: same content, fresh tensor, same prints.
	if again := fp(1, tensor.F64, &Request{Input: base.Input.Clone()}); again != want {
		t.Error("identical content fingerprinted differently")
	}
}

// TestFingerprintSeparatesNearInputs pins the digest's structure on inputs
// that differ as little as inputs can: one flipped bit in any single word,
// two words swapped within a lane and across adjacent lanes, the two zeros,
// two NaN payloads, the same data under permuted dimensions, a nil channel
// list against the explicit full one, and every tail length around the
// four-word block. The bulk path must agree with absorbing word by word.
func TestFingerprintSeparatesNearInputs(t *testing.T) {
	fp := func(r *Request) fingerprint { return fingerprintOf(1, tensor.F64, r) }
	base := tensor.Randn(tensor.NewRNG(7), 2, 3, 4)
	want := fp(&Request{Input: base})
	seen := map[fingerprint]string{want: "base"}
	distinct := func(name string, r *Request) {
		t.Helper()
		got := fp(r)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s fingerprints identically to %s", name, prev)
		}
		seen[got] = name
	}
	for i := range base.Data {
		for _, bit := range []uint{0, 31, 52, 63} {
			x := base.Clone()
			x.Data[i] = math.Float64frombits(math.Float64bits(x.Data[i]) ^ 1<<bit)
			distinct(fmt.Sprintf("word %d bit %d flipped", i, bit), &Request{Input: x})
		}
	}
	for _, pair := range [][2]int{{0, 4}, {5, 13}, {0, 1}, {6, 7}, {3, 4}} {
		x := base.Clone()
		x.Data[pair[0]], x.Data[pair[1]] = x.Data[pair[1]], x.Data[pair[0]]
		distinct(fmt.Sprintf("words %v swapped", pair), &Request{Input: x})
	}
	for name, v := range map[string]float64{
		"+0": 0, "-0": math.Copysign(0, -1),
		"NaN payload 1": math.Float64frombits(0x7FF8000000000001),
		"NaN payload 2": math.Float64frombits(0x7FF8000000000002),
	} {
		x := base.Clone()
		x.Data[9] = v
		distinct(name, &Request{Input: x})
	}
	distinct("dimensions [4,3,2]", &Request{Input: base.Reshape(4, 3, 2)})
	distinct("explicit full channel list", &Request{Input: base, Channels: []int{0, 1}})
	for n := 1; n <= 11; n++ {
		distinct(fmt.Sprintf("%d values", n), &Request{Input: tensor.FromSlice(base.Data[:n], 1, 1, n)})
	}

	slow := digest{lane: laneMult}
	for _, w := range []uint64{1, uint64(tensor.F64), 3, 2, 3, 4, 0} {
		slow.word(w)
	}
	for _, v := range base.Data {
		slow.word(math.Float64bits(v))
	}
	if slow.sum() != want {
		t.Error("the block loop and word-by-word absorption disagree")
	}
	if n := testing.AllocsPerRun(100, func() { fp(&Request{Input: base}) }); n != 0 {
		t.Errorf("fingerprintOf allocates %.1f times per call", n)
	}
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestCacheCoalescing pins the thundering-herd behavior: identical
// concurrent requests cost exactly one forward — one owner, the rest
// either coalesce onto its flight or hit the filled entry.
func TestCacheCoalescing(t *testing.T) {
	a := testArch()
	const herd = 16
	e := startTest(t, cacheTestConfig(), FromArch(a))
	x := testInput(a, 53, a.ImgH, a.ImgW)

	var wg sync.WaitGroup
	resps := make([]Response, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(context.Background(), &Request{ID: fmt.Sprint(i), Input: x})
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if d := tensor.MaxAbsDiff(resps[i].Output, resps[0].Output); d != 0 {
			t.Fatalf("request %d answer differs from request 0 by %g", i, d)
		}
	}
	snap := e.Metrics().Snapshot()
	if snap.Completed != 1 || snap.CacheMisses != 1 {
		t.Fatalf("herd of %d cost %d forwards (%d misses), want exactly 1", herd, snap.Completed, snap.CacheMisses)
	}
	if snap.CacheHits+snap.CacheCoalesced != herd-1 {
		t.Fatalf("hits %d + coalesced %d != %d", snap.CacheHits, snap.CacheCoalesced, herd-1)
	}
}

// TestCacheEviction pins the byte bound and LRU order at the shard level,
// with fabricated fingerprints all landing on shard 0 so the arithmetic is
// exact: capacity holds three entries, the least recently used is evicted,
// and a get refreshes recency.
func TestCacheEviction(t *testing.T) {
	out := tensor.New(4) // 32 bytes per entry
	entry := int64(len(out.Data)) * 8
	c := newCache(cacheShardCount * 3 * entry) // 3 entries per shard
	key := func(i uint64) fingerprint {
		return fingerprint{hi: i, lo: i * cacheShardCount} // lo mod shards == 0
	}
	for i := uint64(1); i <= 3; i++ {
		c.fill(key(i), 1, out)
	}
	if c.len() != 3 {
		t.Fatalf("3 fills cached %d entries", c.len())
	}
	// Touch key 1 so key 2 is now least recently used.
	if c.get(key(1)) == nil {
		t.Fatal("key 1 missing before eviction")
	}
	c.fill(key(4), 1, out)
	if c.len() != 3 {
		t.Fatalf("over-capacity fill left %d entries, want 3", c.len())
	}
	if c.get(key(2)) != nil {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, i := range []uint64{1, 3, 4} {
		if c.get(key(i)) == nil {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	// An entry larger than a whole shard is never cached (and never evicts
	// the working set to make room for something that cannot fit anyway).
	huge := tensor.New(1000)
	c.fill(key(5), 1, huge)
	if c.len() != 3 || c.get(key(5)) != nil {
		t.Fatal("oversized entry was cached or displaced the working set")
	}
}

// TestCacheEvictionUnderLoad pins the engine-level bound: a stream of
// distinct requests through a tiny cache stays within CacheBytes.
func TestCacheEvictionUnderLoad(t *testing.T) {
	a := testArch()
	entry := int64(a.Channels*a.ImgH*a.ImgW) * 8
	cfg := cacheTestConfig()
	cfg.CacheBytes = cacheShardCount * 2 * entry // ~2 responses per shard
	e := startTest(t, cfg, FromArch(a))

	const distinct = 64
	for i := 0; i < distinct; i++ {
		if _, err := e.Do(context.Background(), &Request{Input: testInput(a, int64(100+i), a.ImgH, a.ImgW)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.len(); int64(n)*entry > cfg.CacheBytes {
		t.Fatalf("%d cached entries x %d bytes exceed the %d-byte bound", n, entry, cfg.CacheBytes)
	}
	if n := e.cache.len(); n == 0 {
		t.Fatal("cache empty after 64 distinct requests")
	}
}

// BenchmarkFingerprint hashes the benchmark workloads' request (80 channels
// of 16x16) — the work every Submit does on the submitter's goroutine when
// the cache is on.
func BenchmarkFingerprint(b *testing.B) {
	req := &Request{Input: tensor.Randn(tensor.NewRNG(1), 80, 16, 16)}
	b.SetBytes(int64(8 * len(req.Input.Data)))
	b.ReportAllocs()
	var sink fingerprint
	for i := 0; i < b.N; i++ {
		sink = fingerprintOf(1, tensor.F32, req)
	}
	_ = sink
}
