package serve

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/tensor"
)

// The response cache exploits the property the whole substrate is built
// around: the no-grad forward is bitwise deterministic, so a response is
// fully determined by (model instance, dtype, input grid, channel set,
// input bytes) and therefore content-addressable. The cache sits in front
// of the micro-batcher — a hit returns without ever queuing, a miss
// registers an in-flight entry so identical concurrent requests (a
// thundering herd on one hot input) coalesce onto a single forward.
//
// Shape: a fixed array of independently locked shards, each a
// map + intrusive doubly-linked LRU list bounded by bytes. The lookup
// path (fingerprint + shard get) is allocation-free and on the
// dchag:hotpath; allocation (response channels, flight registration)
// happens only on the miss path.

// fingerprint is a 128-bit content address for a request against one
// model instance. It is a fast mixing hash, not a cryptographic one: the
// cache trusts its callers not to construct collisions.
type fingerprint struct {
	hi, lo uint64
}

// digest accumulates a fingerprint one 64-bit word at a time over four
// independent lanes, so that the multiplies of consecutive words pipeline
// instead of waiting on one another. Word k goes to lane k mod 4 as
// lane = rotl((lane ^ word) * mult, 31): a bijection of the lane for a fixed
// word and of the word for a fixed lane, so two inputs that differ in one
// word leave that lane — and, through sum's bijective fold, both output
// halves — different, and order within a lane matters.
type digest struct {
	lane [4]uint64
	n    uint64 // words absorbed
}

// laneMult holds the lanes' odd multipliers (the xxHash64 primes), which are
// also their seeds. Distinct multipliers make the lanes different functions,
// so two words that trade lanes do not trade effects.
var laneMult = [4]uint64{0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x85EBCA77C2B2AE63}

func absorb(lane, v, mult uint64) uint64 { return bits.RotateLeft64((lane^v)*mult, 31) }

func (d *digest) word(v uint64) {
	i := d.n % 4
	d.lane[i] = absorb(d.lane[i], v, laneMult[i])
	d.n++
}

// floats absorbs every value's bits exactly as word would one at a time;
// whole blocks of four run with the lanes in registers.
//
// dchag:hotpath — the whole input of every request passes through here.
func (d *digest) floats(data []float64) {
	for ; d.n%4 != 0 && len(data) > 0; data = data[1:] {
		d.word(math.Float64bits(data[0]))
	}
	l0, l1, l2, l3 := d.lane[0], d.lane[1], d.lane[2], d.lane[3]
	for ; len(data) >= 4; data = data[4:] {
		l0 = absorb(l0, math.Float64bits(data[0]), laneMult[0])
		l1 = absorb(l1, math.Float64bits(data[1]), laneMult[1])
		l2 = absorb(l2, math.Float64bits(data[2]), laneMult[2])
		l3 = absorb(l3, math.Float64bits(data[3]), laneMult[3])
		d.n += 4
	}
	d.lane = [4]uint64{l0, l1, l2, l3}
	for _, v := range data {
		d.word(math.Float64bits(v))
	}
}

// sum folds the lanes and the word count into the two output halves, each
// through its own combination of all four lanes and a bijective finalizer
// (murmur3's fmix64), so a change confined to one lane changes both.
func (d *digest) sum() fingerprint {
	l, m := d.lane, laneMult
	lo := l[0] ^ bits.RotateLeft64(l[1], 16) ^ bits.RotateLeft64(l[2], 32) ^ bits.RotateLeft64(l[3], 48) ^ d.n*m[0]
	hi := l[0]*m[1] + l[1]*m[2] + l[2]*m[3] + l[3]*m[0] + d.n
	return fingerprint{hi: fmix64(hi), lo: fmix64(lo)}
}

func fmix64(x uint64) uint64 {
	x = (x ^ x>>33) * 0xFF51AFD7ED558CCD
	x = (x ^ x>>33) * 0xC4CEB9FE1A85EC53
	return x ^ x>>33
}

// fingerprintOf addresses req's response content: the serving instance
// (checkpoint identity), forward dtype, input grid (the pre-regrid shape —
// a regridded request is a different input), the explicit channel set, and
// every input value bitwise. Called once per Submit when the cache is on.
//
// dchag:hotpath — runs per request in front of the queue; must not allocate.
func fingerprintOf(instID int64, dt tensor.DType, req *Request) fingerprint {
	d := digest{lane: laneMult}
	d.word(uint64(instID))
	d.word(uint64(dt))
	d.word(uint64(len(req.Input.Shape)))
	for _, s := range req.Input.Shape {
		d.word(uint64(s))
	}
	// A nil channel set (full input) hashes as length 0, distinct from any
	// explicit subset: lengths and indices both feed the digest, so a
	// partial-channel request can never alias the full-channel one.
	d.word(uint64(len(req.Channels)))
	for _, c := range req.Channels {
		d.word(uint64(c))
	}
	d.floats(req.Input.Data)
	return d.sum()
}

// waiter is one coalesced request parked on an in-flight forward.
type waiter struct {
	id  string
	enq time.Time
	ch  chan Response
}

// flight is one in-progress forward for a fingerprint; identical requests
// arriving while it runs join waiters instead of queuing their own.
type flight struct {
	waiters []waiter
}

// centry is one cached response, a node in its shard's intrusive LRU list.
type centry struct {
	key        fingerprint
	inst       int64
	out        *tensor.Tensor
	bytes      int64
	prev, next *centry
}

const cacheShardCount = 8 // power of two: shard selection is a mask

// cache is the sharded, byte-bounded response cache.
type cache struct {
	shards [cacheShardCount]cacheShard
}

// cacheShard is one independently locked slice of the cache.
type cacheShard struct {
	mu       sync.Mutex
	capBytes int64
	entries  map[fingerprint]*centry // guarded by mu
	flights  map[fingerprint]*flight // guarded by mu
	bytes    int64                   // guarded by mu
	head     *centry                 // guarded by mu — most recently used
	tail     *centry                 // guarded by mu — eviction candidate
}

// newCache builds a cache bounded by capBytes across all shards.
func newCache(capBytes int64) *cache {
	c := &cache{}
	per := capBytes / cacheShardCount
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.capBytes = per
		s.entries = make(map[fingerprint]*centry)
		s.flights = make(map[fingerprint]*flight)
		s.mu.Unlock()
	}
	return c
}

func (c *cache) shard(key fingerprint) *cacheShard {
	return &c.shards[key.lo&(cacheShardCount-1)]
}

// get returns the cached response tensor for key, or nil. A hit is
// refreshed to the front of its shard's LRU list. The returned tensor is
// shared and must be treated as immutable by callers (responses already
// are: clients receive output tensors they do not own).
//
// dchag:hotpath — the cache hit path; map read + pointer splice only.
func (c *cache) get(key fingerprint) *tensor.Tensor {
	s := c.shard(key)
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		return nil
	}
	s.moveToFrontLocked(e)
	out := e.out
	s.mu.Unlock()
	return out
}

// joinOrOwn resolves a miss: if a flight for key is already in progress the
// request joins it (returns the channel its coalesced response will arrive
// on); otherwise the caller becomes the flight owner (returns nil) and must
// eventually fill or abort. The re-check of entries closes the race where
// the flight completed between the caller's get miss and this call; the
// symmetric race (entry filled after a fresh flight registers) merely runs
// one redundant forward whose fill overwrites bitwise-identical bytes.
func (c *cache) joinOrOwn(key fingerprint, id string, enq time.Time) (*tensor.Tensor, <-chan Response) {
	s := c.shard(key)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		s.moveToFrontLocked(e)
		out := e.out
		s.mu.Unlock()
		return out, nil
	}
	if f := s.flights[key]; f != nil {
		ch := make(chan Response, 1)
		f.waiters = append(f.waiters, waiter{id: id, enq: enq, ch: ch})
		s.mu.Unlock()
		return nil, ch
	}
	s.flights[key] = &flight{}
	s.mu.Unlock()
	return nil, nil
}

// fill completes key's flight with the computed response, inserts it into
// the cache (evicting from the LRU tail to fit), and returns the coalesced
// waiters for the caller to fan the response out to.
func (c *cache) fill(key fingerprint, inst int64, out *tensor.Tensor) []waiter {
	bytes := int64(len(out.Data)) * 8
	s := c.shard(key)
	s.mu.Lock()
	var ws []waiter
	if f := s.flights[key]; f != nil {
		ws = f.waiters
		delete(s.flights, key)
	}
	if e := s.entries[key]; e != nil {
		// A redundant forward raced an existing fill; the bytes are
		// identical by determinism, keep the incumbent.
		s.moveToFrontLocked(e)
		s.mu.Unlock()
		return ws
	}
	if bytes <= s.capBytes {
		for s.bytes+bytes > s.capBytes && s.tail != nil {
			s.evictTailLocked()
		}
		e := &centry{key: key, inst: inst, out: out, bytes: bytes}
		s.entries[key] = e
		s.pushFrontLocked(e)
		s.bytes += bytes
	}
	s.mu.Unlock()
	return ws
}

// abort abandons key's flight (owner rejected or failed before a fill) and
// returns its waiters so the caller can fail them the same way.
func (c *cache) abort(key fingerprint) []waiter {
	s := c.shard(key)
	s.mu.Lock()
	var ws []waiter
	if f := s.flights[key]; f != nil {
		ws = f.waiters
		delete(s.flights, key)
	}
	s.mu.Unlock()
	return ws
}

// invalidate drops every cached entry belonging to the given model
// instance — called after a hot swap has drained the old instance, so no
// late fill can repopulate it.
func (c *cache) invalidate(inst int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, e := range s.entries {
			if e.inst == inst {
				delete(s.entries, key)
				s.unlinkLocked(e)
				s.bytes -= e.bytes
			}
		}
		s.mu.Unlock()
	}
}

// len reports the number of cached entries (tests and stats).
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// LRU list splicing. All callers hold s.mu.

func (s *cacheShard) pushFrontLocked(e *centry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlinkLocked(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFrontLocked(e *centry) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}

func (s *cacheShard) evictTailLocked() {
	e := s.tail
	delete(s.entries, e.key)
	s.unlinkLocked(e)
	s.bytes -= e.bytes
}
