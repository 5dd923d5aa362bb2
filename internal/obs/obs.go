// Package obs is the unified observability layer: an allocation-free
// per-rank span tracer with fixed-capacity ring buffers, a Chrome
// trace-event JSON exporter (viewable in Perfetto / chrome://tracing), and
// the comm.Observer adapter that timestamps every collective a mesh
// executes.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every record entry point is nil-safe:
//     a nil *Tracer yields nil *Rank rows, and Begin/End/Instant on a nil
//     *Rank are a single pointer test. Call sites never branch.
//   - Allocation-free when enabled. Record methods carry the dchag:hotpath
//     marker, so the hotalloc analyzer enforces that the steady-state
//     record path performs no allocation: events land in preallocated
//     rings, span handles are values, and names must be static interned
//     strings (callers pass literals or pre-built labels, never
//     fmt.Sprintf results).
//   - Bounded memory. Each row is a fixed-capacity ring; when it wraps,
//     the oldest events are overwritten and counted in Dropped rather than
//     growing the buffer.
//
// A Tracer carries one row per mesh world rank plus, by convention, one
// extra row for the supervisor / front-end (the elastic generation loop,
// the serve engine). Trace time is relative to the tracer epoch; the
// exporter converts to the microseconds Chrome's trace viewer expects.
//
// See DESIGN.md "Observability" for the hook-point inventory.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one recorded trace entry. Start and Dur are offsets from the
// tracer epoch; Ph distinguishes complete spans ('X') from instants ('i').
type Event struct {
	Seq   uint64
	Name  string
	Cat   string
	Start time.Duration
	Dur   time.Duration
	Ph    byte
	Bytes int64
}

// Tracer owns the per-row event rings and the run metadata exported with
// the trace. The zero value is not usable; a nil *Tracer is the disabled
// tracer and is safe everywhere.
type Tracer struct {
	epoch time.Time
	ranks []*Rank

	mu       sync.Mutex
	meta     map[string]string // guarded by mu
	rowNames []string          // guarded by mu
}

// NewTracer creates a tracer with rows independent event rings of the
// given capacity (events per row). Row i is retrieved with Rank(i).
func NewTracer(rows, capacity int) *Tracer {
	if rows <= 0 || capacity <= 0 {
		panic(fmt.Sprintf("obs: invalid tracer shape rows=%d capacity=%d", rows, capacity))
	}
	t := &Tracer{
		epoch:    time.Now(),
		ranks:    make([]*Rank, rows),
		meta:     make(map[string]string),
		rowNames: make([]string, rows),
	}
	for i := range t.ranks {
		t.ranks[i] = &Rank{epoch: t.epoch, row: i, events: make([]Event, capacity)}
	}
	return t
}

// Rows returns the number of rows, 0 for the disabled tracer.
func (t *Tracer) Rows() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Rank returns row i's recording handle. It is nil-safe in both
// directions: a nil tracer or an out-of-range row yields a nil *Rank,
// whose record methods are no-ops — so call sites thread tracer rows
// unconditionally and pay a pointer test when tracing is off.
func (t *Tracer) Rank(i int) *Rank {
	if t == nil || i < 0 || i >= len(t.ranks) {
		return nil
	}
	return t.ranks[i]
}

// SetMeta attaches a key/value pair to the trace metadata (build stamp,
// mesh shape, workload name). Exported verbatim by WriteChromeTrace.
func (t *Tracer) SetMeta(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta[key] = value
	t.mu.Unlock()
}

// Meta returns a copy of the trace metadata.
func (t *Tracer) Meta() map[string]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.meta))
	for k, v := range t.meta {
		out[k] = v
	}
	return out
}

// SetRowName labels row i in the exported trace (Chrome thread_name
// metadata). Unnamed rows default to "rank <i>".
func (t *Tracer) SetRowName(i int, name string) {
	if t == nil || i < 0 || i >= len(t.ranks) {
		return
	}
	t.mu.Lock()
	t.rowNames[i] = name
	t.mu.Unlock()
}

// RowName returns row i's label ("rank <i>" when unset).
func (t *Tracer) RowName(i int) string {
	if t == nil || i < 0 || i >= len(t.ranks) {
		return ""
	}
	t.mu.Lock()
	name := t.rowNames[i]
	t.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("rank %d", i)
	}
	return name
}

// Events returns row i's recorded events oldest-first. When the ring has
// wrapped, only the newest capacity events survive.
func (t *Tracer) Events(i int) []Event {
	r := t.Rank(i)
	if r == nil {
		return nil
	}
	return r.Events()
}

// Dropped returns how many events row i overwrote after its ring filled.
func (t *Tracer) Dropped(i int) uint64 {
	r := t.Rank(i)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq <= uint64(len(r.events)) {
		return 0
	}
	return r.seq - uint64(len(r.events))
}

// Rank is one row's recording handle: a fixed-capacity ring of events
// behind a mutex. Multiple goroutines may record on the same row (e.g.
// the per-axis comm observers of one world rank); a nil *Rank discards
// everything.
type Rank struct {
	epoch time.Time
	row   int

	mu     sync.Mutex
	events []Event // guarded by mu; fixed-capacity ring, slot = seq % cap
	seq    uint64  // guarded by mu; next sequence number
}

// Span is an open interval returned by Begin. It is a value handle: End
// closes it by locating its ring slot. If the ring wrapped past the slot
// in between, End is a silent no-op (the event was already sacrificed to
// the capacity bound).
type Span struct {
	r     *Rank
	seq   uint64
	start time.Duration
}

// Begin opens a span. name and cat must be static or interned strings —
// the ring stores them by reference and the hot path must not allocate.
//
// dchag:hotpath
func (r *Rank) Begin(name, cat string) Span {
	if r == nil {
		return Span{}
	}
	start := time.Since(r.epoch)
	r.mu.Lock()
	seq := r.seq
	r.seq++
	slot := &r.events[seq%uint64(len(r.events))]
	slot.Seq = seq
	slot.Name = name
	slot.Cat = cat
	slot.Start = start
	slot.Dur = 0
	slot.Ph = 'X'
	slot.Bytes = 0
	r.mu.Unlock()
	return Span{r: r, seq: seq, start: start}
}

// End closes the span with zero payload bytes.
//
// dchag:hotpath
func (s Span) End() { s.EndBytes(0) }

// EndBytes closes the span and attaches a byte volume (wire bytes for
// comm ops, payload bytes for serve batches).
//
// dchag:hotpath
func (s Span) EndBytes(bytes int64) {
	if s.r == nil {
		return
	}
	dur := time.Since(s.r.epoch) - s.start
	s.r.mu.Lock()
	slot := &s.r.events[s.seq%uint64(len(s.r.events))]
	// The ring may have lapped this span's slot; writing the duration
	// into a stranger's event would corrupt it.
	if slot.Seq == s.seq && slot.Ph == 'X' {
		slot.Dur = dur
		slot.Bytes = bytes
	}
	s.r.mu.Unlock()
}

// Instant records a zero-duration marker event (rank death, rendezvous,
// cache hit). name and cat must be static or interned strings.
//
// dchag:hotpath
func (r *Rank) Instant(name, cat string) {
	if r == nil {
		return
	}
	start := time.Since(r.epoch)
	r.mu.Lock()
	seq := r.seq
	r.seq++
	slot := &r.events[seq%uint64(len(r.events))]
	slot.Seq = seq
	slot.Name = name
	slot.Cat = cat
	slot.Start = start
	slot.Dur = 0
	slot.Ph = 'i'
	slot.Bytes = 0
	r.mu.Unlock()
}

// Events returns the row's events oldest-first (a copy).
func (r *Rank) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.events))
	if r.seq <= n {
		return append([]Event(nil), r.events[:r.seq]...)
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.events[(r.seq+i)%n])
	}
	return out
}
