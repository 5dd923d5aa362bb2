package comm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Op identifies a collective operation kind in the traffic ledger.
type Op string

// Collective operation kinds.
const (
	OpAllGather     Op = "allgather"
	OpAllReduce     Op = "allreduce"
	OpReduceScatter Op = "reducescatter"
	OpBroadcast     Op = "broadcast"
	OpSend          Op = "send"
	OpRecv          Op = "recv" // fault-injection points only; Recv moves no bytes of its own
	OpBarrier       Op = "barrier"
)

// BytesPerElem is the byte width of one element on the simulated wire:
// the collectives exchange float64 tensors, so every elems figure the
// Traffic ledger and the Observer hook report converts to bytes at 8.
const BytesPerElem = 8

// Stat accumulates call count and byte volume for one ledger key.
type Stat struct {
	Calls int
	Bytes int64
}

type trafficKey struct {
	Rank  int
	Phase string
	Op    Op
}

// Traffic is a thread-safe ledger of collective operations, keyed by
// (rank, phase label, op). The byte volumes recorded are the per-rank wire
// volumes of ring implementations of each collective, which is what the
// paper's communication claims are about.
type Traffic struct {
	mu      sync.Mutex
	entries map[trafficKey]*Stat
}

// NewTraffic returns an empty ledger.
func NewTraffic() *Traffic {
	return &Traffic{entries: make(map[trafficKey]*Stat)}
}

// Record adds one operation of elems float64 elements for (rank, phase, op).
func (t *Traffic) Record(rank int, phase string, op Op, elems int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := trafficKey{Rank: rank, Phase: phase, Op: op}
	s := t.entries[k]
	if s == nil {
		s = &Stat{}
		t.entries[k] = s
	}
	s.Calls++
	s.Bytes += int64(elems) * BytesPerElem
}

// Reset clears the ledger.
func (t *Traffic) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = make(map[trafficKey]*Stat)
}

// BytesInPhase returns the total bytes recorded under the given phase label
// across all ranks and ops. Barrier entries carry zero bytes.
func (t *Traffic) BytesInPhase(phase string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for k, s := range t.entries {
		if k.Phase == phase {
			total += s.Bytes
		}
	}
	return total
}

// CallsInPhase returns the total collective calls under the given phase
// label, excluding barriers.
func (t *Traffic) CallsInPhase(phase string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for k, s := range t.entries {
		if k.Phase == phase && k.Op != OpBarrier {
			total += s.Calls
		}
	}
	return total
}

// BytesFor returns bytes for a specific (rank, phase, op) triple.
func (t *Traffic) BytesFor(rank int, phase string, op Op) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.entries[trafficKey{Rank: rank, Phase: phase, Op: op}]; s != nil {
		return s.Bytes
	}
	return 0
}

// CallsFor returns call count for a specific (rank, phase, op) triple.
func (t *Traffic) CallsFor(rank int, phase string, op Op) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.entries[trafficKey{Rank: rank, Phase: phase, Op: op}]; s != nil {
		return s.Calls
	}
	return 0
}

// TotalBytes returns the ledger-wide byte volume.
func (t *Traffic) TotalBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.entries {
		total += s.Bytes
	}
	return total
}

// String renders the ledger sorted by rank, phase and op, for debugging and
// experiment reports.
func (t *Traffic) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]trafficKey, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Rank != keys[j].Rank {
			return keys[i].Rank < keys[j].Rank
		}
		if keys[i].Phase != keys[j].Phase {
			return keys[i].Phase < keys[j].Phase
		}
		return keys[i].Op < keys[j].Op
	})
	var b strings.Builder
	for _, k := range keys {
		s := t.entries[k]
		fmt.Fprintf(&b, "rank %d  %-10s %-14s calls=%-4d bytes=%d\n", k.Rank, k.Phase, k.Op, s.Calls, s.Bytes)
	}
	return b.String()
}
