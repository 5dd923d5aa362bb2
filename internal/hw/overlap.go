package hw

// Comm/compute overlap arithmetic. A training step's compute time is a
// budget of seconds that communication can hide behind: every collective
// stream that the software pipeline overlaps with math (FSDP parameter
// prefetch, DP gradient buckets) draws its hidden time from that one
// budget, because the step has only one compute timeline — two streams
// cannot both hide behind the same GEMM. The budget therefore caps total
// hidden time at the step's compute time, which is what guarantees the
// overlapped step can never be priced below max(compute, total comm).
//
// The discipline-specific windows (which slice of compute a stream may
// overlap: the whole step for prefetch, only the backward pass for gradient
// buckets) and the calibrated efficiency factors live in internal/perfmodel;
// this file owns only the machine-level arithmetic.

// OverlapBudget tracks the compute seconds still available for hiding
// communication within one step. Streams draw from it in discipline order
// via Hide; the zero value is an empty budget (everything stays exposed).
type OverlapBudget struct {
	remaining float64
}

// NewOverlapBudget returns a budget of the step's compute seconds.
// Negative compute is treated as zero.
func NewOverlapBudget(computeSeconds float64) *OverlapBudget {
	if computeSeconds < 0 {
		computeSeconds = 0
	}
	return &OverlapBudget{remaining: computeSeconds}
}

// Hide prices one communication stream against the budget and returns its
// exposed (non-overlapped) seconds. The hidden portion is
//
//	hidden = min(factor*comm, window, remaining budget)
//
// — the stream hides at most the calibrated fraction of its own time, at
// most its discipline's compute window, and at most what no earlier stream
// has already claimed — and is consumed from the budget. factor is clamped
// to [0, 1] and window to [0, inf); factor 0 returns comm unchanged
// (bit-for-bit: nothing is subtracted), which is the serial composition.
func (b *OverlapBudget) Hide(comm, window, factor float64) float64 {
	if comm <= 0 {
		return 0
	}
	if factor <= 0 {
		return comm
	}
	if factor > 1 {
		factor = 1
	}
	hidden := factor * comm
	if window < 0 {
		window = 0
	}
	if hidden > window {
		hidden = window
	}
	if hidden > b.remaining {
		hidden = b.remaining
	}
	b.remaining -= hidden
	return comm - hidden
}
