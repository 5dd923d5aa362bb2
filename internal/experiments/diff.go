package experiments

import (
	"fmt"
	"sort"
)

// shapeKey identifies one swept configuration across reports.
type shapeKey struct {
	GCDs   int
	Method string
	TP     int
	FSDP   int
	DP     int
}

func (k shapeKey) String() string {
	return fmt.Sprintf("%d GCDs %s TP=%d FSDP=%d DP=%d", k.GCDs, k.Method, k.TP, k.FSDP, k.DP)
}

func pointKey(p SweepPoint) shapeKey {
	return shapeKey{GCDs: p.GCDs, Method: p.Method, TP: p.TP, FSDP: p.FSDP, DP: p.DP}
}

// SweepDiff is the result of comparing two sweep reports: Regressions fail
// the perf gate (dchag-bench -diff exits 1).
type SweepDiff struct {
	Regressions []string
}

// Clean reports whether the comparison found no regressions.
func (d SweepDiff) Clean() bool { return len(d.Regressions) == 0 }

// DiffSweep mechanically compares two sweep reports and returns the
// regressions between them, for the perf-trajectory gate behind
// `dchag-bench -diff`:
//
//   - the best (highest-throughput) shape at any scale changed;
//   - a configuration present in both reports regressed in simulated step
//     time, serial or overlapped, by more than tolFrac (e.g. 0.05 = 5%);
//   - a configuration flipped between fitting and OOM;
//   - a scale or configuration covered by the old report disappeared.
//
// Improvements and newly added configurations are not regressions. An
// error (as opposed to regressions) means the reports cannot be compared
// at all: both must carry SweepSchema.
func DiffSweep(oldRep, newRep SweepReport, tolFrac float64) (SweepDiff, error) {
	var d SweepDiff
	if oldRep.Schema != SweepSchema {
		return d, fmt.Errorf("experiments: old report schema is %q, want %q", oldRep.Schema, SweepSchema)
	}
	if newRep.Schema != SweepSchema {
		return d, fmt.Errorf("experiments: new report schema is %q, want %q", newRep.Schema, SweepSchema)
	}
	if tolFrac < 0 {
		return d, fmt.Errorf("experiments: negative tolerance %v", tolFrac)
	}
	regress := func(format string, args ...any) {
		d.Regressions = append(d.Regressions, fmt.Sprintf(format, args...))
	}

	newScales := make(map[int]bool, len(newRep.Scales))
	for _, s := range newRep.Scales {
		newScales[s] = true
	}
	for _, s := range oldRep.Scales {
		if !newScales[s] {
			regress("scale %d GCDs dropped from the sweep", s)
		}
	}

	// Best-shape changes per scale covered by both reports.
	for _, s := range oldRep.Scales {
		if !newScales[s] {
			continue
		}
		oldBest, oldOK := oldRep.BestAt(s)
		newBest, newOK := newRep.BestAt(s)
		switch {
		case oldOK && !newOK:
			regress("%d GCDs: no best shape anymore (was %s)", s, pointKey(oldBest))
		case oldOK && newOK && pointKey(oldBest) != pointKey(newBest):
			regress("%d GCDs: best shape changed: %s -> %s", s, pointKey(oldBest), pointKey(newBest))
		}
	}

	// Per-configuration step-time and fit regressions.
	newPoints := make(map[shapeKey]SweepPoint, len(newRep.Points))
	for _, p := range newRep.Points {
		newPoints[pointKey(p)] = p
	}
	for _, op := range oldRep.Points {
		key := pointKey(op)
		np, ok := newPoints[key]
		if !ok {
			if newScales[op.GCDs] {
				regress("%s: configuration dropped from the sweep", key)
			}
			continue
		}
		if op.Fits && !np.Fits {
			regress("%s: previously fit, now OOM", key)
			continue
		}
		if !op.Fits || !np.Fits {
			continue
		}
		if np.SerialStepSeconds > op.SerialStepSeconds*(1+tolFrac) {
			regress("%s: serial step time %.4fs -> %.4fs (+%.1f%%, tolerance %.1f%%)",
				key, op.SerialStepSeconds, np.SerialStepSeconds, 100*(np.SerialStepSeconds/op.SerialStepSeconds-1), 100*tolFrac)
		}
		if np.StepSeconds > op.StepSeconds*(1+tolFrac) {
			regress("%s: overlapped step time %.4fs -> %.4fs (+%.1f%%, tolerance %.1f%%)",
				key, op.StepSeconds, np.StepSeconds, 100*(np.StepSeconds/op.StepSeconds-1), 100*tolFrac)
		}
	}

	// Cliff series: scale changes, dropped points, and step-time
	// regressions are all coverage signal — the cliff is the sweep's
	// headline claim, so it cannot silently disappear.
	if oldRep.CliffGCDs != newRep.CliffGCDs {
		regress("cliff scale changed: %d -> %d GCDs", oldRep.CliffGCDs, newRep.CliffGCDs)
	} else {
		newCliff := make(map[shapeKey]CliffPoint, len(newRep.Cliff))
		for _, c := range newRep.Cliff {
			newCliff[shapeKey{GCDs: newRep.CliffGCDs, Method: "cliff", TP: c.TP, FSDP: c.FSDP, DP: c.DP}] = c
		}
		for _, oc := range oldRep.Cliff {
			key := shapeKey{GCDs: oldRep.CliffGCDs, Method: "cliff", TP: oc.TP, FSDP: oc.FSDP, DP: oc.DP}
			nc, ok := newCliff[key]
			if !ok {
				regress("cliff TP=%d: point dropped from the series", oc.TP)
				continue
			}
			if nc.SerialStepSeconds > oc.SerialStepSeconds*(1+tolFrac) {
				regress("cliff TP=%d: serial step time %.4fs -> %.4fs (+%.1f%%, tolerance %.1f%%)",
					oc.TP, oc.SerialStepSeconds, nc.SerialStepSeconds, 100*(nc.SerialStepSeconds/oc.SerialStepSeconds-1), 100*tolFrac)
			}
			if nc.StepSeconds > oc.StepSeconds*(1+tolFrac) {
				regress("cliff TP=%d: overlapped step time %.4fs -> %.4fs (+%.1f%%, tolerance %.1f%%)",
					oc.TP, oc.StepSeconds, nc.StepSeconds, 100*(nc.StepSeconds/oc.StepSeconds-1), 100*tolFrac)
			}
		}
	}

	sort.Strings(d.Regressions)
	return d, nil
}
