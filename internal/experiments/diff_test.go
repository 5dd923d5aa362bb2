package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// diffFixture builds a minimal valid v2 sweep report.
func diffFixture() SweepReport {
	return SweepReport{
		Schema:    SweepSchema,
		Overlap:   true,
		Scales:    []int{8, 16},
		CliffGCDs: 16,
		Points: []SweepPoint{
			{GCDs: 8, Method: "D-CHAG", TP: 4, FSDP: 2, DP: 1, Fits: true, StepSeconds: 0.8, SerialStepSeconds: 1.0, TFLOPsPerSecPerNode: 100, Best: true},
			{GCDs: 8, Method: "pure-FSDP", TP: 1, FSDP: 8, DP: 1, Fits: true, StepSeconds: 1.5, SerialStepSeconds: 2.0, TFLOPsPerSecPerNode: 50},
			{GCDs: 16, Method: "D-CHAG", TP: 8, FSDP: 2, DP: 1, Fits: true, StepSeconds: 1.2, SerialStepSeconds: 1.5, TFLOPsPerSecPerNode: 90, Best: true},
		},
		Cliff: []CliffPoint{
			{TP: 8, FSDP: 2, DP: 1, StepSeconds: 1.2, SerialStepSeconds: 1.5},
		},
	}
}

func mustClean(t *testing.T, oldRep, newRep SweepReport, tol float64) SweepDiff {
	t.Helper()
	d, err := DiffSweep(oldRep, newRep, tol)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Clean() {
		t.Fatalf("unexpected regressions: %v", d.Regressions)
	}
	return d
}

func TestDiffSweepIdenticalReportsClean(t *testing.T) {
	rep := diffFixture()
	mustClean(t, rep, rep, 0.05)
}

func TestDiffSweepFlagsBestShapeChange(t *testing.T) {
	oldRep, newRep := diffFixture(), diffFixture()
	newRep.Points[0].Best = false
	newRep.Points[1].Best = true
	d, err := DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "best shape changed") {
		t.Fatalf("regressions = %v, want one best-shape change", d.Regressions)
	}
}

func TestDiffSweepStepTimeTolerance(t *testing.T) {
	oldRep, newRep := diffFixture(), diffFixture()
	newRep.Points[1].SerialStepSeconds = 2.08 // +4%, inside 5%
	mustClean(t, oldRep, newRep, 0.05)
	newRep.Points[1].SerialStepSeconds = 2.2 // +10%
	d, err := DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "serial step time") {
		t.Fatalf("regressions = %v, want one serial step-time regression", d.Regressions)
	}
}

func TestDiffSweepOverlappedStepTimeRegression(t *testing.T) {
	// v2 reports also gate the overlapped step time — the headline number.
	oldRep, newRep := diffFixture(), diffFixture()
	newRep.Points[0].StepSeconds = 0.95 // +18.75% overlapped, serial unchanged
	d, err := DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "overlapped step time") {
		t.Fatalf("regressions = %v, want one overlapped step-time regression", d.Regressions)
	}
}

func TestDiffSweepFlagsOOMFlipAndDroppedCoverage(t *testing.T) {
	oldRep, newRep := diffFixture(), diffFixture()
	newRep.Points[1].Fits = false
	newRep.Scales = []int{8}
	newRep.Points = newRep.Points[:2]
	d, err := DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(d.Regressions, "\n")
	for _, want := range []string{"now OOM", "scale 16 GCDs dropped"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("regressions %v missing %q", d.Regressions, want)
		}
	}
}

func TestDiffSweepCliffRegression(t *testing.T) {
	oldRep, newRep := diffFixture(), diffFixture()
	newRep.Cliff[0].SerialStepSeconds = 2.0
	d, err := DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "cliff TP=8") {
		t.Fatalf("regressions = %v, want one cliff regression", d.Regressions)
	}
}

func TestDiffSweepCliffCoverage(t *testing.T) {
	// Dropping the cliff series (or moving its scale) is coverage loss,
	// not a silent pass.
	oldRep, newRep := diffFixture(), diffFixture()
	newRep.CliffGCDs = 8
	d, err := DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "cliff scale changed") {
		t.Fatalf("regressions = %v, want one cliff-scale change", d.Regressions)
	}
	newRep = diffFixture()
	newRep.Cliff = nil
	d, err = DiffSweep(oldRep, newRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "point dropped") {
		t.Fatalf("regressions = %v, want one dropped cliff point", d.Regressions)
	}
}

func TestDiffSweepSchemaGuard(t *testing.T) {
	// Any schema but the current one is an error naming what it got and
	// what it wants — not silently compared.
	for _, schema := range []string{"dchag-bench/sweep/v0", "dchag-bench/sweep/v1", "not-a-sweep"} {
		bad := diffFixture()
		bad.Schema = schema
		for _, pair := range [][2]SweepReport{{diffFixture(), bad}, {bad, diffFixture()}} {
			_, err := DiffSweep(pair[0], pair[1], 0.05)
			if err == nil {
				t.Fatalf("want schema error for %q", schema)
			}
			if !strings.Contains(err.Error(), strconv.Quote(schema)) || !strings.Contains(err.Error(), strconv.Quote(SweepSchema)) {
				t.Fatalf("error %q must name the schema it got (%s) and the one it wants (%s)", err, schema, SweepSchema)
			}
		}
	}
	if _, err := DiffSweep(diffFixture(), diffFixture(), -1); err == nil {
		t.Fatal("want tolerance error")
	}
}

func TestDiffSweepSelfConsistentOnRealSweep(t *testing.T) {
	// The real sweep is deterministic: diffing it against itself must be
	// clean, which is exactly the CI gate's steady state.
	rep := RunSweep([]int{8, 16})
	mustClean(t, rep, rep, 0)
}
