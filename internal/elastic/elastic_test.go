package elastic

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
)

func tinyArch(channels int) model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: channels, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 99,
		},
		Depth:      1,
		MetaTokens: 1,
	}
}

// fixedBatches precomputes deterministic batches so every topology and
// every replay consumes byte-identical data.
func fixedBatches(t *testing.T, channels, steps, batch int) train.BatchFn {
	t.Helper()
	g := data.NewHyperspectral(data.HyperspectralConfig{
		Images: steps * batch, Channels: channels, ImgH: 4, ImgW: 4,
		Endmembers: 2, Noise: 0.01, Seed: 42,
	})
	xs := make([]*tensor.Tensor, steps)
	for s := 0; s < steps; s++ {
		xs[s] = g.Batch(s*batch, batch)
	}
	return func(step int) (*tensor.Tensor, *tensor.Tensor) {
		return xs[step], xs[step]
	}
}

func sameLoss(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(want), len(got))
	}
	for s := range want {
		if want[s] != got[s] {
			t.Fatalf("%s: step %d: want %v, got %v", label, s, want[s], got[s])
		}
	}
}

// nearLoss tolerates float64 round-off; cross-topology comparisons need it
// because the distributed clip-norm reduction associates partial sums
// differently than the serial loop.
func nearLoss(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(want), len(got))
	}
	for s := range want {
		if math.Abs(want[s]-got[s]) > 1e-12*math.Abs(want[s]) {
			t.Fatalf("%s: step %d: want %v, got %v", label, s, want[s], got[s])
		}
	}
}

// serialReference trains the serial DCHAG-equivalent model on the same
// options and returns its per-step losses — the oracle every elastic
// trajectory must match step for step.
func serialReference(t *testing.T, a model.Arch, partitions int, opts train.Options, batch train.BatchFn) []float64 {
	t.Helper()
	opts.CheckpointDir = ""
	opts.CheckpointEvery = 0
	opts.CheckpointKeep = 0
	return train.Serial(model.NewSerialDCHAGEquivalent(a, partitions), opts, batch).Loss
}

// copyDir clones a committed checkpoint directory so later training cannot
// disturb the copy the control run restores from.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestElasticShrinkBitwiseVsColdRestore is the acceptance pin: train at 8
// ranks, kill one rank mid-run under the deterministic fault plan,
// re-rendezvous at 4 ranks from the last committed checkpoint, continue —
// and the continued loss trajectory must be bitwise identical to a cold
// restore-at-4 (the independent train.Distributed resume path) from the
// same commit.
func TestElasticShrinkBitwiseVsColdRestore(t *testing.T) {
	leakcheck.Check(t)
	const (
		channels = 8
		steps    = 10
	)
	a := tinyArch(channels)
	root := t.TempDir()
	opts := train.Options{
		Steps: steps, Batch: 4, LR: 1e-2, MaskRatio: 0.5, Seed: 5, ClipNorm: 1,
		CheckpointDir: root, CheckpointEvery: 3, CheckpointKeep: 4,
	}
	batch := fixedBatches(t, channels, steps, opts.Batch)
	plan := faultinject.NewPlan().KillAtStep(5, 7)

	rep, err := Run(a, opts, Options{TP: 8, DP: 1, MinWorld: 2, Plan: plan}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Generations) != 2 {
		t.Fatalf("generations = %+v, want 2", rep.Generations)
	}
	g0, g1 := rep.Generations[0], rep.Generations[1]
	if g0.TP != 8 || g0.DP != 1 || g0.Start != 0 || g0.Source != SourceFresh {
		t.Fatalf("generation 0 = %+v", g0)
	}
	if len(g0.Failed) != 1 || g0.Failed[0] != 5 {
		t.Fatalf("generation 0 failed set = %v, want [5]", g0.Failed)
	}
	// Rank 5's shard has no surviving replica at TP8×DP1, so the reshard
	// must come from the step-6 commit (the step-7 kill fires before any
	// step-7 state exists anywhere).
	if g1.TP != 4 || g1.DP != 1 || g1.Start != 6 || g1.Source != SourceCheckpoint {
		t.Fatalf("generation 1 = %+v, want TP4 DP1 from checkpoint at step 6", g1)
	}
	if len(plan.Fired()) != 1 {
		t.Fatalf("fired faults = %v", plan.Fired())
	}

	// Control: cold restore-at-4 from a copy of the same commit, through
	// train.Distributed's own resume path (independent of the generation
	// loop).
	a4 := a
	a4.Partitions = 8
	cold := copyDir(t, ckpt.StepDir(root, 6))
	coldOpts := train.Options{
		Steps: steps, Batch: 4, LR: 1e-2, MaskRatio: 0.5, Seed: 5, ClipNorm: 1,
		CheckpointDir: cold, Resume: true,
	}
	hist, _, err := train.Distributed(a4, 4, false, coldOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Start != 6 {
		t.Fatalf("cold restore started at %d, want 6", hist.Start)
	}
	sameLoss(t, "elastic continuation vs cold restore-at-4", hist.Loss, rep.Loss[6:])

	// And the whole realized trajectory still tracks the serial oracle.
	ref := serialReference(t, a, 8, opts, batch)
	nearLoss(t, "elastic trajectory vs serial reference", ref, rep.Loss)
}

type genExpect struct {
	tp, dp int
	start  int
	source string
	failed []int
}

// TestElasticChaosMatrix drives the supervisor through the failure modes
// that matter: death at a step boundary, death mid-collective, death during
// a checkpoint save, a double failure, and a DP-replicated death that reshards from memory with zero rollback. Every
// case must end with the full trajectory matching the serial oracle and no
// leaked goroutines.
func TestElasticChaosMatrix(t *testing.T) {
	const steps = 6
	cases := []struct {
		name       string
		channels   int
		tp, dp     int
		ckptEvery  int // 0: no checkpoint dir
		plan       func() *faultinject.Plan
		wantGens   []genExpect
		skipSource bool // mid-collective: boundary spread depends on op layout
	}{
		{
			name: "fail-at-step-boundary", channels: 4, tp: 4, dp: 1, ckptEvery: 2,
			plan: func() *faultinject.Plan { return faultinject.NewPlan().KillAtStep(2, 3) },
			wantGens: []genExpect{
				{tp: 4, dp: 1, start: 0, source: SourceFresh, failed: []int{2}},
				{tp: 2, dp: 1, start: 2, source: SourceCheckpoint},
			},
		},
		{
			name: "fail-mid-collective", channels: 4, tp: 2, dp: 2, ckptEvery: 2,
			plan:       func() *faultinject.Plan { return faultinject.NewPlan().KillBeforeOp(1, 2) },
			skipSource: true,
			wantGens: []genExpect{
				{tp: 2, dp: 2, start: 0, source: SourceFresh, failed: []int{1}},
				{tp: 2, dp: 1, start: 0, source: SourceMemory},
			},
		},
		{
			name: "fail-during-checkpoint-save", channels: 4, tp: 4, dp: 1, ckptEvery: 2,
			plan: func() *faultinject.Plan { return faultinject.NewPlan().KillInCheckpoint(3, 4) },
			wantGens: []genExpect{
				{tp: 4, dp: 1, start: 0, source: SourceFresh, failed: []int{3}},
				// The step-4 save died uncommitted; the rollback target is
				// the step-2 commit, not the poisoned partial.
				{tp: 2, dp: 1, start: 2, source: SourceCheckpoint},
			},
		},
		{
			name: "double-failure", channels: 4, tp: 4, dp: 1, ckptEvery: 2,
			plan: func() *faultinject.Plan { return faultinject.NewPlan().KillAtStep(0, 3).KillAtStep(2, 3) },
			wantGens: []genExpect{
				{tp: 4, dp: 1, start: 0, source: SourceFresh, failed: []int{0, 2}},
				{tp: 2, dp: 1, start: 2, source: SourceCheckpoint},
			},
		},
		{
			name: "dp-replica-survives-in-memory", channels: 4, tp: 2, dp: 2,
			plan: func() *faultinject.Plan { return faultinject.NewPlan().KillAtStep(1, 3) },
			wantGens: []genExpect{
				{tp: 2, dp: 2, start: 0, source: SourceFresh, failed: []int{1}},
				// Rank 1's shard survives on its DP twin, so the reshard is
				// in-memory at the kill boundary: zero steps lost.
				{tp: 2, dp: 1, start: 3, source: SourceMemory},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			a := tinyArch(tc.channels)
			opts := train.Options{
				Steps: steps, Batch: 4, LR: 1e-2, MaskRatio: 0.5, Seed: 9, ClipNorm: 1,
			}
			if tc.ckptEvery > 0 {
				opts.CheckpointDir = t.TempDir()
				opts.CheckpointEvery = tc.ckptEvery
				opts.CheckpointKeep = 8
			}
			batch := fixedBatches(t, tc.channels, steps, opts.Batch)
			eo := Options{TP: tc.tp, DP: tc.dp, MinWorld: 1}
			var plan *faultinject.Plan
			if tc.plan != nil {
				plan = tc.plan()
				eo.Plan = plan
			}
			rep, err := Run(a, opts, eo, batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Generations) != len(tc.wantGens) {
				t.Fatalf("generations = %+v, want %d", rep.Generations, len(tc.wantGens))
			}
			for i, want := range tc.wantGens {
				g := rep.Generations[i]
				if g.TP != want.tp || g.DP != want.dp {
					t.Fatalf("generation %d shape = %dx%d, want %dx%d", i, g.TP, g.DP, want.tp, want.dp)
				}
				if !tc.skipSource || i == 0 {
					if g.Start != want.start || g.Source != want.source {
						t.Fatalf("generation %d = %+v, want start %d source %s", i, g, want.start, want.source)
					}
				}
				if want.failed != nil {
					if len(g.Failed) != len(want.failed) {
						t.Fatalf("generation %d failed = %v, want %v", i, g.Failed, want.failed)
					}
					for j := range want.failed {
						if g.Failed[j] != want.failed[j] {
							t.Fatalf("generation %d failed = %v, want %v", i, g.Failed, want.failed)
						}
					}
				}
			}
			if plan != nil && len(plan.Fired()) == 0 {
				t.Fatal("no planned fault fired")
			}
			ref := serialReference(t, a, tc.tp, opts, batch)
			nearLoss(t, "trajectory vs serial reference", ref, rep.Loss)
		})
	}
}

// TestElasticFailsBelowMinWorld: when the survivors cannot form a viable
// mesh, the supervisor must fail loudly with the triggering rank error
// still in the chain — silent shrink-to-nothing is not recovery.
func TestElasticFailsBelowMinWorld(t *testing.T) {
	leakcheck.Check(t)
	a := tinyArch(4)
	opts := train.Options{
		Steps: 4, Batch: 4, LR: 1e-2, MaskRatio: 0.5, Seed: 9, ClipNorm: 1,
		CheckpointDir: t.TempDir(), CheckpointEvery: 1, CheckpointKeep: 8,
	}
	batch := fixedBatches(t, 4, 4, opts.Batch)
	plan := faultinject.NewPlan().KillAtStep(0, 2).KillAtStep(1, 2).KillAtStep(2, 2)
	rep, err := Run(a, opts, Options{TP: 4, DP: 1, MinWorld: 2, Plan: plan}, batch)
	if err == nil {
		t.Fatal("supervisor recovered below MinWorld")
	}
	if len(rep.Generations) != 1 || len(rep.Generations[0].Failed) != 3 {
		t.Fatalf("generations = %+v", rep.Generations)
	}
}

// TestTraceNamesSupervisorRow: the supervisor's row is the tracer's last,
// one past the initial world, and the exported trace labels it
// "supervisor" rather than as a rank that does not exist.
func TestTraceNamesSupervisorRow(t *testing.T) {
	leakcheck.Check(t)
	const tp = 2
	a := tinyArch(4)
	tr := obs.NewTracer(tp+1, 256)
	opts := train.Options{Steps: 2, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 9}
	if _, err := Run(a, opts, Options{TP: tp, DP: 1, Trace: tr}, fixedBatches(t, 4, opts.Steps, opts.Batch)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	names := map[int]any{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names[ev.Tid] = ev.Args["name"]
		}
	}
	want := map[int]any{0: "rank 0", 1: "rank 1", tp: "supervisor"}
	for tid, name := range want {
		if names[tid] != name {
			t.Fatalf("thread_name of row %d = %v, want %q (all: %v)", tid, names[tid], name, names)
		}
	}
}
