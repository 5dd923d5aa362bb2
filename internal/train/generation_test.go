package train

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/leakcheck"
)

// TestRunGenerationMatchesDistributed: a full-range generation at DP=1 must
// reproduce the Distributed trajectory bitwise — the generation loop is the
// same arithmetic (DP-size-1 gradient sync and loss reduction are exact
// identities), so the elastic path inherits every trajectory guarantee the
// plain path has.
func TestRunGenerationMatchesDistributed(t *testing.T) {
	leakcheck.Check(t)
	const q = 2
	a := tinyArch(4)
	opts := Options{Steps: 5, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 7, ClipNorm: 1}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)

	distHist, _, err := Distributed(a, q, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	res := RunGeneration(a, opts, GenSpec{TP: q, DP: 1, Start: 0, End: opts.Steps}, batch)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sameLoss(t, "generation vs distributed", distHist.Loss, res.Hist.Loss)
	for r, b := range res.Boundary {
		if b != opts.Steps {
			t.Fatalf("rank %d final boundary = %d, want %d", r, b, opts.Steps)
		}
	}
}

// TestGenerationBoundaryHandoffBitwise: splitting a run into two
// generations joined by an in-memory boundary assembly must be bitwise
// invisible — the core property behind zero-rollback elastic resizing.
func TestGenerationBoundaryHandoffBitwise(t *testing.T) {
	leakcheck.Check(t)
	const q = 2
	a := tinyArch(4)
	a.Partitions = q
	opts := Options{Steps: 6, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 11, ClipNorm: 1}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)

	whole := RunGeneration(a, opts, GenSpec{TP: q, DP: 1, Start: 0, End: opts.Steps}, batch)
	if whole.Err != nil {
		t.Fatal(whole.Err)
	}

	first := RunGeneration(a, opts, GenSpec{TP: q, DP: 1, Start: 0, End: 3}, batch)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	ck, err := AssembleBoundary(a, q, 3, first.Trees)
	if err != nil {
		t.Fatal(err)
	}
	second := RunGeneration(a, opts, GenSpec{TP: q, DP: 1, Start: 3, End: opts.Steps, From: ck}, batch)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	joined := append(append([]float64(nil), first.Hist.Loss...), second.Hist.Loss...)
	sameLoss(t, "split vs whole", whole.Hist.Loss, joined)
	if second.Hist.Start != 3 {
		t.Fatalf("second generation start = %d", second.Hist.Start)
	}
}

// TestGenerationCheckpointRestartBitwise: a generation restored from a
// committed on-disk checkpoint continues exactly like the uninterrupted
// run — Resume semantics through the GenSpec.From path.
func TestGenerationCheckpointRestartBitwise(t *testing.T) {
	leakcheck.Check(t)
	const q = 2
	a := tinyArch(4)
	a.Partitions = q
	opts := Options{Steps: 6, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3, ClipNorm: 1}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)

	whole := RunGeneration(a, opts, GenSpec{TP: q, DP: 1, Start: 0, End: opts.Steps}, batch)
	if whole.Err != nil {
		t.Fatal(whole.Err)
	}

	saveOpts := opts
	saveOpts.CheckpointDir = t.TempDir()
	saveOpts.CheckpointEvery = 3
	saveOpts.CheckpointKeep = 4
	first := RunGeneration(a, saveOpts, GenSpec{TP: q, DP: 1, Start: 0, End: 3}, batch)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	ck, err := ckpt.OpenLatest(saveOpts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Step != 3 {
		t.Fatalf("latest checkpoint at step %d, want 3", ck.Manifest.Step)
	}
	second := RunGeneration(a, opts, GenSpec{TP: q, DP: 1, Start: 3, End: opts.Steps, From: ck}, batch)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	joined := append(append([]float64(nil), first.Hist.Loss...), second.Hist.Loss...)
	sameLoss(t, "checkpoint restart vs whole", whole.Hist.Loss, joined)
}

func TestRunGenerationValidation(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2, 2)
	opts := Options{Steps: 2, Batch: 2, LR: 1e-2}
	if res := RunGeneration(a, opts, GenSpec{TP: 0, DP: 1, Start: 0, End: 2}, batch); res.Err == nil {
		t.Fatal("want error for tp=0")
	}
	if res := RunGeneration(a, opts, GenSpec{TP: 2, DP: 1, Start: 1, End: 2}, batch); res.Err == nil {
		t.Fatal("want error for nonzero start without restore source")
	}
	if res := RunGeneration(a, opts, GenSpec{TP: 2, DP: 1, Start: 0, End: 3}, batch); res.Err == nil {
		t.Fatal("want error for end beyond Steps")
	}
	if res := RunGeneration(a, opts, GenSpec{TP: 2, DP: 3, Start: 0, End: 2}, batch); res.Err == nil {
		t.Fatal("want error for batch not divisible by dp")
	}
	// A generation's only restore source is GenSpec.From: Resume/InitFrom
	// must be refused, not validated and then ignored.
	resume := opts
	resume.Resume, resume.CheckpointDir = true, t.TempDir()
	if res := RunGeneration(a, resume, GenSpec{TP: 2, DP: 1, Start: 0, End: 2}, batch); res.Err == nil || !strings.Contains(res.Err.Error(), "GenSpec.From") {
		t.Fatalf("Resume on a generation: err = %v, want one naming GenSpec.From", res.Err)
	}
	warm := opts
	warm.InitFrom = t.TempDir()
	if res := RunGeneration(a, warm, GenSpec{TP: 2, DP: 1, Start: 0, End: 2}, batch); res.Err == nil || !strings.Contains(res.Err.Error(), "GenSpec.From") {
		t.Fatalf("InitFrom on a generation: err = %v, want one naming GenSpec.From", res.Err)
	}
}
