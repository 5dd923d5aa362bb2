package data

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The serving batcher regrids heterogeneous request grids onto the model
// grid through this package; these tests pin the regrid/masking behavior it
// depends on, on the two loaders that previously had the least coverage.

// TestWeatherSnapshotAtMatchesRegrid pins that the loader's fused
// snapshot-and-regrid path is exactly RegridBilinear applied per channel —
// so a serving request carrying a native-grid snapshot regrids to the same
// tensor the training pipeline produced.
func TestWeatherSnapshotAtMatchesRegrid(t *testing.T) {
	w := NewWeather(WeatherConfig{NativeH: 16, NativeW: 32, Steps: 8, DtHours: 6, Seed: 7})
	native := nativeSnapshot(w, 3)
	want := RegridBatch(native, 8, 16)
	got := w.SnapshotAt(3, 8, 16)
	if !tensor.SameShape(want, got) {
		t.Fatalf("shape mismatch: %v vs %v", want.Shape, got.Shape)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("SnapshotAt differs from per-channel RegridBilinear by %g", d)
	}
}

// nativeSnapshot stacks every channel of w at step on the native grid.
func nativeSnapshot(w *Weather, step int) *tensor.Tensor {
	fields := make([]*tensor.Tensor, w.Channels())
	for c := range fields {
		fields[c] = w.Field(c, step)
	}
	return tensor.Stack(fields...)
}

// regridRoundTripErr downsamples [C, H, W] to (h, w), upsamples back, and
// returns the max abs error relative to the max abs field value.
func regridRoundTripErr(fields *tensor.Tensor, h, w int) float64 {
	back := RegridBatch(RegridBatch(fields, h, w), fields.Shape[1], fields.Shape[2])
	maxAbs := 0.0
	for _, v := range fields.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return tensor.MaxAbsDiff(back, fields) / maxAbs
}

// TestWeatherRegridRoundTrip bounds the down-up regrid round-trip error on
// the synthetic atmosphere: the fields are smooth superpositions of
// low-wavenumber planetary waves, so halving the grid and interpolating
// back must stay within a modest relative error.
func TestWeatherRegridRoundTrip(t *testing.T) {
	w := NewWeather(WeatherConfig{NativeH: 32, NativeW: 64, Steps: 4, DtHours: 6, Seed: 11})
	if err := regridRoundTripErr(nativeSnapshot(w, 1), 16, 32); err > 0.25 {
		t.Fatalf("weather 2x regrid round-trip relative error %.3f too large", err)
	}
	// Down-up-down must reproduce the first downsample closely (the coarse
	// grid is a near fixed point of the round trip).
	coarse := RegridBatch(nativeSnapshot(w, 1), 16, 32)
	again := RegridBatch(RegridBatch(coarse, 32, 64), 16, 32)
	maxAbs := 0.0
	for _, v := range coarse.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if d := tensor.MaxAbsDiff(coarse, again) / maxAbs; d > 0.05 {
		t.Fatalf("coarse grid moved by relative %.3f under up-down round trip", d)
	}
}

// TestBiogeochemRegridRoundTrip does the same for the land-model loader:
// its latent drivers are broad Gaussian bumps, so the round trip through a
// half-resolution grid stays tight.
func TestBiogeochemRegridRoundTrip(t *testing.T) {
	g := NewBiogeochem(BiogeochemConfig{
		Variables: 4, Layers: 3, GridH: 16, GridW: 16, Steps: 12, Seed: 13,
	})
	if err := regridRoundTripErr(g.Snapshot(2), 8, 8); err > 0.25 {
		t.Fatalf("biogeochem 2x regrid round-trip relative error %.3f too large", err)
	}
}

// TestBiogeochemBatchDeterminismAndWrap pins the loader behaviors the
// serving and training paths assume: Batch is bitwise reproducible and
// wraps the time axis modulo Steps.
func TestBiogeochemBatchDeterminismAndWrap(t *testing.T) {
	cfg := BiogeochemConfig{Variables: 3, Layers: 2, GridH: 4, GridW: 5, Steps: 6, Seed: 17}
	a := NewBiogeochem(cfg).Batch(4, 4)
	b := NewBiogeochem(cfg).Batch(4, 4)
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("Batch not deterministic: differs by %g", d)
	}
	// Row 2 of Batch(4, ...) is step (4+2) % 6 = 0.
	row := tensor.SliceAxis(a, 0, 2, 3)
	want := NewBiogeochem(cfg).Snapshot(0)
	if d := tensor.MaxAbsDiff(row.Reshape(want.Shape...), want); d != 0 {
		t.Fatalf("Batch does not wrap modulo Steps: differs by %g", d)
	}
}

// TestRandomMaskEdgeRatios pins the mask generator's boundary behavior on
// the weather token grid: ratio 0 masks nothing, ratio 1 masks everything,
// and the count is exact at every intermediate ratio.
func TestRandomMaskEdgeRatios(t *testing.T) {
	tokens := 4 * 8 // the 8x16-at-patch-2 weather grid
	for _, tc := range []struct {
		ratio float64
		want  int
	}{
		{0, 0},
		{1, tokens},
		{0.5, tokens / 2},
		{0.75, tokens * 3 / 4},
	} {
		m := RandomMask(tensor.NewRNG(23), 3, tokens, tc.ratio)
		if got := masked(m); got != 3*tc.want {
			t.Fatalf("ratio %v masked %d tokens, want %d", tc.ratio, got, 3*tc.want)
		}
		// Per-row exactness, not just in aggregate.
		for b := 0; b < 3; b++ {
			n := 0
			for ti := 0; ti < tokens; ti++ {
				if m.At(b, ti) != 0 {
					n++
				}
			}
			if n != tc.want {
				t.Fatalf("ratio %v row %d masked %d, want %d", tc.ratio, b, n, tc.want)
			}
		}
	}
}

// TestRandomMaskStreamReplay pins the property exact resume and the serving
// tests rely on: replaying a consumed mask stream from the same seed
// reproduces it bit for bit, draw by draw.
func TestRandomMaskStreamReplay(t *testing.T) {
	const batch, tokens = 2, 24
	first := tensor.NewRNG(29)
	var stream []*tensor.Tensor
	for i := 0; i < 5; i++ {
		stream = append(stream, RandomMask(first, batch, tokens, 0.5))
	}
	replay := tensor.NewRNG(29)
	for i := 0; i < 5; i++ {
		m := RandomMask(replay, batch, tokens, 0.5)
		if d := tensor.MaxAbsDiff(stream[i], m); d != 0 {
			t.Fatalf("draw %d differs on replay by %g", i, d)
		}
	}
}
