package data

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestHyperspectralShapeAndDeterminism(t *testing.T) {
	cfg := HyperspectralConfig{Images: 5, Channels: 20, ImgH: 8, ImgW: 8, Endmembers: 3, Noise: 0.01, Seed: 1}
	g := NewHyperspectral(cfg)
	img := g.Image(2)
	if img.Shape[0] != 20 || img.Shape[1] != 8 || img.Shape[2] != 8 {
		t.Fatalf("shape = %v", img.Shape)
	}
	img2 := NewHyperspectral(cfg).Image(2)
	if tensor.MaxAbsDiff(img, img2) != 0 {
		t.Fatal("same (seed, idx) must reproduce the image")
	}
	if tensor.MaxAbsDiff(g.Image(0), g.Image(1)) == 0 {
		t.Fatal("different images must differ")
	}
}

func TestHyperspectralSpectralSmoothness(t *testing.T) {
	// Adjacent bands must be strongly correlated — the physical property a
	// hyperspectral MAE exploits. Compare adjacent-band difference to
	// far-band difference on a noise-free generator.
	cfg := HyperspectralConfig{Images: 1, Channels: 64, ImgH: 8, ImgW: 8, Endmembers: 3, Noise: 0, Seed: 3}
	g := NewHyperspectral(cfg)
	img := g.Image(0)
	hw := 64
	adj, far := 0.0, 0.0
	for c := 0; c+8 < 64; c++ {
		for p := 0; p < hw; p++ {
			adj += math.Abs(img.Data[c*hw+p] - img.Data[(c+1)*hw+p])
			far += math.Abs(img.Data[c*hw+p] - img.Data[(c+8)*hw+p])
		}
	}
	if adj >= far {
		t.Fatalf("adjacent-band variation %v should be below far-band variation %v", adj, far)
	}
}

func TestHyperspectralBatchWraps(t *testing.T) {
	cfg := HyperspectralConfig{Images: 3, Channels: 4, ImgH: 4, ImgW: 4, Endmembers: 2, Noise: 0, Seed: 4}
	g := NewHyperspectral(cfg)
	b := g.Batch(2, 2) // images 2 and 0 (wrap)
	if b.Shape[0] != 2 {
		t.Fatalf("batch shape = %v", b.Shape)
	}
	if tensor.MaxAbsDiff(tensor.SliceAxis(b, 0, 1, 2).Reshape(4, 4, 4), g.Image(0)) != 0 {
		t.Fatal("batch must wrap around the dataset")
	}
}

func TestWeatherChannelStructure(t *testing.T) {
	w := NewWeather(WeatherConfig{NativeH: 16, NativeW: 32, Steps: 8, DtHours: 6, Seed: 5})
	if w.Channels() != 80 {
		t.Fatalf("channels = %d, want 80 (paper Sec. 5.2)", w.Channels())
	}
	for _, name := range []string{"z500", "t850", "u10"} {
		if w.ChannelIndex(name) < 0 {
			t.Fatalf("missing evaluation channel %q", name)
		}
	}
	if w.ChannelIndex("nope") != -1 {
		t.Fatal("unknown channel should be -1")
	}
}

func TestWeatherEvolvesAndIsDeterministic(t *testing.T) {
	cfg := WeatherConfig{NativeH: 16, NativeW: 32, Steps: 8, DtHours: 6, Seed: 6}
	w := NewWeather(cfg)
	f0 := w.Field(0, 0)
	f1 := w.Field(0, 1)
	if tensor.MaxAbsDiff(f0, f1) == 0 {
		t.Fatal("dynamic field must evolve in time")
	}
	// Static channels do not evolve.
	oro := w.ChannelIndex("orography")
	if tensor.MaxAbsDiff(w.Field(oro, 0), w.Field(oro, 5)) != 0 {
		t.Fatal("static field must not evolve")
	}
	// Determinism.
	if tensor.MaxAbsDiff(NewWeather(cfg).Field(0, 3), w.Field(0, 3)) != 0 {
		t.Fatal("weather must be deterministic in (seed, step)")
	}
}

func TestWeatherPairBatchShapes(t *testing.T) {
	w := NewWeather(WeatherConfig{NativeH: 16, NativeW: 32, Steps: 8, DtHours: 6, Seed: 7})
	x, y := w.PairBatch(0, 2, 1, 8, 16)
	if x.Shape[0] != 2 || x.Shape[1] != 80 || x.Shape[2] != 8 || x.Shape[3] != 16 {
		t.Fatalf("x shape = %v", x.Shape)
	}
	if !tensor.SameShape(x, y) {
		t.Fatal("x and y must have the same shape")
	}
	if tensor.MaxAbsDiff(x, y) == 0 {
		t.Fatal("input and lead-time target must differ")
	}
}

func TestRegridPreservesConstants(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		v := rng.Float64()*10 - 5
		field := tensor.Full(v, 8, 16)
		out := RegridBilinear(field, 3, 5)
		for _, got := range out.Data {
			if math.Abs(got-v) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRegridIdentity(t *testing.T) {
	rng := tensor.NewRNG(8)
	field := tensor.Randn(rng, 6, 12)
	same := RegridBilinear(field, 6, 12)
	if tensor.MaxAbsDiff(field, same) > 1e-12 {
		t.Fatal("same-resolution regrid must be the identity")
	}
}

func TestRegridLinearGradientExact(t *testing.T) {
	// Bilinear interpolation reproduces a linear ramp exactly away from the
	// clamped boundary rows.
	h, w := 8, 8
	field := tensor.New(h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			field.Data[y*w+x] = float64(y)
		}
	}
	out := RegridBilinear(field, 4, 4)
	// Interior target rows: source coordinate sy = (y+0.5)*2 - 0.5.
	for y := 1; y < 3; y++ {
		want := (float64(y)+0.5)*2 - 0.5
		for x := 0; x < 4; x++ {
			if math.Abs(out.At(y, x)-want) > 1e-12 {
				t.Fatalf("ramp value at (%d,%d) = %v, want %v", y, x, out.At(y, x), want)
			}
		}
	}
}

func TestRegridLongitudeWraps(t *testing.T) {
	// A field with a discontinuity only at the dateline must interpolate
	// across the wrap, not clamp.
	field := tensor.New(2, 4)
	field.Data = []float64{1, 0, 0, 1, 1, 0, 0, 1} // wraps smoothly: col 3 -> col 0 both 1
	out := RegridBilinear(field, 2, 8)
	// Sample near the wrap boundary; all values must be within [0, 1].
	for _, v := range out.Data {
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("wrap interpolation out of range: %v", out.Data)
		}
	}
}

func TestRegridBatch(t *testing.T) {
	rng := tensor.NewRNG(9)
	fields := tensor.Randn(rng, 3, 8, 8)
	out := RegridBatch(fields, 4, 4)
	if out.Shape[0] != 3 || out.Shape[1] != 4 || out.Shape[2] != 4 {
		t.Fatalf("shape = %v", out.Shape)
	}
}

func TestRandomMaskRatioExact(t *testing.T) {
	rng := tensor.NewRNG(10)
	mask := RandomMask(rng, 4, 16, 0.75)
	for b := 0; b < 4; b++ {
		n := 0
		for tIdx := 0; tIdx < 16; tIdx++ {
			if mask.At(b, tIdx) != 0 {
				n++
			}
		}
		if n != 12 {
			t.Fatalf("row %d has %d masked, want 12", b, n)
		}
	}
	if got := masked(mask); got != 48 {
		t.Fatalf("masked count = %v", got)
	}
}

func TestRandomMaskDeterministicStream(t *testing.T) {
	m1 := RandomMask(tensor.NewRNG(11), 2, 8, 0.5)
	m2 := RandomMask(tensor.NewRNG(11), 2, 8, 0.5)
	if tensor.MaxAbsDiff(m1, m2) != 0 {
		t.Fatal("same rng state must give same mask")
	}
}

func TestPseudoRGB(t *testing.T) {
	g := NewHyperspectral(HyperspectralConfig{Images: 1, Channels: 32, ImgH: 4, ImgW: 4, Endmembers: 2, Noise: 0, Seed: 13})
	img := g.Image(0)
	rgb := PseudoRGB(img)
	if rgb.Shape[0] != 3 || rgb.Shape[1] != 4 || rgb.Shape[2] != 4 {
		t.Fatalf("shape = %v", rgb.Shape)
	}
	// Each plane is its band (60%, 35%, 10% of 31) min-max normalized.
	for plane, band := range []int{18, 10, 3} {
		src := img.Data[band*16 : (band+1)*16]
		lo, hi := src[0], src[0]
		for _, v := range src {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		for p, v := range rgb.Data[plane*16 : (plane+1)*16] {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v outside [0,1]", v)
			}
			if want := (src[p] - lo) / (hi - lo); v != want {
				t.Fatalf("plane %d pixel %d = %v, want band %d's %v", plane, p, v, band, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a [C,H] input")
		}
	}()
	PseudoRGB(img.Reshape(32, 16))
}

func TestBiogeochemStructure(t *testing.T) {
	g := NewBiogeochem(BiogeochemConfig{Variables: 5, Layers: 4, GridH: 4, GridW: 4, Steps: 24, Seed: 1})
	if g.Channels() != 20 {
		t.Fatalf("channels = %d, want 20", g.Channels())
	}
	snap := g.Snapshot(3)
	if snap.Shape[0] != 20 || snap.Shape[1] != 4 || snap.Shape[2] != 4 {
		t.Fatalf("snapshot shape = %v", snap.Shape)
	}
	// Deterministic.
	g2 := NewBiogeochem(BiogeochemConfig{Variables: 5, Layers: 4, GridH: 4, GridW: 4, Steps: 24, Seed: 1})
	if tensor.MaxAbsDiff(snap, g2.Snapshot(3)) != 0 {
		t.Fatal("same (seed, step) must reproduce the snapshot")
	}
	// Seasonal cycle: different months differ.
	if tensor.MaxAbsDiff(g.Snapshot(0), g.Snapshot(6)) == 0 {
		t.Fatal("opposite seasons must differ")
	}
	b := g.Batch(22, 4) // wraps past Steps
	if b.Shape[0] != 4 {
		t.Fatalf("batch shape = %v", b.Shape)
	}
}

func TestBiogeochemVerticalCorrelation(t *testing.T) {
	// Adjacent soil layers of the same variable must correlate more than
	// surface vs deep layers — the structure channel aggregation exploits.
	g := NewBiogeochem(BiogeochemConfig{Variables: 3, Layers: 10, GridH: 8, GridW: 8, Steps: 12, Seed: 2})
	snap := g.Snapshot(4)
	hw := 64
	layer := func(v, l int) []float64 {
		ch := v*10 + l
		return snap.Data[ch*hw : (ch+1)*hw]
	}
	for v := 0; v < 3; v++ {
		adj, far := 0.0, 0.0
		top, next, deep := layer(v, 0), layer(v, 1), layer(v, 9)
		for p := 0; p < hw; p++ {
			adj += math.Abs(top[p] - next[p])
			far += math.Abs(top[p] - deep[p])
		}
		if adj >= far {
			t.Fatalf("variable %d: adjacent-layer diff %v >= deep diff %v", v, adj, far)
		}
	}
}

// masked counts the ones of a 0/1 mask.
func masked(m *tensor.Tensor) int {
	n := 0
	for _, v := range m.Data {
		if v == 1 {
			n++
		}
	}
	return n
}
