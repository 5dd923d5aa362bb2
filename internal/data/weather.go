package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Atmospheric variable names used by the synthetic ERA5 substitute; the
// paper's five pressure-level variables plus three surface variables
// (Sec. 5.2).
var (
	// LevelVars are defined on PressureLevels.
	LevelVars = []string{"z", "t", "u", "v", "q"}
	// SurfaceVars are single-level.
	SurfaceVars = []string{"t2m", "u10", "v10"}
	// PressureLevels in hPa; "more than 10 pressure levels" per the paper.
	// 5 vars x 15 levels + 3 surface = 78 channels; two static fields
	// (orography, land-sea mask) complete the paper's 80.
	PressureLevels = []int{50, 100, 150, 200, 250, 300, 400, 500, 600, 700, 775, 850, 925, 975, 1000}
	// StaticVars complete the channel set.
	StaticVars = []string{"orography", "lsm"}
)

// WeatherConfig sizes the synthetic atmosphere.
type WeatherConfig struct {
	// NativeH, NativeW is the generation grid; fields are generated here and
	// (optionally) regridded to the training resolution, mirroring the
	// paper's 0.25 deg -> 5.625 deg xESMF pipeline.
	NativeH, NativeW int
	// Steps is the number of time steps available.
	Steps int
	// DtHours is the model time step in hours.
	DtHours float64
	Seed    int64
}

// Weather synthesizes a deterministic, temporally-evolving global
// atmosphere: each channel is a superposition of traveling planetary waves
// (zonal wavenumbers with level-dependent amplitude and phase speed) over a
// latitude-dependent base state. Channels are cross-correlated through
// shared wave phases, giving a forecast model real structure to learn.
type Weather struct {
	Cfg      WeatherConfig
	channels []channelSpec
}

type channelSpec struct {
	name   string
	base   float64 // mean value
	latAmp float64 // latitude gradient amplitude
	waves  []waveSpec
	static bool
}

type waveSpec struct {
	kx, ky int     // zonal / meridional wavenumber
	amp    float64 // amplitude
	omega  float64 // angular frequency per hour
	phase  float64
}

// NewWeather builds the generator; channel structure derives from cfg.Seed.
func NewWeather(cfg WeatherConfig) *Weather {
	if cfg.NativeH < 4 || cfg.NativeW < 4 || cfg.Steps < 2 {
		panic(fmt.Sprintf("data: invalid weather config %+v", cfg))
	}
	w := &Weather{Cfg: cfg}
	rng := tensor.NewRNG(cfg.Seed)
	addChannel := func(name string, base, latAmp float64, static bool) {
		spec := channelSpec{name: name, base: base, latAmp: latAmp, static: static}
		nw := 3 + rng.Intn(3)
		for i := 0; i < nw; i++ {
			spec.waves = append(spec.waves, waveSpec{
				kx:    1 + rng.Intn(6),
				ky:    1 + rng.Intn(3),
				amp:   (0.3 + rng.Float64()) * latAmp * 0.5,
				omega: (0.5 + rng.Float64()) * 2 * math.Pi / 240, // ~10-day periods
				phase: rng.Float64() * 2 * math.Pi,
			})
		}
		w.channels = append(w.channels, spec)
	}
	for _, v := range LevelVars {
		for _, lv := range PressureLevels {
			// Base magnitude loosely shaped by variable and level.
			base := 1.0
			latAmp := 1.0
			switch v {
			case "z":
				base = float64(11000-10*lv) / 1000
				latAmp = 1.5
			case "t":
				base = (210 + 0.09*float64(lv)) / 100
				latAmp = 0.4
			case "u", "v":
				base = 0.2
				latAmp = 0.8
			case "q":
				base = 0.05 * float64(lv) / 1000
				latAmp = 0.1
			}
			addChannel(fmt.Sprintf("%s%d", v, lv), base, latAmp, false)
		}
	}
	for _, v := range SurfaceVars {
		addChannel(v, 1.2, 0.6, false)
	}
	for _, v := range StaticVars {
		addChannel(v, 0.5, 0.8, true)
	}
	return w
}

// Channels returns the channel count (80 with the default structure).
func (w *Weather) Channels() int { return len(w.channels) }

// ChannelIndex returns the index of a named channel (e.g. "z500", "t850",
// "u10") or -1.
func (w *Weather) ChannelIndex(name string) int {
	for i, c := range w.channels {
		if c.name == name {
			return i
		}
	}
	return -1
}

// Field materializes channel ch at time step on the native grid [H, W].
func (w *Weather) Field(ch, step int) *tensor.Tensor {
	if ch < 0 || ch >= len(w.channels) {
		panic(fmt.Sprintf("data: weather channel %d out of range", ch))
	}
	spec := w.channels[ch]
	h, wd := w.Cfg.NativeH, w.Cfg.NativeW
	t := float64(step) * w.Cfg.DtHours
	if spec.static {
		t = 0
	}
	out := tensor.New(h, wd)
	merid := make([]float64, len(spec.waves)) // each wave's meridional factor on row y
	for y := 0; y < h; y++ {
		lat := (0.5 - (float64(y)+0.5)/float64(h)) * math.Pi // +pi/2..-pi/2
		base := spec.base + spec.latAmp*math.Sin(lat)
		for k, wave := range spec.waves {
			merid[k] = math.Sin(float64(wave.ky) * (lat + math.Pi/2))
		}
		for x := 0; x < wd; x++ {
			lon := 2 * math.Pi * float64(x) / float64(wd)
			v := base
			for k, wave := range spec.waves {
				v += wave.amp * math.Cos(float64(wave.kx)*lon-wave.omega*t+wave.phase) * merid[k]
			}
			out.Data[y*wd+x] = v
		}
	}
	return out
}

// Snapshot materializes all channels at a time step: [Channels, H, W] on the
// native grid.
func (w *Weather) Snapshot(step int) *tensor.Tensor {
	fields := make([]*tensor.Tensor, len(w.channels))
	for c := range w.channels {
		fields[c] = w.Field(c, step)
	}
	return tensor.Stack(fields...)
}

// SnapshotAt materializes all channels regridded to [Channels, h, w] via the
// bilinear regridder (the xESMF substitute).
func (w *Weather) SnapshotAt(step, h, wd int) *tensor.Tensor {
	fields := make([]*tensor.Tensor, len(w.channels))
	for c := range w.channels {
		fields[c] = RegridBilinear(w.Field(c, step), h, wd)
	}
	return tensor.Stack(fields...)
}

// PairBatch stacks forecast examples — the snapshot at a step and the one
// lead steps later, regridded to h x w — with inputs at steps
// from..from+batch-1: x, y of shape [batch, Channels, h, w]. Each distinct
// step is materialized once (with lead 1, sample i's target is sample
// i+1's input).
func (w *Weather) PairBatch(from, batch, lead, h, wd int) (x, y *tensor.Tensor) {
	snaps := make(map[int]*tensor.Tensor, batch+lead)
	at := func(step int) *tensor.Tensor {
		s, ok := snaps[step]
		if !ok {
			s = w.SnapshotAt(step, h, wd)
			snaps[step] = s
		}
		return s
	}
	xs := make([]*tensor.Tensor, batch)
	ys := make([]*tensor.Tensor, batch)
	for i := 0; i < batch; i++ {
		step := (from + i) % (w.Cfg.Steps - lead)
		xs[i], ys[i] = at(step), at(step+lead)
	}
	return tensor.Stack(xs...), tensor.Stack(ys...)
}
