package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BiogeochemConfig sizes the synthetic land-model output, standing in for
// the E3SM biogeochemistry simulations the paper's introduction cites as a
// 500+-channel workload ("In E3SM biogeochemistry simulations, outputs can
// reach over 500 channels").
type BiogeochemConfig struct {
	// Variables is the number of biogeochemical state variables (carbon and
	// nitrogen pools, decomposition rates, ...).
	Variables int
	// Layers is the number of soil layers each variable is resolved on; the
	// channel count is Variables * Layers.
	Layers int
	// GridH, GridW is the regional grid.
	GridH, GridW int
	// Steps is the number of available time steps (monthly cadence).
	Steps int
	Seed  int64
}

// DefaultBiogeochem mirrors the paper's 500-channel figure: 25 variables
// on 20 soil layers.
func DefaultBiogeochem(gridH, gridW int) BiogeochemConfig {
	return BiogeochemConfig{
		Variables: 25, Layers: 20,
		GridH: gridH, GridW: gridW,
		Steps: 240, Seed: 3350,
	}
}

// Biogeochem synthesizes coupled soil-column fields: every variable shares
// two latent drivers (temperature- and moisture-like smooth fields with a
// seasonal cycle), responds to them with its own sensitivity, and attenuates
// with soil depth at its own e-folding scale. The result is a channel set
// with strong vertical (adjacent-layer) and cross-variable correlation —
// the structure a channel-aggregating foundation model exploits.
type Biogeochem struct {
	Cfg BiogeochemConfig

	// Per-variable response parameters.
	tempSens, moistSens, depthScale, base []float64
	// Latent driver spatial modes.
	tempField, moistField *tensor.Tensor
}

// NewBiogeochem builds the generator deterministically from cfg.Seed.
func NewBiogeochem(cfg BiogeochemConfig) *Biogeochem {
	if cfg.Variables < 1 || cfg.Layers < 1 || cfg.GridH < 1 || cfg.GridW < 1 || cfg.Steps < 1 {
		panic(fmt.Sprintf("data: invalid biogeochem config %+v", cfg))
	}
	g := &Biogeochem{Cfg: cfg}
	rng := tensor.NewRNG(cfg.Seed)
	for v := 0; v < cfg.Variables; v++ {
		g.tempSens = append(g.tempSens, rng.NormFloat64())
		g.moistSens = append(g.moistSens, rng.NormFloat64())
		g.depthScale = append(g.depthScale, 0.15+0.85*rng.Float64())
		g.base = append(g.base, 0.5+rng.Float64())
	}
	smooth := func() *tensor.Tensor {
		f := tensor.New(cfg.GridH, cfg.GridW)
		bumps := 3 + rng.Intn(3)
		for i := 0; i < bumps; i++ {
			cy, cx := rng.Float64()*float64(cfg.GridH), rng.Float64()*float64(cfg.GridW)
			sy := (0.2 + 0.4*rng.Float64()) * float64(cfg.GridH)
			sx := (0.2 + 0.4*rng.Float64()) * float64(cfg.GridW)
			amp := rng.NormFloat64()
			for y := 0; y < cfg.GridH; y++ {
				for x := 0; x < cfg.GridW; x++ {
					dy := (float64(y) - cy) / sy
					dx := (float64(x) - cx) / sx
					f.Data[y*cfg.GridW+x] += amp * math.Exp(-0.5*(dy*dy+dx*dx))
				}
			}
		}
		return f
	}
	g.tempField = smooth()
	g.moistField = smooth()
	return g
}

// Channels returns Variables * Layers.
func (g *Biogeochem) Channels() int { return g.Cfg.Variables * g.Cfg.Layers }

// Snapshot materializes all channels at time step: [Channels, H, W].
// Deterministic in (Seed, step).
func (g *Biogeochem) Snapshot(step int) *tensor.Tensor {
	cfg := g.Cfg
	season := math.Sin(2 * math.Pi * float64(step) / 12)
	season2 := math.Cos(2 * math.Pi * float64(step) / 12)
	rng := tensor.NewRNG(cfg.Seed ^ int64(step+1)*0x51ED2701)
	hw := cfg.GridH * cfg.GridW
	out := tensor.New(g.Channels(), cfg.GridH, cfg.GridW)
	for v := 0; v < cfg.Variables; v++ {
		for l := 0; l < cfg.Layers; l++ {
			ch := v*cfg.Layers + l
			// Seasonal forcing attenuates and lags with depth.
			depth := float64(l) / float64(cfg.Layers)
			atten := math.Exp(-depth / g.depthScale[v])
			lag := season*math.Cos(depth*2) + season2*math.Sin(depth*2)
			noise := 0.01 * rng.NormFloat64()
			for p := 0; p < hw; p++ {
				drivers := g.tempSens[v]*g.tempField.Data[p] + g.moistSens[v]*g.moistField.Data[p]
				out.Data[ch*hw+p] = g.base[v] + atten*(drivers+0.5*lag) + noise
			}
		}
	}
	return out
}

// Batch stacks snapshots [from, from+batch) into [batch, Channels, H, W].
func (g *Biogeochem) Batch(from, batch int) *tensor.Tensor {
	snaps := make([]*tensor.Tensor, batch)
	for i := 0; i < batch; i++ {
		snaps[i] = g.Snapshot((from + i) % g.Cfg.Steps)
	}
	return tensor.Stack(snaps...)
}
