// Package data provides the synthetic datasets and preprocessing the
// repository's experiments run on, substituting for the paper's proprietary
// or external data (see DESIGN.md): a VNIR hyperspectral plant generator
// standing in for the ORNL APPL dataset (494 images x 500 spectral bands,
// Sec. 5.1), an ERA5-like synthetic atmosphere (80 channels on a lat-lon
// grid, Sec. 5.2), a bilinear regridder standing in for xESMF, and MAE
// masking utilities.
//
// Everything is deterministic in (seed, index): any rank or process can
// materialize any sample independently, which is what lets the distributed
// training tests compare against serial baselines bit-for-bit.
package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// HyperspectralConfig sizes the synthetic plant dataset. Defaults mirror the
// paper's APPL subset: 494 images, 500 VNIR bands (400-900 nm).
type HyperspectralConfig struct {
	Images   int
	Channels int
	ImgH     int
	ImgW     int
	// Endmembers is the number of spectral signatures mixed per scene
	// (leaf, stem, soil, background, ...).
	Endmembers int
	// Noise is the standard deviation of additive sensor noise.
	Noise float64
	Seed  int64
}

// Hyperspectral generates synthetic VNIR hyperspectral plant images as
// linear mixtures of smooth spectral signatures over spatially correlated
// abundance maps — the structure a masked autoencoder must learn to exploit
// (strong spectral correlation between adjacent bands, spatial coherence of
// plant matter).
type Hyperspectral struct {
	Cfg HyperspectralConfig
	// signatures[k][c]: reflectance of endmember k in band c; smooth in c as
	// a mixture of Gaussian absorption/reflection features.
	signatures [][]float64
}

// NewHyperspectral builds the generator (signatures are derived from
// cfg.Seed; images are derived from cfg.Seed and the image index).
func NewHyperspectral(cfg HyperspectralConfig) *Hyperspectral {
	if cfg.Images < 1 || cfg.Channels < 1 || cfg.Endmembers < 1 {
		panic(fmt.Sprintf("data: invalid hyperspectral config %+v", cfg))
	}
	g := &Hyperspectral{Cfg: cfg}
	rng := tensor.NewRNG(cfg.Seed)
	for k := 0; k < cfg.Endmembers; k++ {
		sig := make([]float64, cfg.Channels)
		base := 0.2 + 0.6*rng.Float64()
		nFeatures := 3 + rng.Intn(4)
		type feat struct{ center, width, amp float64 }
		feats := make([]feat, nFeatures)
		for f := range feats {
			feats[f] = feat{
				center: rng.Float64() * float64(cfg.Channels),
				width:  float64(cfg.Channels) * (0.03 + 0.12*rng.Float64()),
				amp:    (rng.Float64() - 0.4) * 0.8,
			}
		}
		for c := 0; c < cfg.Channels; c++ {
			v := base
			for _, f := range feats {
				d := (float64(c) - f.center) / f.width
				v += f.amp * math.Exp(-0.5*d*d)
			}
			sig[c] = v
		}
		g.signatures = append(g.signatures, sig)
	}
	return g
}

// Image materializes image idx as [Channels, H, W]. Deterministic in
// (Seed, idx).
func (g *Hyperspectral) Image(idx int) *tensor.Tensor {
	if idx < 0 || idx >= g.Cfg.Images {
		panic(fmt.Sprintf("data: hyperspectral image %d out of range [0,%d)", idx, g.Cfg.Images))
	}
	cfg := g.Cfg
	rng := tensor.NewRNG(cfg.Seed ^ int64(idx+1)*0x9E3779B9)
	// Abundance maps: per endmember, a sum of random spatial Gaussian bumps
	// (plant organs), softmax-normalized across endmembers per pixel.
	h, w := cfg.ImgH, cfg.ImgW
	ab := make([][]float64, cfg.Endmembers)
	for k := range ab {
		ab[k] = make([]float64, h*w)
		bumps := 2 + rng.Intn(3)
		for bi := 0; bi < bumps; bi++ {
			cy, cx := rng.Float64()*float64(h), rng.Float64()*float64(w)
			sy := (0.1 + 0.3*rng.Float64()) * float64(h)
			sx := (0.1 + 0.3*rng.Float64()) * float64(w)
			amp := 0.5 + rng.Float64()
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dy := (float64(y) - cy) / sy
					dx := (float64(x) - cx) / sx
					ab[k][y*w+x] += amp * math.Exp(-0.5*(dy*dy+dx*dx))
				}
			}
		}
	}
	// Normalize abundances to a convex combination per pixel.
	for p := 0; p < h*w; p++ {
		sum := 0.0
		for k := range ab {
			sum += ab[k][p]
		}
		if sum == 0 {
			sum = 1
		}
		for k := range ab {
			ab[k][p] /= sum
		}
	}
	out := tensor.New(cfg.Channels, h, w)
	for c := 0; c < cfg.Channels; c++ {
		for p := 0; p < h*w; p++ {
			v := 0.0
			for k := range ab {
				v += ab[k][p] * g.signatures[k][c]
			}
			out.Data[c*h*w+p] = v + cfg.Noise*rng.NormFloat64()
		}
	}
	return out
}

// Batch stacks images [from, from+batch) (wrapping around the dataset) into
// [batch, Channels, H, W].
func (g *Hyperspectral) Batch(from, batch int) *tensor.Tensor {
	imgs := make([]*tensor.Tensor, batch)
	for i := 0; i < batch; i++ {
		imgs[i] = g.Image((from + i) % g.Cfg.Images)
	}
	return tensor.Stack(imgs...)
}

// PseudoRGB renders a hyperspectral image [C, H, W] as an RGB triplet
// [3, H, W] by sampling the bands at ~60%, ~35% and ~10% of the spectrum
// (the red/green/blue VNIR positions the paper's Fig. 11 visualization
// uses) and min-max normalizing each to [0, 1].
func PseudoRGB(img *tensor.Tensor) *tensor.Tensor {
	if len(img.Shape) != 3 {
		panic(fmt.Sprintf("data: PseudoRGB wants [C,H,W], got %v", img.Shape))
	}
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	bands := []int{int(0.6 * float64(c-1)), int(0.35 * float64(c-1)), int(0.1 * float64(c-1))}
	out := tensor.New(3, h, w)
	for i, band := range bands {
		src := img.Data[band*h*w : (band+1)*h*w]
		lo, hi := src[0], src[0]
		for _, v := range src {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		scale := hi - lo
		if scale == 0 {
			scale = 1
		}
		dst := out.Data[i*h*w : (i+1)*h*w]
		for p, v := range src {
			dst[p] = (v - lo) / scale
		}
	}
	return out
}
