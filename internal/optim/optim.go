// Package optim implements the optimizer used to train the repository's
// models: AdamW with decoupled weight decay, and global gradient-norm
// clipping.
//
// Optimizers key their per-parameter state (moments) by the parameter's
// name, so state survives checkpointing: ExportState describes the moments
// and step count as a name-keyed State (views of the live buffers, which a
// checkpoint writes without copying) and ImportState restores them,
// preserving the exact optimization trajectory across save/resume —
// including across reshardings, since a moment buffer shares its
// parameter's shard layout. Parameter names must therefore be unique
// within one optimizer instance. All updates are deterministic.
package optim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Moment holds one parameter's optimizer buffers keyed by buffer name
// ("m"/"v" for AdamW). Every buffer has the same length as the parameter's
// data and shares its shard layout, which is what lets checkpoints reshard
// optimizer state alongside the weights.
type Moment map[string][]float64

// State is a topology-agnostic snapshot of an optimizer: the algorithm, the
// update count, and every parameter's moment buffers keyed by parameter
// name. It is the optimizer half of the checkpoint state tree.
type State struct {
	// Algo identifies the optimizer family ("adamw").
	Algo string
	// Step is the number of updates applied (drives AdamW bias correction).
	Step int
	// Moments maps parameter name to that parameter's buffers.
	Moments map[string]Moment
}

// Stateful is an optimizer whose full state can be exported and restored,
// the contract checkpointing relies on.
type Stateful interface {
	// ExportState returns the optimizer's state as views: each moment
	// buffer is the optimizer's live slice, valid until the next update or
	// ImportState. A caller that keeps it longer copies it.
	ExportState() State
	// ImportState restores a previously exported state, deep-copying every
	// buffer. Every moment buffer must match a current parameter's name and
	// length; all mismatches are reported in one joined error and nothing is
	// restored on error.
	ImportState(State) error
}

// uniqueNames panics when two parameters share a name: name-keyed state
// would silently alias them.
func uniqueNames(params []*nn.Param) {
	seen := make(map[string]struct{}, len(params))
	for _, p := range params {
		if _, dup := seen[p.Name]; dup {
			panic(fmt.Sprintf("optim: duplicate parameter name %q", p.Name))
		}
		seen[p.Name] = struct{}{}
	}
}

// importMoments validates that state provides exactly one buffer of the
// right length per expected key for every parameter in have (a name ->
// length map), reporting all mismatches at once. On success it returns the
// validated buffers (deep-copied) keyed by parameter name.
func importMoments(algo string, state State, params []*nn.Param, keys []string) (map[string]Moment, error) {
	var errs []error
	if state.Algo != algo {
		errs = append(errs, fmt.Errorf("optim: state algo %q does not match optimizer %q", state.Algo, algo))
	}
	known := make(map[string]struct{}, len(params))
	out := make(map[string]Moment, len(params))
	for _, p := range params {
		known[p.Name] = struct{}{}
		m, ok := state.Moments[p.Name]
		if !ok {
			errs = append(errs, fmt.Errorf("optim: state missing moments for parameter %q", p.Name))
			continue
		}
		cp := make(Moment, len(keys))
		for _, k := range keys {
			buf, ok := m[k]
			if !ok {
				errs = append(errs, fmt.Errorf("optim: state for %q missing buffer %q", p.Name, k))
				continue
			}
			if len(buf) != p.Numel() {
				errs = append(errs, fmt.Errorf("optim: state buffer %q/%q has %d values, parameter has %d",
					p.Name, k, len(buf), p.Numel()))
				continue
			}
			cp[k] = append([]float64(nil), buf...)
		}
		if len(cp) == len(keys) {
			out[p.Name] = cp
		}
	}
	for name := range state.Moments {
		if _, ok := known[name]; !ok {
			errs = append(errs, fmt.Errorf("optim: state has moments for unknown parameter %q", name))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter), the
// optimizer used for the paper's training runs.
type AdamW struct {
	Params      []*nn.Param
	lr          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    map[string][]float64
	v    map[string][]float64
}

// NewAdamW constructs an AdamW optimizer with the standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdamW(params []*nn.Param, lr, weightDecay float64) *AdamW {
	uniqueNames(params)
	a := &AdamW{
		Params: params, lr: lr,
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		WeightDecay: weightDecay,
		m:           make(map[string][]float64, len(params)),
		v:           make(map[string][]float64, len(params)),
	}
	for _, p := range params {
		a.m[p.Name] = make([]float64, p.Numel())
		a.v[p.Name] = make([]float64, p.Numel())
	}
	return a
}

// Step applies one AdamW update with bias correction, one tensor.AdamW pass
// per parameter.
func (a *AdamW) Step() {
	a.step++
	c := tensor.AdamWCoeffs{
		LR: a.lr, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, WeightDecay: a.WeightDecay,
		C1: 1 - math.Pow(a.Beta1, float64(a.step)),
		C2: 1 - math.Pow(a.Beta2, float64(a.step)),
	}
	for _, p := range a.Params {
		tensor.AdamW(p.W.Data, a.m[p.Name], a.v[p.Name], p.Grad.Data, c)
	}
}

// ExportState returns the first and second moments, as views of the live
// buffers, and the step count, keyed by parameter name.
func (a *AdamW) ExportState() State {
	st := State{Algo: "adamw", Step: a.step, Moments: make(map[string]Moment, len(a.m))}
	for name, m := range a.m {
		st.Moments[name] = Moment{"m": m, "v": a.v[name]}
	}
	return st
}

// ImportState restores previously exported moments and the step count, so a
// resumed run continues the exact Adam trajectory (bias correction
// included).
func (a *AdamW) ImportState(st State) error {
	moments, err := importMoments("adamw", st, a.Params, []string{"m", "v"})
	if err != nil {
		return err
	}
	if st.Step < 0 {
		return fmt.Errorf("optim: negative step count %d", st.Step)
	}
	a.step = st.Step
	for name, m := range moments {
		a.m[name] = m["m"]
		a.v[name] = m["v"]
	}
	return nil
}

// ClipGradNorm scales all gradients so their global L2 norm does not exceed
// maxNorm, returning the pre-clip norm.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for j := range p.Grad.Data {
				p.Grad.Data[j] *= scale
			}
		}
	}
	return norm
}
