// Package train trains the paper's models: serial baselines on one
// (simulated) GPU and D-CHAG runs over a mesh of simulated ranks, with
// identical hyperparameters, shared masks and batches, and loss/RMSE
// tracking. It is the machinery behind the Fig. 11 (hyperspectral MAE) and
// Fig. 12 (weather forecasting) reproductions.
//
// The paper composes D-CHAG with TP and DP as axes of one training step
// (Sec. 3.4), and the package writes that step once: worker.train (step.go)
// owns the forward and backward pass, gradient sync, clipping, the optimizer
// step, loss recording and the checkpoint commit for one rank.
// The exported entry points only build workers — Serial is the 1×1×1 case
// with no communicators, Hybrid a tp×1×dp mesh, Distributed that mesh at
// dp = 1, RunGeneration a step sub-range of it with fault and snapshot
// hooks — so their trajectories agree by construction, not by convention.
package train

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options configures a training run.
type Options struct {
	// Steps is the number of optimizer steps.
	Steps int
	// Batch is the global batch size.
	Batch int
	// LR is the AdamW learning rate; WeightDecay its decoupled decay.
	LR, WeightDecay float64
	// ClipNorm caps the global gradient norm (0 disables).
	ClipNorm float64
	// MaskRatio enables the MAE objective when > 0; otherwise the run is an
	// image-to-image forecast.
	MaskRatio float64
	// Seed drives masking; data order is the caller's responsibility.
	Seed int64
	// CheckpointDir, when set, enables shard-aware checkpointing to that
	// directory (internal/ckpt format): a checkpoint is written after the
	// final step, and additionally every CheckpointEvery steps.
	CheckpointDir string
	// CheckpointEvery writes a checkpoint every N optimizer steps when
	// positive (in addition to the final-step checkpoint).
	CheckpointEvery int
	// CheckpointKeep retains the newest K complete checkpoints when >= 2:
	// each save commits into a step-numbered subdirectory of CheckpointDir
	// (internal/ckpt retention layout) and older committed checkpoints
	// beyond K are pruned after the commit. 0 and 1 keep the historical
	// single-slot behavior — CheckpointDir itself is overwritten in place.
	// Resume finds the newest complete checkpoint under CheckpointDir in
	// either layout, so a crash mid-save resumes from the previous
	// committed one.
	CheckpointKeep int
	// Resume restores parameters, optimizer state, and the step count from
	// CheckpointDir before training, then continues with exact-resume
	// semantics: the mask RNG stream is fast-forwarded to the restored step
	// so the resumed run is step-for-step identical to an uninterrupted one.
	// Exactness requires BatchFn to be a pure function of the step index
	// returning Options.Batch rows (the repository's batch functions are),
	// since the fast-forward replays the mask stream at that batch size.
	Resume bool
	// InitFrom restores parameter values only (no optimizer state, step 0)
	// from the given checkpoint directory — a warm start rather than a
	// resume. Mutually exclusive with Resume.
	InitFrom string
	// Trace, when non-nil, records per-rank step-phase spans (forward,
	// backward, dp-sync, optim, ckpt) into the tracer: row = world rank on
	// a mesh, row 0 for the serial run. Mesh runs additionally install
	// per-axis comm observers so every collective of the run appears as its
	// own span (comm/tp, comm/dp). nil disables tracing at zero cost.
	Trace *obs.Tracer
}

// validate is the one option and shape check every entry point runs before
// it touches a checkpoint or builds a mesh: a tp×1×dp mesh needs both
// extents positive (serial is 1×1) and whole batch shards per replica, and
// the checkpoint options must be consistent.
func (o Options) validate(tp, dp int) error {
	if tp < 1 || dp < 1 {
		return fmt.Errorf("train: invalid mesh shape tp=%d dp=%d", tp, dp)
	}
	if o.Batch%dp != 0 {
		return fmt.Errorf("train: batch %d not divisible by dp %d", o.Batch, dp)
	}
	if o.Resume && o.CheckpointDir == "" {
		return fmt.Errorf("train: Resume requires CheckpointDir")
	}
	if o.Resume && o.InitFrom != "" {
		return fmt.Errorf("train: Resume and InitFrom are mutually exclusive")
	}
	if o.CheckpointEvery > 0 && o.CheckpointDir == "" {
		return fmt.Errorf("train: CheckpointEvery requires CheckpointDir")
	}
	if o.CheckpointKeep < 0 {
		return fmt.Errorf("train: negative CheckpointKeep %d", o.CheckpointKeep)
	}
	if o.CheckpointKeep > 1 && o.CheckpointDir == "" {
		return fmt.Errorf("train: CheckpointKeep requires CheckpointDir")
	}
	return nil
}

// checkpointDue reports whether a checkpoint must be written after
// (0-indexed) step s.
func (o Options) checkpointDue(s int) bool {
	if o.CheckpointDir == "" {
		return false
	}
	return s == o.Steps-1 || (o.CheckpointEvery > 0 && (s+1)%o.CheckpointEvery == 0)
}

// BatchFn materializes the global (input, target) batch for a step. For MAE
// target may equal input; for forecasting it is the future snapshot.
type BatchFn func(step int) (x, y *tensor.Tensor)

// History records per-step training metrics. Loss[i] is the loss of global
// step Start+i; Start is nonzero when the run resumed from a checkpoint.
type History struct {
	Start int
	Loss  []float64
}

// Last returns the final loss.
func (h History) Last() float64 {
	if len(h.Loss) == 0 {
		return 0
	}
	return h.Loss[len(h.Loss)-1]
}

// Serial trains a single-process model, returning the loss history. The
// same mask stream (Options.Seed) is used by Distributed so the two runs are
// comparable step for step, the comparison both Figs. 11 and 12 make. It
// panics on checkpoint I/O errors; callers using the checkpoint options
// should prefer SerialCheckpointed.
func Serial(m *model.FoundationModel, opts Options, batch BatchFn) History {
	hist, err := SerialCheckpointed(m, opts, batch)
	if err != nil {
		panic(fmt.Sprintf("train: %v", err))
	}
	return hist
}

// SerialCheckpointed is Serial with error reporting for the checkpoint
// options: Resume/InitFrom restore state before the first step, and
// CheckpointDir/CheckpointEvery write shard-aware checkpoints during the
// run. On resume the returned history covers only the steps this invocation
// ran (the saved step onward). It is the step engine's 1×1×1 case: one
// worker on the caller's goroutine, no mesh and no communicators.
func SerialCheckpointed(m *model.FoundationModel, opts Options, batch BatchFn) (History, error) {
	var hist History
	if err := opts.validate(1, 1); err != nil {
		return hist, err
	}
	ck, err := openRestore(opts)
	if err != nil {
		return hist, err
	}
	w := worker{m: m, from: ck, end: opts.Steps, row: opts.Trace.Rank(0), hist: &hist}
	err = w.train(opts, batch)
	return hist, err
}

// Distributed trains a D-CHAG model over p simulated ranks and returns rank
// 0's loss history plus the comm group (for traffic inspection). Every rank
// sees the full spatial batch but only its channel shard, exactly the
// paper's D-CHAG data layout; masks are drawn from the same stream as
// Serial. It is Hybrid on the p×1×1 mesh — the size-1 DP gradient sync and
// loss reduce are exact identities — and the group it returns is that
// mesh's one TP group, so its ledger holds the D-CHAG traffic alone.
func Distributed(arch model.Arch, p int, tpViT bool, opts Options, batch BatchFn) (History, *comm.Group, error) {
	hist, mesh, err := Hybrid(arch, p, 1, tpViT, opts, batch)
	if mesh == nil {
		return hist, nil, err
	}
	return hist, mesh.TPComm(0).Group(), err
}

// DistributedClipGradNorm clips gradients to a global L2 norm computed over
// the whole logical model: local parameter shards are summed across the
// group (one scalar AllReduce) and replicated parameters — whose gradients
// are identical on every rank — are counted once. With the same maxNorm this
// reproduces the serial optim.ClipGradNorm trajectory. Returns the pre-clip
// global norm.
//
// dchag:hotpath
func DistributedClipGradNorm(c *comm.Communicator, local, replicated []*nn.Param, maxNorm float64) float64 {
	total := c.AllReduceScalarSum(gradSumSq(local)) + gradSumSq(replicated)
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range local {
			tensor.ScaleInPlace(p.Grad, scale)
		}
		for _, p := range replicated {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}

// gradSumSq sums the squared gradient elements in parameter order.
func gradSumSq(ps []*nn.Param) float64 {
	s := 0.0
	for _, p := range ps {
		for _, g := range p.Grad.Data {
			s += g * g
		}
	}
	return s
}

// EvalForecastRMSE evaluates a forecast model on held-out (x, y) pairs and
// returns the latitude-weighted RMSE per requested channel index (Z500,
// T850, U10 in the paper's Fig. 12). The model must see the channel shard
// matching its stage; pass the full batch for a serial model.
func EvalForecastRMSE(m *model.FoundationModel, xs, ys []*tensor.Tensor, channels []int) map[int]float64 {
	sums := make(map[int]float64, len(channels))
	for i := range xs {
		pred := m.PredictImage(xs[i])
		for _, ch := range channels {
			p := tensor.SliceAxis(pred, 1, ch, ch+1)
			y := tensor.SliceAxis(ys[i], 1, ch, ch+1)
			b, h, w := p.Shape[0], p.Shape[2], p.Shape[3]
			sums[ch] += nn.LatWeightedRMSE(p.Reshape(b, h, w), y.Reshape(b, h, w))
		}
	}
	out := make(map[int]float64, len(channels))
	for _, ch := range channels {
		out[ch] = sums[ch] / float64(len(xs))
	}
	return out
}
