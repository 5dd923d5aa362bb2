// Package perfmodel is the analytic performance layer of the reproduction:
// it accounts, per GPU and per component (tokenization, channel aggregation,
// transformer blocks, head), for parameters, activation memory, floating-
// point work, and communication under every strategy the paper evaluates —
// single GPU, FSDP, TP, TP with distributed tokenization (Sec. 3.1), and
// D-CHAG combined with TP/FSDP/DP (Secs. 3.3-3.4).
//
// It is the substitution for running on Frontier (DESIGN.md): the memory
// and throughput figures (paper Figs. 6-9 and 13-16) are regenerated from
// these formulas on the internal/hw machine model. The calibration constants
// are fitted so that the paper's published feasibility boundaries hold (what
// fits at which TP degree — see the package tests); the experiments then
// compare shapes, not absolute numbers.
package perfmodel

import (
	"fmt"

	"repro/internal/core"
)

// ModelShape is a transformer size point from the paper's evaluation.
type ModelShape struct {
	Name   string
	Embed  int
	Layers int
	Heads  int
}

// ViTParams returns the transformer-block parameter count (12*E^2 per block
// plus norms).
func (s ModelShape) ViTParams() float64 {
	e := float64(s.Embed)
	return float64(s.Layers) * (12*e*e + 4*e)
}

// Shapes catalogs the paper's model sizes. The 7B/15B/26B entries use the
// paper's explicit dimensions (Sec. 6.1); the others are standard ViT
// scalings consistent with the stated parameter counts.
var Shapes = map[string]ModelShape{
	"100M": {Name: "100M", Embed: 768, Layers: 12, Heads: 12},
	"1B":   {Name: "1B", Embed: 2048, Layers: 24, Heads: 16},
	"1.7B": {Name: "1.7B", Embed: 2304, Layers: 28, Heads: 24},
	"3B":   {Name: "3B", Embed: 2816, Layers: 32, Heads: 22},
	"7B":   {Name: "7B", Embed: 4096, Layers: 32, Heads: 32},
	"15B":  {Name: "15B", Embed: 6144, Layers: 32, Heads: 32},
	"26B":  {Name: "26B", Embed: 8192, Layers: 32, Heads: 32},
}

// Workload describes the data side of a run.
type Workload struct {
	Channels          int
	ImgH, ImgW, Patch int
	// MicroBatch is the per-replica batch size.
	MicroBatch int
}

// Tokens returns the spatial token count.
func (w Workload) Tokens() int { return (w.ImgH / w.Patch) * (w.ImgW / w.Patch) }

// ReferenceWorkload is the calibrated workload behind the memory studies:
// 512x512 scientific images, patch 16 (1024 tokens), micro-batch 4.
func ReferenceWorkload(channels int) Workload {
	return Workload{Channels: channels, ImgH: 512, ImgW: 512, Patch: 16, MicroBatch: 4}
}

// Method selects the channel-stage strategy.
type Method int

// Channel-stage strategies from the paper.
const (
	// MethodBaseline is plain (optionally TP-sharded) tokenization of all
	// channels on every rank plus one cross-attention aggregation layer —
	// the paper's TP baseline (Sec. 4.3).
	MethodBaseline Method = iota
	// MethodDistTok is distributed tokenization alone (Sec. 3.1): channel
	// shards are tokenized locally and AllGathered in full.
	MethodDistTok
	// MethodDCHAG is the full D-CHAG stage (Sec. 3.3).
	MethodDCHAG
)

// String names the method as in the paper.
func (m Method) String() string {
	switch m {
	case MethodBaseline:
		return "TP-baseline"
	case MethodDistTok:
		return "Dist-Tok"
	case MethodDCHAG:
		return "D-CHAG"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Strategy is a full parallel configuration: the channel-stage method plus
// the TP/FSDP/DP factorization of Sec. 3.4 (TP groups are also the D-CHAG
// groups).
type Strategy struct {
	Method Method
	TP     int
	FSDP   int
	DP     int
	// Tree and Kind configure the D-CHAG partial-channel aggregation module
	// (paper Fig. 9): Tree0/2/4/8..., -C or -L.
	Tree int
	Kind core.LayerKind
}

// World returns the GPU count of the configuration.
func (s Strategy) World() int { return s.tp() * s.fsdp() * s.dp() }

func (s Strategy) tp() int {
	if s.TP < 1 {
		return 1
	}
	return s.TP
}
func (s Strategy) fsdp() int {
	if s.FSDP < 1 {
		return 1
	}
	return s.FSDP
}
func (s Strategy) dp() int {
	if s.DP < 1 {
		return 1
	}
	return s.DP
}

// Label renders the strategy the way the paper labels configurations, e.g.
// "D-CHAG-L-Tree0 TP=2 FSDP=4 DP=8".
func (s Strategy) Label() string {
	name := s.Method.String()
	if s.Method == MethodDCHAG {
		name = fmt.Sprintf("D-CHAG-%s-Tree%d", s.Kind, s.Tree)
	}
	out := fmt.Sprintf("%s TP=%d", name, s.tp())
	if s.fsdp() > 1 {
		out += fmt.Sprintf(" FSDP=%d", s.fsdp())
	}
	if s.dp() > 1 {
		out += fmt.Sprintf(" DP=%d", s.dp())
	}
	return out
}

// Calibration holds the fitted constants of the memory/compute model. See
// the package comment; the defaults are validated against the paper's
// feasibility boundaries in the tests.
type Calibration struct {
	// DtypeBytes is the training dtype width (bf16).
	DtypeBytes float64
	// StateBytesPerParam covers weight + gradient + Adam moments.
	StateBytesPerParam float64
	// CTokens counts live copies of the channel-token tensor [B,C,T,E]
	// (tokenizer output, channel-embedding output).
	CTokens float64
	// CQKV counts live q/k/v/context projections inside attention-based
	// aggregation, sharded by TP over the embedding dimension.
	CQKV float64
	// CScore counts stored attention-map bytes per channel pair per local
	// attention head (softmax input + output), the quadratic-in-channels
	// term of Sec. 3.2. TP shards heads, not the channel dimension, so the
	// per-rank term scales with heads/TP.
	CScore float64
	// CTokWork covers tokenizer workspace (im2col patches).
	CTokWork float64
	// VitActBytesPerToken is stored transformer activation bytes per token
	// per layer (flash-attention regime, no T^2 term).
	VitActBytesPerToken float64
	// VitReplFrac is the fraction of ViT activations replicated across TP
	// ranks (norms, residuals) rather than sharded.
	VitReplFrac float64
	// AggProjFactor is the number of E^2-cost projections applied per
	// channel token inside attention-based aggregation. Fitted so the
	// channel stage holds the paper's Fig. 6 "majority of compute" share
	// (50-70%) rather than dwarfing the transformer.
	AggProjFactor float64
	// Overlap holds the per-axis comm/compute overlap factors of the
	// step-time composition (see overlap.go). The zero value disables
	// overlap: step time is then the serial compute + total-comm
	// composition, bit-for-bit.
	Overlap Overlap
}

// DefaultCalibration returns the fitted constants.
func DefaultCalibration() Calibration {
	return Calibration{
		DtypeBytes:          2,
		StateBytesPerParam:  12, // bf16 weight+grad, fp32 Adam moments
		CTokens:             1.2,
		CQKV:                3,
		CScore:              0.4,
		CTokWork:            2,
		VitActBytesPerToken: 24,
		VitReplFrac:         0.3,
		AggProjFactor:       1,
		Overlap:             DefaultOverlap(),
	}
}

// localChannels returns ceil(c/t), the per-rank channel shard width.
func localChannels(c, t int) int { return (c + t - 1) / t }
