package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// PosEmbed adds a learned positional embedding [T,E] to token sequences
// [B,T,E]. It encodes the spatial location of each patch in the original
// image (the "positional token" of the paper's Fig. 1).
type PosEmbed struct {
	Tokens, Embed int
	Table         *Param // [T, E]

	b int

	out  *tensor.Tensor // Forward output scratch
	iout *tensor.Tensor // Infer output scratch
}

// NewPosEmbed constructs a learned positional embedding initialized with
// small normal noise.
func NewPosEmbed(name string, tokens, embed int, seed int64) *PosEmbed {
	rng := tensor.NewRNG(seed)
	return &PosEmbed{
		Tokens: tokens,
		Embed:  embed,
		Table:  NewParam(name+".pos", tensor.RandnScaled(rng, 0.02, tokens, embed)),
	}
}

// Forward adds the table to every batch element of x [B,T,E].
func (p *PosEmbed) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != p.Tokens || x.Shape[2] != p.Embed {
		panic(fmt.Sprintf("nn: PosEmbed.Forward want [B,%d,%d], got %v", p.Tokens, p.Embed, x.Shape))
	}
	p.b = x.Shape[0]
	p.out = tensor.EnsureShape(p.out, x.Shape...)
	return p.add(p.out, x)
}

// Infer adds the table without recording the batch extent a pending
// Backward depends on.
func (p *PosEmbed) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != p.Tokens || x.Shape[2] != p.Embed {
		panic(fmt.Sprintf("nn: PosEmbed.Infer want [B,%d,%d], got %v", p.Tokens, p.Embed, x.Shape))
	}
	p.iout = tensor.EnsureShape(p.iout, x.Shape...)
	return p.add(p.iout, x)
}

// add writes x plus the broadcast table into out.
//
// dchag:hotpath — per-step embedding add; out is layer-owned scratch.
func (p *PosEmbed) add(out, x *tensor.Tensor) *tensor.Tensor {
	copy(out.Data, x.Data)
	n := p.Tokens * p.Embed
	for bi := 0; bi < x.Shape[0]; bi++ {
		dst := out.Data[bi*n : (bi+1)*n]
		for i, v := range p.Table.W.Data {
			dst[i] += v
		}
	}
	return out
}

// Backward accumulates the table gradient (summed over batch) and passes the
// gradient through unchanged.
func (p *PosEmbed) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := p.Tokens * p.Embed
	for bi := 0; bi < p.b; bi++ {
		src := grad.Data[bi*n : (bi+1)*n]
		for i, v := range src {
			p.Table.Grad.Data[i] += v
		}
	}
	return grad
}

// Params returns the embedding table.
func (p *PosEmbed) Params() []*Param { return []*Param{p.Table} }

// ChannelEmbed is the learned per-channel ID embedding [C,E] added to channel
// tokens, broadcast over batch and spatial tokens: the "channel ID token" of
// the paper's Fig. 1. Like PatchEmbed it may own only a shard [ChLo,ChHi) of
// the global channel range with globally-seeded rows. It has no pass of its
// own: a stage's first level applies it with the tokenizer's bias, adding
// row c to each of channel c's tokens as it forms them (PatchEmbed.InferAccum,
// AccumPatches) or folding it into the projections (core's fold.go), and
// forms its gradient there too.
type ChannelEmbed struct {
	ChLo, ChHi int
	Embed      int
	Table      *Param // [localC, E]
}

// NewChannelEmbedShard constructs an embedding owning global channels
// [chLo, chHi); row c is drawn from SubSeed(seed, chLo+c).
func NewChannelEmbedShard(name string, chLo, chHi, embed int, seed int64) *ChannelEmbed {
	localC := chHi - chLo
	if localC <= 0 {
		panic(fmt.Sprintf("nn: invalid channel shard [%d,%d)", chLo, chHi))
	}
	tab := tensor.New(localC, embed)
	for c := 0; c < localC; c++ {
		rng := tensor.NewRNG(SubSeed(seed, chLo+c))
		row := tensor.RandnScaled(rng, 0.02, embed)
		copy(tab.Data[c*embed:(c+1)*embed], row.Data)
	}
	return &ChannelEmbed{
		ChLo: chLo, ChHi: chHi, Embed: embed,
		Table: NewParam(name+".chan", tab),
	}
}

// row returns local channel ci's ID row.
func (c *ChannelEmbed) row(ci int) []float64 { return c.Table.W.Data[ci*c.Embed : (ci+1)*c.Embed] }

// Params returns the embedding table.
func (c *ChannelEmbed) Params() []*Param { return []*Param{c.Table} }

// MetaToken prepends M learned metadata tokens to a sequence, modeling the
// paper's metadata token (time / geolocation context in weather FMs).
type MetaToken struct {
	Count, Embed int
	Table        *Param // [M, E]

	b, t int

	out  *tensor.Tensor // Forward output scratch
	iout *tensor.Tensor // Infer output scratch
	dx   *tensor.Tensor // Backward scratch
}

// NewMetaToken constructs M learned tokens.
func NewMetaToken(name string, count, embed int, seed int64) *MetaToken {
	rng := tensor.NewRNG(seed)
	return &MetaToken{
		Count: count,
		Embed: embed,
		Table: NewParam(name+".meta", tensor.RandnScaled(rng, 0.02, count, embed)),
	}
}

// Forward prepends the tokens: [B,T,E] -> [B,M+T,E].
func (m *MetaToken) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != m.Embed {
		panic(fmt.Sprintf("nn: MetaToken.Forward want [B,T,%d], got %v", m.Embed, x.Shape))
	}
	m.b, m.t = x.Shape[0], x.Shape[1]
	m.out = tensor.EnsureShape(m.out, x.Shape[0], m.Count+x.Shape[1], m.Embed)
	return m.prepend(m.out, x)
}

// Infer prepends the tokens without recording the extents a pending
// Backward depends on.
func (m *MetaToken) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != m.Embed {
		panic(fmt.Sprintf("nn: MetaToken.Infer want [B,T,%d], got %v", m.Embed, x.Shape))
	}
	m.iout = tensor.EnsureShape(m.iout, x.Shape[0], m.Count+x.Shape[1], m.Embed)
	return m.prepend(m.iout, x)
}

// prepend writes the learned tokens followed by x into out.
//
// dchag:hotpath — per-step token prepend; out is layer-owned scratch.
func (m *MetaToken) prepend(out, x *tensor.Tensor) *tensor.Tensor {
	b, t := x.Shape[0], x.Shape[1]
	for bi := 0; bi < b; bi++ {
		copy(out.Data[bi*(m.Count+t)*m.Embed:], m.Table.W.Data)
		copy(out.Data[(bi*(m.Count+t)+m.Count)*m.Embed:], x.Data[bi*t*m.Embed:(bi+1)*t*m.Embed])
	}
	return out
}

// Backward splits the gradient: token rows accumulate into the table, the
// rest is returned as the input gradient.
func (m *MetaToken) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(grad.Shape) != 3 || grad.Shape[1] != m.Count+m.t {
		panic(fmt.Sprintf("nn: MetaToken.Backward want [B,%d,%d], got %v", m.Count+m.t, m.Embed, grad.Shape))
	}
	m.dx = tensor.EnsureShape(m.dx, m.b, m.t, m.Embed)
	for bi := 0; bi < m.b; bi++ {
		src := grad.Data[bi*(m.Count+m.t)*m.Embed : (bi+1)*(m.Count+m.t)*m.Embed]
		for i := 0; i < m.Count*m.Embed; i++ {
			m.Table.Grad.Data[i] += src[i]
		}
		copy(m.dx.Data[bi*m.t*m.Embed:(bi+1)*m.t*m.Embed], src[m.Count*m.Embed:])
	}
	return m.dx
}

// Params returns the token table.
func (m *MetaToken) Params() []*Param { return []*Param{m.Table} }
