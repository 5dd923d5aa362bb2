package tensor

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic pseudo-random source for the given seed.
// Every stochastic component in this repository threads one of these
// explicitly so that distributed and serial runs can be made bit-identical.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Randn returns a tensor of standard normal samples drawn from rng.
func Randn(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// RandnScaled returns a tensor of normal samples with the given standard
// deviation.
func RandnScaled(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Uniform returns a tensor of samples uniform in [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return t
}

// XavierUniform returns a tensor initialized with the Glorot/Xavier uniform
// scheme for a weight of shape [fanIn, fanOut].
func XavierUniform(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return Uniform(rng, -limit, limit, fanIn, fanOut)
}
