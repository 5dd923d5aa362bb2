package tensor

import "sync"

// Pool is a size-classed free list of tensor buffers. Hot paths draw
// destination and scratch buffers from a Pool instead of allocating, so
// steady-state training and serving steps stop churning the garbage
// collector. Buffers are bucketed by the power-of-two capacity class that
// fits them; a Get looks only at the class of its request — the smallest
// power of two that holds it — and allocates a buffer of that class when the
// bucket is empty, however many larger buffers the pool retains.
//
// Ownership rules (the "dst/pool contract" documented in DESIGN.md):
//
//   - GetTensor returns a tensor with DIRTY contents. Callers that need
//     zeros must call Zero themselves; the kernels in this package always
//     overwrite their destination, so they never need to.
//   - PutTensor hands the buffer back; the caller must not retain any
//     reference to it (or to slices of its Data) afterwards.
//   - A Pool is safe for concurrent use by multiple goroutines.
//
// The zero Pool value is ready to use.
type Pool struct {
	mu  sync.Mutex
	t64 map[int][]*Tensor
	f32 map[int][][]float32
}

// poolMaxPerClass bounds how many free buffers one size class retains;
// beyond that, Put drops the buffer for the GC to reclaim.
const poolMaxPerClass = 32

// DefaultPool is the process-wide pool used by the blocked kernels for their
// packing panels and by hot-path callers that do not carry their own pool.
var DefaultPool = &Pool{}

// sizeClass returns the smallest power of two >= n (minimum 64).
func sizeClass(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}

// GetTensor returns a tensor of the given shape backed by a pooled buffer
// (or a fresh one on a pool miss). Contents are unspecified.
func (p *Pool) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	class := sizeClass(n)
	p.mu.Lock()
	free := p.t64[class]
	if len(free) > 0 {
		t := free[len(free)-1]
		p.t64[class] = free[:len(free)-1]
		p.mu.Unlock()
		t.Shape = append(t.Shape[:0], shape...)
		t.Data = t.Data[:n]
		return t
	}
	p.mu.Unlock()
	t := &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n, class)}
	return t
}

// PutTensor returns t's buffer to the pool. t must not be used afterwards.
// Tensors whose backing capacity is not a pool class (e.g. produced by New)
// are still accepted: they are filed under the largest class they can serve.
func (p *Pool) PutTensor(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	class := sizeClass(cap(t.Data))
	if class > cap(t.Data) {
		class >>= 1 // not a full class: file under the class it can serve
	}
	if class < 64 {
		return
	}
	t.Data = t.Data[:0:cap(t.Data)]
	p.mu.Lock()
	if p.t64 == nil {
		p.t64 = make(map[int][]*Tensor)
	}
	if len(p.t64[class]) < poolMaxPerClass {
		p.t64[class] = append(p.t64[class], t)
	}
	p.mu.Unlock()
}

// Get32 returns a float32 scratch slice of length n with unspecified
// contents. The float32 lists back the packed panels of the f32 kernel path.
func (p *Pool) Get32(n int) []float32 {
	class := sizeClass(n)
	p.mu.Lock()
	free := p.f32[class]
	if len(free) > 0 {
		buf := free[len(free)-1]
		p.f32[class] = free[:len(free)-1]
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]float32, n, class)
}

// Put32 returns a float32 scratch slice to the pool.
func (p *Pool) Put32(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	class := sizeClass(cap(buf))
	if class > cap(buf) {
		class >>= 1
	}
	if class < 64 {
		return
	}
	buf = buf[:0:cap(buf)]
	p.mu.Lock()
	if p.f32 == nil {
		p.f32 = make(map[int][][]float32)
	}
	if len(p.f32[class]) < poolMaxPerClass {
		p.f32[class] = append(p.f32[class], buf)
	}
	p.mu.Unlock()
}

// EnsureShape returns a tensor of exactly the given shape, reusing t's
// backing array when it is large enough. It is the idiom for layer-owned
// scratch: the first call allocates, steady-state calls are allocation-free.
// Contents are unspecified after a reuse (the caller overwrites them).
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t != nil && cap(t.Data) >= n {
		t.Shape = append(t.Shape[:0], shape...)
		t.Data = t.Data[:n]
		return t
	}
	return New(shape...)
}
