package tensor

import (
	"sync"
	"testing"
)

func TestPoolReuse(t *testing.T) {
	p := &Pool{}
	a := p.GetTensor(8, 16)
	if len(a.Data) != 128 {
		t.Fatalf("GetTensor len = %d, want 128", len(a.Data))
	}
	a.Fill(3)
	ptr := &a.Data[0]
	p.PutTensor(a)
	b := p.GetTensor(128)
	if &b.Data[0] != ptr {
		t.Fatal("pool did not reuse the buffer")
	}
	if len(b.Shape) != 1 || b.Shape[0] != 128 {
		t.Fatalf("reused tensor shape = %v", b.Shape)
	}
	// A larger request must not be served by the small buffer.
	c := p.GetTensor(4096)
	if &c.Data[0] == ptr {
		t.Fatal("pool served an undersized buffer")
	}
}

func TestPoolSizeClasses(t *testing.T) {
	p := &Pool{}
	small := p.GetTensor(65) // class 128
	p.PutTensor(small)
	got := p.GetTensor(100) // also class 128
	if cap(got.Data) < 100 {
		t.Fatalf("cap = %d, want >= 100", cap(got.Data))
	}
	// Externally-allocated tensors are accepted and filed under the class
	// their capacity can serve.
	ext := New(100)
	p.PutTensor(ext)
	reused := p.GetTensor(60)
	if cap(reused.Data) < 60 {
		t.Fatalf("cap = %d, want >= 60", cap(reused.Data))
	}
}

func TestPoolF32(t *testing.T) {
	p := &Pool{}
	buf := p.Get32(1000)
	if len(buf) != 1000 {
		t.Fatalf("Get32 len = %d", len(buf))
	}
	p.Put32(buf)
	again := p.Get32(900)
	if cap(again) < 900 {
		t.Fatalf("Get32 cap = %d", cap(again))
	}
}

// TestPoolConcurrent exercises Get/Put from many goroutines; run with -race
// this pins the pool's thread safety (the blocked kernels draw panels from
// DefaultPool concurrently in every parallel matmul).
func TestPoolConcurrent(t *testing.T) {
	p := &Pool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tt := p.GetTensor(64 + (g+i)%512)
				tt.Fill(float64(g))
				for _, v := range tt.Data {
					if v != float64(g) {
						t.Error("pool handed the same buffer to two goroutines")
						return
					}
				}
				p.PutTensor(tt)
				b := p.Get32(128)
				p.Put32(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestEnsureShape(t *testing.T) {
	a := EnsureShape(nil, 4, 5)
	if len(a.Data) != 20 {
		t.Fatalf("EnsureShape alloc len = %d", len(a.Data))
	}
	ptr := &a.Data[0]
	b := EnsureShape(a, 2, 7) // smaller: reuse
	if &b.Data[0] != ptr || b.Shape[0] != 2 || b.Shape[1] != 7 {
		t.Fatal("EnsureShape did not reuse backing for a smaller shape")
	}
	c := EnsureShape(b, 100, 100) // larger: fresh
	if len(c.Data) != 10000 {
		t.Fatalf("EnsureShape grow len = %d", len(c.Data))
	}
}

// TestMatMulIntoSteadyStateAllocs pins allocs/op ~ 0 for the hot kernels
// once scratch is warm (single-worker path: goroutine dispatch on the
// parallel path transiently allocates closures; BenchmarkProductCallers
// times that path).
func TestMatMulIntoSteadyStateAllocs(t *testing.T) {
	a := New(64, 96)
	b := New(96, 64)
	bt := New(64, 96)
	at := New(96, 64)
	fill(a, 1)
	fill(b, 2)
	dst := New(64, 64)
	acc := New(64, 64)
	MatMulInto(dst, a, b) // warm the pool
	cases := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(dst, a, b) }},
		{"MatMulTInto", func() { MatMulTInto(dst, a, bt) }},
		{"TMatMulInto", func() { TMatMulInto(dst, at, b) }},
		{"TMatMulAccInto", func() { TMatMulAccInto(acc, at, b) }},
		{"MatMulF32Into", func() { MatMulF32Into(dst, a, b) }},
		{"AddInto", func() { AddInto(dst, dst, dst) }},
		{"SoftmaxLastDimInto", func() { SoftmaxLastDimInto(dst, dst) }},
	}
	for _, c := range cases {
		c.fn() // warm
		if n := testing.AllocsPerRun(10, c.fn); n > 0.5 {
			t.Errorf("%s allocates %.1f times per op in steady state", c.name, n)
		}
	}
}
