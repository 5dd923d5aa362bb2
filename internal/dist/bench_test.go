package dist

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/tensor"
)

// largeWorldEnv opts the big world sizes into benchmark runs; without it
// only the 64-rank baseline executes, so `make bench` (benchtime=1x over
// everything) stays fast.
const largeWorldEnv = "DCHAG_BENCH_LARGE_WORLD"

// BenchmarkRendezvousWorldScale measures goroutine scalability of the
// functional mesh substrate past 64 world ranks: one goroutine per rank,
// each driving a small TP AllReduce, an FSDP AllGather, and a DP AllReduce
// per iteration — the rendezvous pattern of a real hybrid training step.
// World sizes above 64 are skipped unless DCHAG_BENCH_LARGE_WORLD is set.
func BenchmarkRendezvousWorldScale(b *testing.B) {
	for _, world := range []int{64, 128, 256, 512} {
		world := world
		b.Run(fmt.Sprintf("world=%d", world), func(b *testing.B) {
			if world > 64 && os.Getenv(largeWorldEnv) == "" {
				b.Skipf("set %s=1 to benchmark %d-rank rendezvous", largeWorldEnv, world)
			}
			spec := MeshSpec{TP: 8, FSDP: 4, DP: world / 32}
			topo := Frontier(world / 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := RunMesh(spec, topo, func(rank int, m *Mesh) error {
					x := tensor.Full(float64(rank), 64)
					m.TPComm(rank).AllReduceInto(tensor.New(64), x)
					m.FSDPComm(rank).AllGatherEach(x, func(int, *tensor.Tensor) {})
					m.DPComm(rank).AllReduceInto(tensor.New(64), x)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
