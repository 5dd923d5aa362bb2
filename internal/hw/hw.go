// Package hw models the Frontier supercomputer's performance-relevant
// hardware (paper Sec. 4.1): MI250X Graphics Compute Dies (GCDs, "GPUs" in
// the paper's terminology) with 64 GB of HBM, Infinity-Fabric intra-node
// links, and the Slingshot-11 inter-node network — plus analytic cost
// functions for ring collectives over groups placed on that topology.
//
// This is the substitution for the real machine (DESIGN.md): the paper's
// memory and throughput figures are regenerated by internal/perfmodel on top
// of these constants. Absolute numbers are calibrated, not measured; the
// experiments compare *shapes* (who wins, by what factor, where crossovers
// fall).
package hw

import "fmt"

// Machine describes the performance-relevant hardware constants.
type Machine struct {
	// GPUMemBytes is HBM capacity per GCD.
	GPUMemBytes int64
	// GPUsPerNode counts GCDs per node (Frontier: 4 MI250X = 8 GCDs).
	GPUsPerNode int
	// PeakTFLOPS is the per-GCD peak throughput for training math.
	PeakTFLOPS float64
	// Efficiency is the sustained fraction of peak achieved on transformer
	// workloads.
	Efficiency float64
	// IntraBW is per-GCD Infinity Fabric bandwidth within a node (bytes/s).
	IntraBW float64
	// InterBWPerGPU is each GCD's share of the node's Slingshot injection
	// bandwidth (bytes/s).
	InterBWPerGPU float64
	// LatIntra and LatInter are per-message latencies (seconds).
	LatIntra, LatInter float64
}

// Frontier returns the machine model used throughout the experiments:
// 64 GB GCDs, 8 GCDs/node, 50 GB/s Infinity Fabric, 100 GB/s Slingshot-11
// per node (12.5 GB/s per GCD), and a sustained-efficiency factor typical of
// large transformer training on MI250X.
func Frontier() Machine {
	return Machine{
		GPUMemBytes:   64 << 30,
		GPUsPerNode:   8,
		PeakTFLOPS:    191.5, // MI250X GCD bf16 with matrix cores
		Efficiency:    0.32,
		IntraBW:       50e9,
		InterBWPerGPU: 12.5e9,
		LatIntra:      3e-6,
		LatInter:      10e-6,
	}
}

// SustainedFLOPS returns the achievable per-GCD floating-point rate in
// FLOP/s.
func (m Machine) SustainedFLOPS() float64 {
	return m.PeakTFLOPS * 1e12 * m.Efficiency
}

// UsableMemBytes returns the memory budget after allocator and runtime
// overheads.
func (m Machine) UsableMemBytes() int64 {
	return int64(float64(m.GPUMemBytes) * 0.95)
}

// ComputeTime returns the wall time to execute the given FLOPs on one GCD at
// sustained efficiency.
func (m Machine) ComputeTime(flops float64) float64 {
	return flops / m.SustainedFLOPS()
}

// Nodes returns the node count covering the given number of GPUs.
func (m Machine) Nodes(gpus int) int {
	return (gpus + m.GPUsPerNode - 1) / m.GPUsPerNode
}

// FormatBytes renders a byte count as GiB with two decimals.
func FormatBytes(b int64) string {
	return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
}
