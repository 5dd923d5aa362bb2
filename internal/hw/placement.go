package hw

// Placement is the physical location of a collective group: element i is
// the node hosting the group's rank i, in ring order. Ring collectives move
// chunks between consecutive positions, so hop i connects position i to
// position (i+1) mod len(p) — the wraparound hop is a real link of the ring
// and is classified like any other.
//
// Placements are how placement-dependent link selection reaches the cost
// functions: intra-node hops run over Infinity Fabric (IntraBW/LatIntra),
// inter-node hops over the per-GCD Slingshot share (InterBWPerGPU/LatInter),
// and a mixed ring is priced by its slowest link, because every ring step
// moves all chunks in lockstep and completes only when the slowest hop does.
type Placement []int

// IntraNode reports whether every position of the placement is on one node.
// Trivial placements (size <= 1) are intra-node.
func (p Placement) IntraNode() bool {
	for _, n := range p {
		if n != p[0] {
			return false
		}
	}
	return true
}

// InterHops counts the ring hops (including the wraparound hop) that cross
// a node boundary.
func (p Placement) InterHops() int {
	if len(p) <= 1 {
		return 0
	}
	hops := 0
	for i := range p {
		if p[i] != p[(i+1)%len(p)] {
			hops++
		}
	}
	return hops
}

// ContiguousPlacement returns the placement of n ranks packed densely from
// world rank start under the machine's node width — the layout of TP (and
// node-filling FSDP) groups in internal/dist. It is exact for groups that do
// not start at a node boundary.
func (m Machine) ContiguousPlacement(start, n int) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = (start + i) / m.GPUsPerNode
	}
	return p
}

// RingLink returns the bandwidth and latency of the slowest link in the
// placement's ring: intra-node values when no hop crosses a node boundary,
// otherwise the inter-node values (the hop every lockstep ring step waits
// for). Trivial placements (size <= 1) are priced intra-node.
func (m Machine) RingLink(p Placement) (bw, lat float64) {
	if len(p) > 1 && p.InterHops() > 0 {
		return m.InterBWPerGPU, m.LatInter
	}
	return m.IntraBW, m.LatIntra
}

// ringSteps prices `steps` lockstep ring steps each moving chunkBytes per
// rank: every step costs the slowest hop's latency plus its transfer time.
func (m Machine) ringSteps(p Placement, steps float64, chunkBytes float64) float64 {
	bw, lat := m.RingLink(p)
	return steps*lat + steps*chunkBytes/bw
}

// AllGatherTimeOn returns the ring all-gather time for a group with the
// given placement, each rank contributing bytesPerRank.
func (m Machine) AllGatherTimeOn(p Placement, bytesPerRank int64) float64 {
	n := len(p)
	if n <= 1 {
		return 0
	}
	return m.ringSteps(p, float64(n-1), float64(bytesPerRank))
}

// AllReduceTimeOn returns the ring all-reduce (reduce-scatter + all-gather)
// time for a group with the given placement over a buffer of the given size.
func (m Machine) AllReduceTimeOn(p Placement, bytes int64) float64 {
	n := len(p)
	if n <= 1 {
		return 0
	}
	return m.ringSteps(p, 2*float64(n-1), float64(bytes)/float64(n))
}

// ReduceScatterTimeOn returns the ring reduce-scatter time for a group with
// the given placement over a buffer of the given size.
func (m Machine) ReduceScatterTimeOn(p Placement, bytes int64) float64 {
	n := len(p)
	if n <= 1 {
		return 0
	}
	return m.ringSteps(p, float64(n-1), float64(bytes)/float64(n))
}

// WireTime returns the time to move perRankBytes through the placement's
// slowest link at full bandwidth (no latency term) — the pricing used to
// convert measured traffic-ledger volumes into simulated seconds.
func (m Machine) WireTime(p Placement, perRankBytes int64) float64 {
	if len(p) <= 1 {
		return 0
	}
	bw, _ := m.RingLink(p)
	return float64(perRankBytes) / bw
}
