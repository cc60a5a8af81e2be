package qdaemon

// Partition health. QCDOC's field-replaceable unit is the daughterboard
// (§2.4: two ASICs, two DIMMs, an Ethernet hub on one small board), so
// that is the granularity of isolation: when the watchdog declares any
// node dead, the daemon marks the owning daughterboard failed and both
// of its nodes leave the partition. Jobs launch only on non-isolated
// nodes, and the recovery flow repartitions the survivors before
// restarting from checkpoint.

import (
	"qcdoc/internal/machine"
)

// PartitionMap tracks which daughterboards of a partition have been
// marked failed and which node ranks are therefore isolated.
type PartitionMap struct {
	nodes  int
	failed []bool // per daughterboard
}

// NewPartitionMap returns an all-healthy map for an n-node partition.
func NewPartitionMap(nodes int) *PartitionMap {
	boards := (nodes + machine.NodesPerDaughterboard - 1) / machine.NodesPerDaughterboard
	return &PartitionMap{nodes: nodes, failed: make([]bool, boards)}
}

// BoardOf returns the daughterboard index owning a rank.
func BoardOf(rank int) int { return rank / machine.NodesPerDaughterboard }

// MarkFailed records a node failure: the owning daughterboard is marked
// failed, isolating every node on it. It returns the board index and
// whether this call changed the map.
func (pm *PartitionMap) MarkFailed(rank int) (board int, changed bool) {
	board = BoardOf(rank)
	if pm.failed[board] {
		return board, false
	}
	pm.failed[board] = true
	return board, true
}

// Isolated reports whether a rank's daughterboard has been marked
// failed.
func (pm *PartitionMap) Isolated(rank int) bool { return pm.failed[BoardOf(rank)] }

// HealthyRanks returns the non-isolated ranks, ascending.
func (pm *PartitionMap) HealthyRanks() []int {
	out := make([]int, 0, pm.nodes)
	for r := 0; r < pm.nodes; r++ {
		if !pm.Isolated(r) {
			out = append(out, r)
		}
	}
	return out
}

// HealthyCount returns the number of non-isolated ranks.
func (pm *PartitionMap) HealthyCount() int { return len(pm.HealthyRanks()) }

// LargestPow2Partition returns the largest power-of-two node count that
// fits in the healthy set — the natural repartition size for a machine
// whose shapes are power-of-two tori. Zero when nothing is healthy.
func (pm *PartitionMap) LargestPow2Partition() int {
	h := pm.HealthyCount()
	p := 0
	for c := 1; c <= h; c <<= 1 {
		p = c
	}
	return p
}
