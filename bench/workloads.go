package main

import (
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
)

// defaultSeed is the seed the pinned simulated values are defined at.
const defaultSeed = 1

// pinnedDigest returns a workload's operation digest at the default
// seed, 0 if none is pinned. A host-only optimisation must leave the
// digests unchanged (core.sim_digest_match stays 1); a change to
// simulated behaviour re-pins them and says why.
func pinnedDigest(workload string) uint64 {
	switch workload {
	case "solve_wilson_16n":
		return 0xb5223e70e4e60c5c
	case "solve_wilson_2n_ddr":
		return 0x9f96653e176f2642
	case "solve_ops_4n":
		return 0xcb82b8fcb21d26ca
	case "rack_halo_1024n":
		return 0xfdca315432b91aef
	case "fleet_storm_6run":
		return 0xc0832bf54010bb87
	}
	return 0
}

// workloads returns the benchmark's five workloads. All are closed
// loops of one operation at a time.
func workloads() []workload {
	// size is a solve workload's machine and lattice; each has a real
	// and a smoke size.
	type size struct {
		shape  geom.Shape
		global lattice.Shape4
	}
	solve := func(name string, real, tiny size, stages func(*lattice.GaugeField, uint64) []stage) func(uint64, bool) (instance, error) {
		return func(seed uint64, smoke bool) (instance, error) {
			if smoke {
				return setupSolve(name, tiny.shape, tiny.global, seed, 0, stages)
			}
			return setupSolve(name, real.shape, real.global, seed, pinnedDigest(name), stages)
		}
	}
	wilson := func(paper float64) func(*lattice.GaugeField, uint64) []stage {
		return func(g *lattice.GaugeField, seed uint64) []stage { return []stage{wilsonStage(g, seed, paper)} }
	}
	return []workload{
		{
			name: "solve_wilson_16n", warm: 1, n: 5,
			why: "16 nodes, 4^4 local volume in EDRAM: the paper's 40 % row and the host-side worst case, ~87 % of wall under event dispatch",
			setup: solve("solve_wilson_16n", size{geom.MakeShape(2, 2, 2, 2), lattice.Shape4{8, 8, 8, 8}},
				size{geom.MakeShape(2, 2), lattice.Shape4{4, 4, 2, 2}}, wilson(40)),
		},
		{
			name: "solve_wilson_2n_ddr", warm: 1, n: 8,
			why: "2 nodes, 16x8^3 local volume spilling to DDR: same code path with the layer mix inverted, ~60 % scatter/gather and lattice arithmetic",
			setup: solve("solve_wilson_2n_ddr", size{geom.MakeShape(2), lattice.Shape4{32, 8, 8, 8}},
				size{geom.MakeShape(2), lattice.Shape4{4, 2, 2, 2}}, wilson(30)),
		},
		{
			name: "solve_ops_4n", warm: 1, n: 6,
			why: "clover + ASQTAD + DWF on 4 nodes: the halo/solve layer used three ways (dist.go, dist2.go, dist5.go), completing the paper's E1 table",
			setup: solve("solve_ops_4n", size{geom.MakeShape(2, 2), lattice.Shape4{8, 8, 4, 4}},
				size{geom.MakeShape(2), lattice.Shape4{8, 2, 2, 2}},
				func(g *lattice.GaugeField, seed uint64) []stage {
					return []stage{cloverStage(g, seed), asqtadStage(g, seed), dwfStage(g, seed)}
				}),
		},
		{
			name: "rack_halo_1024n", warm: 3, n: 30,
			why:   "build, boot, 24 halo rounds + 4 global sums, shutdown of the 8x4x4x2x2x2 rack on 16 shards: machine construction, coroutines, event.Cluster, qmp; no arithmetic",
			setup: setupRack,
		},
		{
			name: "fleet_storm_6run", warm: 2, n: 12,
			why:   "six chaos runs over a shared pool at 2 workers: fleet scheduling, machine.Pool reuse, qdaemon traffic, checkpoints, faultplan, the recovery ladder",
			setup: setupFleet,
		},
	}
}
