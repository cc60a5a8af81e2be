package main

import (
	"fmt"
	"math"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
	"qcdoc/internal/telemetry"
)

// rackInstance is the rack halo loop: build, boot, run and shut down a
// whole sharded machine per operation. No lattice arithmetic at all.
type rackInstance struct {
	shape   geom.Shape
	workers int
	rounds  int
	seed    uint64
	wants   []float64 // the expected value of each global sum
	pinned  uint64
}

const rackWords = 16

// rackWord is the payload word w that rank sends in every round.
func rackWord(seed uint64, rank, w int) uint64 {
	return (seed*0x9E3779B97F4A7C15)<<48 | uint64(rank)<<16 | uint64(w)
}

// rackTerm is the value rank contributes to global sum number k.
func rackTerm(seed uint64, rank, k int) float64 {
	return float64(rank+1) + float64(seed%97)/128 + float64(k)
}

func setupRack(seed uint64, smoke bool) (instance, error) {
	in := &rackInstance{shape: geom.MakeShape(8, 4, 4, 2, 2, 2), workers: 2, rounds: 24, seed: seed}
	if smoke {
		in.shape, in.rounds = geom.MakeShape(2, 2, 2), 6
	} else if seed == defaultSeed {
		in.pinned = pinnedDigest("rack_halo_1024n")
	}
	for k := 0; k <= in.rounds/6; k++ {
		want := 0.0
		for r := 0; r < in.shape.Volume(); r++ {
			want += rackTerm(seed, r, k)
		}
		in.wants = append(in.wants, want)
	}
	return in, nil
}

func (in *rackInstance) op(tr *tracer) (opOut, error) { return in.run(tr, in.workers) }

// run executes one operation at the given cluster worker count.
func (in *rackInstance) run(tr *tracer, workers int) (opOut, error) {
	out := opOut{}
	tr.begin("bench", "rack_halo")
	defer tr.end()

	_, bytes0 := readMem()
	tr.begin("machine", "build")
	eng := event.New()
	cfg := machine.DefaultConfig(in.shape)
	cfg.Shards = machine.ShardAuto
	cfg.Workers = workers
	m := machine.Build(eng, cfg)
	build := tr.end()
	if tr != nil {
		_, bytes1 := readMem()
		out.layer = map[string]float64{"machine.build_s": build, "machine.build_alloc_mb": float64(bytes1-bytes0) / 1e6}
		m.EnableTelemetry()
	}

	tr.begin("machine", "boot")
	err := m.Boot()
	boot := tr.end()
	if err != nil {
		eng.Shutdown()
		return out, err
	}

	v := in.shape.Volume()
	fold := geom.IdentityFold(in.shape)
	// Per-rank result slots: rank programs run on different shard
	// engines concurrently, so each writes only its own element.
	bad := make([]string, v)
	sums := make([]float64, v)
	tr.begin("machine", "spmd")
	err = m.RunSPMD("rack", func(rank int) node.Program {
		return func(ctx *node.Ctx) { in.program(ctx, fold, rank, bad, sums) }
	})
	spmd := tr.end()
	simT := eng.Now() // boot is part of the operation: the machine starts at time zero

	digest := newFNV()
	var events, maxShard uint64
	if err == nil {
		events, maxShard = shardEvents(m)
		st := m.Stats()
		for _, v := range []uint64{uint64(simT), events, st.WordsSent, st.WordsReceived, st.Resends} {
			digest.mix(v)
		}
		for _, s := range sums {
			digest.mix(math.Float64bits(s))
		}
		if _, cerr := m.VerifyChecksums(); cerr != nil {
			err = cerr
		}
	}
	if tr != nil && err == nil {
		var gsum telemetry.HistogramSnapshot
		cs := m.Cluster().Stats()
		out.layer["machine.boot_s"] = boot
		out.layer["machine.spmd_s"] = spmd
		out.layer["event.events"] = float64(events)
		out.layer["event.ns_per_event"] = 1e9 * (boot + spmd) / float64(events)
		out.layer["event.cluster_windows"] = float64(cs.Windows)
		out.layer["event.cluster_barriers"] = float64(cs.Barriers)
		out.layer["event.cluster_cross_msgs"] = float64(cs.CrossMessages)
		out.layer["event.events_per_window"] = float64(events) / float64(cs.Windows)
		out.layer["event.shard_imbalance"] = float64(maxShard) * float64(m.Cluster().NumShards()) / float64(events)
		out.layer["core.sim_s"] = simT.Seconds()
		machineCounters(out.layer, m, &gsum)
		finishCounters(out.layer, &gsum)
	}
	tr.begin("machine", "shutdown")
	eng.Shutdown()
	shut := tr.end()
	if err != nil {
		return out, err
	}
	for rank, msg := range bad {
		if msg != "" {
			return out, fmt.Errorf("rank %d: %s", rank, msg)
		}
	}
	out.simS = simT.Seconds()
	out.digest = uint64(digest)
	if tr != nil {
		out.layer["machine.shutdown_s"] = shut
		out.layer["core.sim_digest_match"] = digestMatch(in.pinned, out.digest)
	}
	return out, nil
}

// program is one rank's SPMD code: in round r every rank sends 16 words
// forward and receives 16 from behind on dimension r mod 6, with a
// doubled global sum before every sixth round's exchange and one
// closing the loop; each received word and each sum is checked against
// what the sender must have produced.
func (in *rackInstance) program(ctx *node.Ctx, fold *geom.Fold, rank int, bad []string, sums []float64) {
	n := ctx.N
	fail := func(format string, args ...any) {
		if bad[rank] == "" {
			bad[rank] = fmt.Sprintf(format, args...)
		}
	}
	send, recv := n.AllocWords(rackWords), n.AllocWords(rackWords)
	for w := 0; w < rackWords; w++ {
		n.Mem.WriteWord(send+8*uint64(w), rackWord(in.seed, rank, w))
	}
	comm := qmp.New(ctx, fold)
	coord := in.shape.CoordOf(rank)
	gsums := 0
	globalSum := func() {
		got, want := comm.GlobalSumFloat64Doubled(ctx.P, rackTerm(in.seed, rank, gsums)), in.wants[gsums]
		if math.Abs(got-want) > 1e-9*want {
			fail("global sum %d = %v, want %v", gsums, got, want)
		}
		sums[rank] += got
		gsums++
	}
	for round := 0; round < in.rounds; round++ {
		if round%6 == 5 {
			globalSum()
		}
		out := geom.Link{Dim: round % geom.MaxDim, Dir: geom.Fwd}
		rt, err := n.SCU.StartRecv(out.Opposite(), scu.Contiguous(recv, rackWords))
		if err != nil {
			fail("round %d: %v", round, err)
			return
		}
		st, err := n.SCU.StartSend(out, scu.Contiguous(send, rackWords))
		if err != nil {
			fail("round %d: %v", round, err)
			return
		}
		st.Wait(ctx.P)
		rt.Wait(ctx.P)
		from := in.shape.Rank(in.shape.Neighbor(coord, out.Dim, geom.Bwd))
		for w := 0; w < rackWords; w++ {
			if got, want := n.Mem.ReadWord(recv+8*uint64(w)), rackWord(in.seed, from, w); got != want {
				fail("round %d: word %d from rank %d = %#x, want %#x", round, w, from, got, want)
			}
		}
	}
	globalSum()
}

// shardEvents sums Engine.Executed over a machine's shard engines and
// returns the busiest shard's count too.
func shardEvents(m *machine.Machine) (total, maxShard uint64) {
	c := m.Cluster()
	if c == nil {
		return m.Eng.Executed(), m.Eng.Executed()
	}
	for i := 0; i < c.NumShards(); i++ {
		e := c.Shard(i).Executed()
		total += e
		maxShard = max(maxShard, e)
	}
	return total, maxShard
}

// extras measures the same operation at one cluster worker: the ratio
// to the dark pass at two workers is what the old E11 "workers=1 is
// 2.8x slower" row should have shown once both sides are warm.
func (in *rackInstance) extras(darkWall float64, digest uint64, m map[string]float64) error {
	var walls []float64
	for i := 0; i < 3; i++ {
		start := now()
		out, err := in.run(nil, 1)
		walls = append(walls, since(start))
		if err != nil {
			return fmt.Errorf("workers=1: %w", err)
		}
		if out.digest != digest {
			return fmt.Errorf("workers=1 digest %#x differs from workers=%d digest %#x", out.digest, in.workers, digest)
		}
	}
	m["event.cluster_w1_over_w2"] = median(walls) / darkWall
	return nil
}
