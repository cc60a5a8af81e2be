package machine

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

// shardedTraceRun is traceRun on a sharded machine: one FNV tracer per
// shard (a shared tracer closure would race across workers), combined
// in shard order into one digest.
func shardedTraceRun(t *testing.T, shape geom.Shape, workers int) (eventDigest, linkDigest uint64, end event.Time) {
	t.Helper()
	eng := event.New()
	cfg := DefaultConfig(shape)
	cfg.Shards = ShardAuto
	cfg.Workers = workers
	m := Build(eng, cfg)
	cl := m.Cluster()
	if cl == nil {
		t.Fatalf("config %+v built no cluster", cfg)
	}
	hashes := make([]interface{ Sum64() uint64 }, cl.NumShards())
	for i := 0; i < cl.NumShards(); i++ {
		h := fnv.New64a()
		hashes[i] = h
		var buf [8]byte
		cl.Shard(i).SetTracer(func(at event.Time) {
			for j := range buf {
				buf[j] = byte(uint64(at) >> (8 * j))
			}
			h.Write(buf[:])
		})
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	fold := geom.IdentityFold(shape)
	err := m.RunSPMD("trace", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			sendAddr := n.AllocWords(16)
			recvAddr := n.AllocWords(16)
			for i := 0; i < 16; i++ {
				n.Mem.WriteWord(sendAddr+8*uint64(i), uint64(rank)<<32|uint64(i))
			}
			rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(recvAddr, 16))
			if err != nil {
				panic(err)
			}
			st, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(sendAddr, 16))
			if err != nil {
				panic(err)
			}
			st.Wait(ctx.P)
			rt.Wait(ctx.P)
			c := qmp.New(ctx, fold)
			c.GlobalSumFloat64Doubled(ctx.P, float64(rank)+0.5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	eh := fnv.New64a()
	var buf [8]byte
	for _, h := range hashes {
		w := h.Sum64()
		for i := range buf {
			buf[i] = byte(w >> (8 * i))
		}
		eh.Write(buf[:])
	}
	lh := fnv.New64a()
	for _, n := range m.Nodes {
		for _, l := range geom.AllLinks() {
			tx, rx := n.SCU.Checksums(l)
			for _, w := range []uint64{tx.Sum(), tx.Count(), rx.Sum(), rx.Count()} {
				for i := range buf {
					buf[i] = byte(w >> (8 * i))
				}
				lh.Write(buf[:])
			}
		}
	}
	return eh.Sum64(), lh.Sum64(), eng.Now()
}

// TestShardedDeterministicReplay is the sharded analogue of
// TestDeterministicReplay (less its partition interrupt, which a sharded
// machine refuses), and more: the per-shard event streams, link
// checksums and final clock must be identical across runs AND across
// worker counts 1, 2, 4, 8 — workers
// only choose which OS thread executes a shard's window, never what the
// window contains.
func TestShardedDeterministicReplay(t *testing.T) {
	shape := geom.MakeShape(4, 2, 2)
	e0, l0, t0 := shardedTraceRun(t, shape, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		e, l, tend := shardedTraceRun(t, shape, workers)
		if e != e0 {
			t.Fatalf("workers=%d: event digest %#x, want %#x", workers, e, e0)
		}
		if l != l0 {
			t.Fatalf("workers=%d: link digest %#x, want %#x", workers, l, l0)
		}
		if tend != t0 {
			t.Fatalf("workers=%d: final time %v, want %v", workers, tend, t0)
		}
	}
}

// The flight recorder is unsharded: SetRecorder refuses the host
// engine of a sharded machine.
func TestSetRecorderRefusesShardedMachine(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	cfg := DefaultConfig(geom.MakeShape(2, 2))
	cfg.Shards = ShardAuto
	Build(eng, cfg)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard") {
			t.Fatalf("SetRecorder on a sharded machine: panic %v, want one naming sharding", r)
		}
	}()
	eng.SetRecorder(event.NewRecorder(16))
}

// The slow global clock samples every node at once, which no shard may
// do: a sharded machine refuses a partition interrupt at the raise.
func TestRaisePartIRQRefusesShardedMachine(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	cfg := DefaultConfig(geom.MakeShape(2, 2))
	cfg.Shards = ShardAuto
	m := Build(eng, cfg)
	if m.Cluster() == nil {
		t.Fatal("ShardAuto built an unsharded machine")
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard") {
			t.Fatalf("RaisePartIRQ on a sharded machine: panic %v, want one naming sharding", r)
		}
	}()
	m.Nodes[1].SCU.RaisePartIRQ(0x04)
}

// TestShardPlanIsTopologyOnly pins the structural invariant behind
// worker-count-invariant digests: the shard plan depends only on the
// shape, never on Workers.
func TestShardPlanIsTopologyOnly(t *testing.T) {
	shape := geom.MakeShape(4, 2, 2)
	for _, workers := range []int{1, 3, 8} {
		cfg := DefaultConfig(shape)
		cfg.Shards = ShardAuto
		cfg.Workers = workers
		m := Build(event.New(), cfg)
		defer m.Eng.Shutdown()
		if got := m.Cluster().NumShards(); got != 8 {
			t.Fatalf("workers=%d: %d shards, want 8 (one per daughterboard)", workers, got)
		}
		for r := range m.Nodes {
			if want := r / NodesPerDaughterboard; m.shardOf[r] != want {
				t.Fatalf("rank %d on shard %d, want %d", r, m.shardOf[r], want)
			}
		}
	}
}
