package core

import (
	"hash/fnv"
	"runtime"
	"testing"

	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/team"
)

// shardedSolveDigest runs a Wilson solve (the E1/E10 one, on the 16-node
// machine at 4x4x2x2) on a sharded machine and fingerprints everything
// observable: solution bits, network word count, iteration count, and
// the simulated finish time.
func shardedSolveDigest(t *testing.T, shape geom.Shape, global lattice.Shape4, tol float64, workers int) uint64 {
	t.Helper()
	cfg := machine.DefaultConfig(shape)
	cfg.Shards = machine.ShardAuto
	cfg.Workers = workers
	sess, err := NewSessionConfig(cfg, global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.M.Cluster() == nil {
		t.Fatal("sharded config built an unsharded machine")
	}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(21)
	b := lattice.NewFermionField(global)
	b.Gaussian(22)
	x, met, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, tol, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w := make([]uint64, 24)
	for i := range x.S {
		latmath.PackSpinor(x.S[i], w)
		for _, v := range w {
			mix(v)
		}
	}
	mix(met.WordsSent)
	mix(uint64(met.Iterations))
	mix(uint64(met.SimTime))
	return h.Sum64()
}

// TestShardDeterminismDigests is the worker-count-invariance gate: the
// same seed must produce a bit-identical distributed solve (E1/E10) at
// workers 1, 2, 4 and 8. Workers choose OS threads, never physics — and
// neither does the width of a rank's team: a solve whose 2048-site local
// volume forks every site loop gives one digest at every worker count,
// with one core (every kernel a plain call) and with eight.
func TestShardDeterminismDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker digest matrix")
	}
	workerCounts := []int{1, 2, 4, 8}

	e1 := func(w int) uint64 {
		return shardedSolveDigest(t, geom.MakeShape(2, 2, 2, 2), lattice.Shape4{4, 4, 2, 2}, 1e-10, w)
	}
	s0 := e1(1)
	for _, w := range workerCounts[1:] {
		if s := e1(w); s != s0 {
			t.Fatalf("solve digest at workers=%d: %#x, want %#x", w, s, s0)
		}
	}

	forked := func(procs, w int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		global := lattice.Shape4{16, 16, 8, 4}
		if v := global.Volume() / 4; v < 2*team.Grain {
			t.Fatalf("local volume %d does not fork", v)
		}
		return shardedSolveDigest(t, geom.MakeShape(2, 2), global, 1e-2, w)
	}
	f0 := forked(1, 1)
	for _, w := range workerCounts {
		if f := forked(8, w); f != f0 {
			t.Fatalf("forked solve digest at GOMAXPROCS=8 workers=%d: %#x, want %#x at GOMAXPROCS=1", w, f, f0)
		}
	}
}
