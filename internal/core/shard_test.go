package core

import (
	"hash/fnv"
	"testing"

	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// shardedSolveDigest runs the E1/E10 Wilson solve on a sharded machine
// and fingerprints everything observable: solution bits, network word
// count, iteration count, and the simulated finish time.
func shardedSolveDigest(t *testing.T, workers int) uint64 {
	t.Helper()
	global := lattice.Shape4{4, 4, 2, 2}
	cfg := machine.DefaultConfig(geom.MakeShape(2, 2, 2, 2))
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
	x, met, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-10, 1000)
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
// same seed must produce bit-identical outcomes at workers 1, 2, 4 and
// 8, for both a clean distributed solve (E1/E10) and a full chaos
// recovery run (E16) with the fault plan armed on the sharded engine.
// Workers choose OS threads, never physics. The chaos leg is fault seed
// 23 because its crash victim, node 3, lives off the host shard: under
// -race this is the run that catches an injection, or anything else,
// reaching across a shard boundary without going through the mailboxes.
func TestShardDeterminismDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker digest matrix")
	}
	workerCounts := []int{1, 2, 4, 8}

	s0 := shardedSolveDigest(t, 1)
	for _, w := range workerCounts[1:] {
		if s := shardedSolveDigest(t, w); s != s0 {
			t.Fatalf("solve digest at workers=%d: %#x, want %#x", w, s, s0)
		}
	}

	chaos := func(w int) (uint64, uint32) {
		cfg := CanonicalChaos(23)
		cfg.Shards = machine.ShardAuto
		cfg.Workers = w
		out, err := RunChaosWilson(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged || len(out.Attempts) < 2 {
			t.Fatalf("workers=%d: chaos run %+v", w, out.Attempts)
		}
		return out.Digest, out.SolutionCRC
	}
	d0, c0 := chaos(1)
	for _, w := range workerCounts[1:] {
		d, c := chaos(w)
		if d != d0 {
			t.Fatalf("chaos digest at workers=%d: %#x, want %#x", w, d, d0)
		}
		if c != c0 {
			t.Fatalf("chaos solution CRC at workers=%d: %#x, want %#x", w, c, c0)
		}
	}
}
