package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/team"
	"qcdoc/internal/telemetry"
)

// chaosSoakSeed and chaosExhaustSeed are fault seeds chosen (and pinned
// by the assertions below) so the compound scenarios actually exercise
// the ladder: the soak seed corrupts the generation the second recovery
// wants, forcing a fallback; the exhaust seed's recovery crash lands on
// the last surviving board.
const (
	chaosSoakSeed    = 1
	chaosExhaustSeed = 16
)

// The outcome digests of the pinned chaos runs, as `qcdoc fleet
// -machine 2,2,2 -faultseeds N` (-storm for soak) prints them; the
// partition run has no command line. A digest folds in every detection
// time, rung time and attempt end time, so it moves if any heartbeat,
// watchdog, RPC retry or recovery-ladder timing moves.
const (
	chaosNodeDeathDigest   = 0xbe631344be792224 // canonical, fault seed 16
	chaosMassZeroDigest    = 0xac5849fe7d53733b // canonical at mass 0, fault seed 16
	chaosSoakDigest        = 0xdc80a5c048e80e14 // soak, fault seed 1
	chaosPartitionDigest   = 0xd931036864861461 // 2x2, fault seed 16, one recovery crash
	chaosCheckpointDigest  = 0x9531aa4827964dff // soak, fault seed 23
	chaosCheckpointExhaust = 23
)

// TestChaosWilsonSurvivesNodeDeath drives the full recovery loop:
// inject -> detect -> isolate -> restore -> converge, twice, and pins
// bit-identical outcome digests (recovery-event timing included).
func TestChaosWilsonSurvivesNodeDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	run := func() *ChaosOutcome {
		out, err := RunChaosWilson(CanonicalChaos(16))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	o1 := run()
	o2 := run()

	if !o1.Converged {
		t.Fatal("chaos run did not converge")
	}
	if len(o1.Attempts) < 2 {
		t.Fatalf("%d attempts, want a restart", len(o1.Attempts))
	}
	first, last := o1.Attempts[0], o1.Attempts[len(o1.Attempts)-1]
	if !first.Aborted {
		t.Fatalf("first attempt not aborted: %s", first)
	}
	if first.Failure.DetectLatency <= 0 {
		t.Fatalf("no detection latency recorded: %+v", first.Failure)
	}
	if last.Nodes >= first.Nodes {
		t.Fatalf("no repartition: %d -> %d nodes", first.Nodes, last.Nodes)
	}
	if last.RestoredIter <= 0 {
		t.Fatalf("restart did not restore a checkpoint: %s", last)
	}
	if !last.Converged {
		t.Fatalf("final attempt did not converge: %s", last)
	}
	if o1.Digest != o2.Digest {
		t.Fatalf("chaos digests diverged: %#x vs %#x\nrun1: %+v\nrun2: %+v",
			o1.Digest, o2.Digest, o1.Attempts, o2.Attempts)
	}
	if o1.SolutionCRC != o2.SolutionCRC {
		t.Fatalf("solution CRCs diverged: %#x vs %#x", o1.SolutionCRC, o2.SolutionCRC)
	}
	if o1.Digest != chaosNodeDeathDigest {
		t.Fatalf("outcome digest %#x, want %#x", o1.Digest, uint64(chaosNodeDeathDigest))
	}
}

// A clean plan (no faults) must converge in one attempt — the chaos
// harness itself adds no failure modes.
func TestChaosWilsonNoFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	cfg := CanonicalChaos(1)
	cfg.Spec = faultplan.Spec{}
	out, err := RunChaosWilson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Attempts) != 1 || !out.Converged || out.Attempts[0].Aborted {
		t.Fatalf("clean run: %+v", out.Attempts)
	}
}

// A chaos run takes its mass literally, as a solve does: mass 0 is a
// different problem from the canonical mass 0.5, so it must recover and
// converge on its own pinned digest, not reproduce the canonical one.
func TestChaosTakesMassLiterally(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	cfg := CanonicalChaos(16)
	cfg.Mass = 0
	out, err := RunChaosWilson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatalf("mass 0 did not converge: %+v", out.Attempts)
	}
	if out.Digest != chaosMassZeroDigest {
		t.Fatalf("mass 0 outcome digest %#x, want %#x (mass 0.5 gives %#x)",
			out.Digest, uint64(chaosMassZeroDigest), uint64(chaosNodeDeathDigest))
	}
}

func hasRung(out *ChaosOutcome, kind RungKind) bool {
	for _, r := range out.Rungs {
		if r.Kind == kind {
			return true
		}
	}
	return false
}

// The supervisor's restore ladder, unit-tested against a fabricated
// host FS: newest generation first, chunk retries then generation
// fallback on corruption, typed exhaustion when every generation is
// bad, cold start only when nothing was ever sealed.
func TestSupervisorRestoreLadder(t *testing.T) {
	global := lattice.Shape4{4, 2, 2, 2}
	sh := geom.MakeShape(2)
	lay, err := NewLayout(sh, global)
	if err != nil {
		t.Fatal(err)
	}
	src := lattice.NewFermionField(global)
	src.Gaussian(3)
	fs := map[string][]byte{}
	writeGen := func(attempt, iter int) {
		for rank := 0; rank < sh.Volume(); rank++ {
			gc := GridCoord(lay.Fold.ToLogical(sh.CoordOf(rank)))
			local := ScatterFermion(src, lay.Dec, gc)
			var buf bytes.Buffer
			if err := checkpoint.WriteSolverState(&buf, local, uint32(iter)); err != nil {
				t.Fatal(err)
			}
			fs[chunkName(attempt, iter, rank)] = buf.Bytes()
		}
	}
	logf := func(string, ...any) {}
	past := []attemptLayout{{shape: sh, lay: lay}}
	restore := func(sup *supervisor) (int, error) {
		var iter int
		var rerr error
		eng := event.New()
		sup.beginAttempt(telemetry.New())
		eng.Spawn("restore", func(p *event.Proc) {
			_, iter, rerr = sup.restore(p, 1, past)
		})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		eng.Shutdown()
		return iter, rerr
	}

	// Two clean generations: restore picks the newest.
	writeGen(0, 10)
	writeGen(0, 20)
	sup := newSupervisor(fs, global, logf)
	iter, rerr := restore(sup)
	if rerr != nil || iter != 20 {
		t.Fatalf("clean restore: iter %d err %v, want 20", iter, rerr)
	}
	if len(sup.rungs) != 0 {
		t.Fatalf("clean restore climbed rungs: %v", sup.rungs)
	}

	// Corrupt the newest generation after sealing: the manifest CRC
	// convicts it, retries burn out, restore falls back one generation.
	fs[chunkName(0, 20, 0)][100] ^= 0x04
	iter, rerr = restore(sup)
	if rerr != nil || iter != 10 {
		t.Fatalf("fallback restore: iter %d err %v, want 10", iter, rerr)
	}
	if sup.stats.ChunkRetries == 0 || sup.stats.GenerationFallbacks != 1 {
		t.Fatalf("ladder stats %+v, want retries and exactly one fallback", sup.stats)
	}
	hasRetry, hasFallback := false, false
	for _, r := range sup.rungs {
		hasRetry = hasRetry || r.Kind == RungChunkRetry
		hasFallback = hasFallback || r.Kind == RungGenerationFallback
	}
	if !hasRetry || !hasFallback {
		t.Fatalf("rungs %v, want chunk-retry and generation-fallback", sup.rungs)
	}

	// Tear the older generation too: every retained generation is bad
	// and the ladder ends in the typed error, not a silent cold start.
	fs[chunkName(0, 10, 1)] = fs[chunkName(0, 10, 1)][:13]
	if _, rerr = restore(sup); !errors.Is(rerr, ErrCheckpointUnrecoverable) {
		t.Fatalf("exhausted ladder returned %v, want ErrCheckpointUnrecoverable", rerr)
	}

	// Nothing ever sealed: cold start at iteration 0 is the legal floor.
	cold := newSupervisor(map[string][]byte{}, global, logf)
	iter, rerr = restore(cold)
	if rerr != nil || iter != 0 {
		t.Fatalf("cold start: iter %d err %v", iter, rerr)
	}
	if !hasRung(&ChaosOutcome{Rungs: cold.rungs}, RungColdStart) {
		t.Fatalf("cold start not recorded: %v", cold.rungs)
	}
}

// TestChunkNameRoundTrip: parseChunk inverts chunkName at any width of
// the iteration (six digits padded, seven and more as they come), the
// names keep their stored form, and the manifest and other names are
// not chunks; newestChunk and iterationsOf see an iteration past
// 999 999.
func TestChunkNameRoundTrip(t *testing.T) {
	for _, c := range []struct {
		a, i, r int
		name    string
	}{
		{0, 0, 0, "ckpt/chaos/a0/i000000/r0"},
		{0, 20, 1, "ckpt/chaos/a0/i000020/r1"},
		{2, 99999, 15, "ckpt/chaos/a2/i099999/r15"},
		{3, 999999, 7, "ckpt/chaos/a3/i999999/r7"},
		{12, 1234567, 4095, "ckpt/chaos/a12/i1234567/r4095"},
	} {
		if got := chunkName(c.a, c.i, c.r); got != c.name {
			t.Errorf("chunkName(%d, %d, %d) = %q, want %q", c.a, c.i, c.r, got, c.name)
		}
		if a, i, r, ok := parseChunk(c.name); !ok || a != c.a || i != c.i || r != c.r {
			t.Errorf("parseChunk(%q) = %d, %d, %d, %v", c.name, a, i, r, ok)
		}
	}
	for _, name := range []string{manifestName, "ckpt/chaos/a1/i000001", "ckpt/chaos/ax/i000001/r0", "ckpt/chaos/a1/i00000y/r0", "ckpt/chaos/a1/i000001/r", "out/a1/i000001/r0"} {
		if _, _, _, ok := parseChunk(name); ok {
			t.Errorf("parseChunk(%q) accepted a name chunkName does not write", name)
		}
	}
	fs := map[string][]byte{
		manifestName:             {1},
		chunkName(1, 999999, 0):  {2},
		chunkName(1, 1000000, 0): {3},
		chunkName(1, 1000000, 1): {4},
	}
	if got := newestChunk(fs, 0); got != chunkName(1, 1000000, 0) {
		t.Errorf("newestChunk = %q, want the 7-digit iteration", got)
	}
	if got := iterationsOf(fs, 1); !slices.Equal(got, []int{999999, 1000000}) {
		t.Errorf("iterationsOf = %v, want 999999 and 1000000", got)
	}
}

// The host-plane fault surface: chunk strikes hit the newest chunk of
// the victim rank, misses report false.
func TestChaosHostChunkFaults(t *testing.T) {
	fs := map[string][]byte{
		chunkName(0, 10, 0): bytes.Repeat([]byte{0xAA}, 64),
		chunkName(0, 20, 0): bytes.Repeat([]byte{0xBB}, 64),
		chunkName(1, 5, 1):  bytes.Repeat([]byte{0xCC}, 64),
	}
	h := &chaosHost{fs: fs}
	if got := newestChunk(fs, 0); got != chunkName(0, 20, 0) {
		t.Fatalf("newest chunk of rank 0: %q", got)
	}
	if got := newestChunk(fs, 1); got != chunkName(1, 5, 1) {
		t.Fatalf("newest chunk of rank 1: %q", got)
	}
	if !h.CorruptChunk(0, 77) {
		t.Fatal("corrupt strike missed an existing chunk")
	}
	if bytes.Equal(fs[chunkName(0, 20, 0)], bytes.Repeat([]byte{0xBB}, 64)) {
		t.Fatal("corrupt strike left the newest chunk untouched")
	}
	if len(fs[chunkName(0, 20, 0)]) != 64 {
		t.Fatal("corrupt strike changed the chunk length")
	}
	if !h.TearChunk(1, 200) {
		t.Fatal("tear strike missed an existing chunk")
	}
	if n := len(fs[chunkName(1, 5, 1)]); n >= 64 || n < 1 {
		t.Fatalf("torn chunk length %d, want in [1,63]", n)
	}
	if h.CorruptChunk(5, 1) || h.TearChunk(5, 1) {
		t.Fatal("strike on a rank with no chunks reported a hit")
	}
}

// The compound soak scenario: first-order death, storage corruption,
// a spurious death report, and a second death during recovery. The run
// must survive by climbing the ladder — and two runs must agree on every
// rung to the picosecond.
func TestChaosSoakCompound(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak run")
	}
	run := func() *ChaosOutcome {
		out, err := RunChaosWilson(CanonicalChaos(chaosSoakSeed).Soak())
		if err != nil {
			t.Fatalf("%v\nrungs: %v", err, out.Rungs)
		}
		return out
	}
	o1 := run()
	o2 := run()

	if !o1.Converged {
		t.Fatal("soak run did not converge")
	}
	if len(o1.Attempts) < 3 {
		t.Fatalf("%d attempts, want at least 3 (two deaths)", len(o1.Attempts))
	}
	first, last := o1.Attempts[0], o1.Attempts[len(o1.Attempts)-1]
	if last.Nodes >= first.Nodes/2 {
		t.Fatalf("no cumulative shrink: %d -> %d nodes", first.Nodes, last.Nodes)
	}
	if !hasRung(o1, RungRepartition) {
		t.Fatalf("no repartition rung: %v", o1.Rungs)
	}
	if !hasRung(o1, RungGenerationFallback) {
		t.Fatalf("no generation fallback climbed: %v", o1.Rungs)
	}
	if !hasRung(o1, RungFalsePositive) {
		t.Fatalf("no false positive rejected: %v", o1.Rungs)
	}
	if o1.Digest != o2.Digest {
		t.Fatalf("soak digests diverged across runs: %#x vs %#x", o1.Digest, o2.Digest)
	}
	if o1.Digest != chaosSoakDigest {
		t.Fatalf("soak digest %#x, want %#x", o1.Digest, uint64(chaosSoakDigest))
	}

	// A fully observed run must surface the supervisor's ladder
	// histograms in the merged telemetry — and must not perturb the
	// digest by a bit (the zero-perturbation contract, DESIGN.md §10).
	cfgT := CanonicalChaos(chaosSoakSeed).Soak()
	cfgT.Telemetry = true
	oT, err := RunChaosWilson(cfgT)
	if err != nil {
		t.Fatal(err)
	}
	if oT.Digest != o1.Digest {
		t.Fatalf("telemetry perturbed the soak digest: dark %#x vs observed %#x", o1.Digest, oT.Digest)
	}
	if h, ok := oT.Hists["recovery/backoff_wait_ps"]; !ok || h.Count == 0 {
		t.Fatalf("no backoff waits in merged telemetry: %v", oT.Hists["recovery/backoff_wait_ps"])
	}
	if h, ok := oT.Hists["recovery/generation_fallback_depth"]; !ok || h.Count == 0 {
		t.Fatalf("no fallback depths in merged telemetry: %v", oT.Hists["recovery/generation_fallback_depth"])
	}
}

// Exhausting the partition: a 4-node machine loses a board, recovers on
// 2 nodes, loses the last board to a recovery crash — the ladder ends
// in ErrPartitionExhausted, typed, deterministic, never a hang.
func TestChaosPartitionExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	run := func() (*ChaosOutcome, error) {
		cfg := CanonicalChaos(chaosExhaustSeed)
		cfg.Shape = geom.MakeShape(2, 2)
		cfg.MaxAttempts = 6
		cfg.Spec.RecoveryCrashes = 1
		return RunChaosWilson(cfg)
	}
	o1, err1 := run()
	o2, err2 := run()
	if !errors.Is(err1, ErrPartitionExhausted) {
		t.Fatalf("exhausted run returned %v, want ErrPartitionExhausted\nrungs: %v", err1, o1.Rungs)
	}
	if o1.Converged {
		t.Fatal("exhausted run claims convergence")
	}
	if n := len(o1.Attempts); n < 2 {
		t.Fatalf("%d attempts before exhaustion, want at least 2", n)
	}
	if o1.Digest == 0 || o1.Digest != o2.Digest {
		t.Fatalf("failing runs must stay deterministic: %#x vs %#x (err2 %v)", o1.Digest, o2.Digest, err2)
	}
	if o1.Digest != chaosPartitionDigest {
		t.Fatalf("exhausted run digest %#x, want %#x", o1.Digest, uint64(chaosPartitionDigest))
	}
}

// Exhausting the checkpoint generations: under the soak preset, fault
// seed 23 corrupts and tears every retained generation the recovery
// wants, so the ladder ends in ErrCheckpointUnrecoverable — typed, at a
// pinned digest that the generation count and the chunk-retry backoff
// decide.
func TestChaosCheckpointExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak run")
	}
	out, err := RunChaosWilson(CanonicalChaos(chaosCheckpointExhaust).Soak())
	if !errors.Is(err, ErrCheckpointUnrecoverable) {
		t.Fatalf("exhausted run returned %v, want ErrCheckpointUnrecoverable\nrungs: %v", err, out.Rungs)
	}
	if out.Converged {
		t.Fatal("exhausted run claims convergence")
	}
	if out.Digest != chaosCheckpointDigest {
		t.Fatalf("exhausted run digest %#x, want %#x", out.Digest, uint64(chaosCheckpointDigest))
	}
}

// TestChaosKillReleasesTeams: a chaos run whose ranks fork every site
// loop (2048 sites each) loses its victim mid-solve — the kill lands at
// a blocking call between two forked kernels — and the survivors to the
// attempt's shutdown. Both unwinds run the rank program's deferred
// Close, so when the run returns no team helper is left.
func TestChaosKillReleasesTeams(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	before := runtime.NumGoroutine()
	cfg := CanonicalChaos(16)
	cfg.Shape, cfg.Global, cfg.Tol = geom.MakeShape(2, 2), lattice.Shape4{16, 16, 8, 4}, 1e-4
	// An iteration of this volume is ~25 ms of simulated time: let a few
	// complete, each checkpointed, before the faults.
	cfg.CheckpointEvery = 1
	cfg.Spec.From, cfg.Spec.To = 200*event.Millisecond, 250*event.Millisecond
	if v := cfg.Global.Volume() / 4; v < 2*team.Grain {
		t.Fatalf("local volume %d does not fork", v)
	}
	out, err := RunChaosWilson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A restored iterate means the victim was iterating, forked, when it
	// died.
	if !out.Converged || len(out.Attempts) < 2 || !out.Attempts[0].Aborted || out.Attempts[1].RestoredIter == 0 {
		t.Fatalf("no rank was killed mid-solve: %+v", out.Attempts)
	}
	// Exited goroutines leave the count a beat after their last
	// handshake; yield until the runtime has retired them.
	for i := 0; i < 1e6 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the chaos run, %d before", n, before)
	}
}
