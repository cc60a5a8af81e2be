package fleet_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// solveBase is a small, fast solve spec: a 4-node machine and a 4^4
// lattice converge in well under a second of host time.
func solveBase() fleet.Spec {
	return fleet.Spec{
		Machine: geom.MakeShape(2, 2),
		Global:  lattice.Shape4{4, 4, 4, 4},
		Op:      fermion.WilsonKind,
		Mass:    0.5,
		Tol:     1e-4,
		MaxIter: 100,
		Seed:    1,
	}
}

// chaosBase mirrors `qcdoc fleet -machine 2,2 -faultseeds ...` (the
// canonical chaos scenario on four nodes) so fleet digests are
// comparable to CLI runs of the same seeds.
func chaosBase() fleet.Spec {
	return fleet.Spec{
		Machine:         geom.MakeShape(2, 2),
		Global:          lattice.Shape4{4, 4, 4, 4},
		Mass:            0.5,
		Tol:             1e-8,
		MaxIter:         400,
		Seed:            4001,
		Chaos:           true,
		CheckpointEvery: 10,
		Faults: faultplan.Spec{
			From:        2 * event.Millisecond,
			To:          10 * event.Millisecond,
			NodeCrashes: 1,
			NetDrops:    2,
			NetDups:     1,
			LinkBursts:  1,
		},
	}
}

func requireSameDigests(t *testing.T, serial, conc []fleet.Result) {
	t.Helper()
	if len(serial) != len(conc) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(conc))
	}
	for i := range serial {
		if serial[i].Err != nil || conc[i].Err != nil {
			t.Fatalf("run %q failed: serial %v, concurrent %v", serial[i].Name, serial[i].Err, conc[i].Err)
		}
		if serial[i].Digest != conc[i].Digest {
			t.Errorf("run %q: serial digest %#x != concurrent digest %#x",
				serial[i].Name, serial[i].Digest, conc[i].Digest)
		}
	}
	if fleet.Digest(serial) != fleet.Digest(conc) {
		t.Errorf("campaign digests differ: %#x vs %#x", fleet.Digest(serial), fleet.Digest(conc))
	}
}

// TestFleetSolveSerialVsConcurrent sweeps (lattice × operator) and
// requires every run's digest to be identical whether the campaign
// executes serially or over 8 workers sharing one pool — the substrate
// contract: concurrent machines cannot observe each other.
func TestFleetSolveSerialVsConcurrent(t *testing.T) {
	specs := fleet.Sweep(solveBase(),
		[]lattice.Shape4{{4, 4, 4, 4}, {4, 4, 4, 8}},
		[]fermion.OpKind{fermion.WilsonKind, fermion.CloverKind},
		nil)
	if len(specs) != 4 {
		t.Fatalf("sweep produced %d specs, want 4", len(specs))
	}
	serial := fleet.Run(fleet.Config{Workers: 1, Pool: machine.NewPool()}, specs)
	conc := fleet.Run(fleet.Config{Workers: 8, Pool: machine.NewPool()}, specs)
	requireSameDigests(t, serial, conc)

	// A one-spec campaign is a single solve: its Metrics must be exactly
	// what the same solve reports when driven on a Session directly.
	for _, op := range []fermion.OpKind{fermion.WilsonKind, fermion.CloverKind, fermion.AsqtadKind, fermion.DWFKind} {
		s := solveBase()
		s.Op, s.Ls = op, 4
		if op == fermion.AsqtadKind {
			s.Global = lattice.Shape4{6, 6, 4, 4} // the Naik hop reaches 3 sites
		}
		r := fleet.Run(fleet.Config{}, []fleet.Spec{s})[0]
		if r.Err != nil {
			t.Fatalf("%v: %v", op, r.Err)
		}
		if want := directSolve(t, s); r.Metrics != want {
			t.Errorf("%v: campaign metrics %+v, direct solve %+v", op, r.Metrics, want)
		}
	}
}

// directSolve runs s on a Session of its own, with the fields and seeds
// a fleet solve run uses, and returns the solve's metrics.
func directSolve(t *testing.T, s fleet.Spec) core.SolveMetrics {
	t.Helper()
	sess, err := core.NewSession(s.Machine, s.Global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	gauge := lattice.NewGaugeField(s.Global)
	gauge.Randomize(s.Seed)
	var met core.SolveMetrics
	switch s.Op {
	case fermion.WilsonKind:
		b := lattice.NewFermionField(s.Global)
		b.Gaussian(s.Seed + 1)
		_, met, err = sess.SolveWilson(gauge, b, s.Mass, fermion.Double, s.Tol, s.MaxIter)
	case fermion.CloverKind:
		b := lattice.NewFermionField(s.Global)
		b.Gaussian(s.Seed + 1)
		_, met, err = sess.SolveClover(fermion.NewClover(gauge, s.Mass, 1.0), b, fermion.Double, s.Tol, s.MaxIter)
	case fermion.AsqtadKind:
		b := lattice.NewColorField(s.Global)
		b.Gaussian(s.Seed + 1)
		_, met, err = sess.SolveASQTAD(fermion.NewASQTAD(gauge, s.Mass), b, fermion.Double, s.Tol, s.MaxIter)
	case fermion.DWFKind:
		b := fermion.NewField5(s.Global, s.Ls)
		b.Gaussian(s.Seed + 1)
		_, met, err = sess.SolveDWF(gauge, b, 1.8, s.Mass, s.Ls, fermion.Double, s.Tol, s.MaxIter)
	}
	if err != nil {
		t.Fatal(err)
	}
	return met
}

// TestFleetChaosMatchesFreshProcess runs a chaos fleet concurrently
// with a shared pool and requires each run's outcome digest to equal
// the digest the same seed produces through core.RunChaosWilson alone
// on unpooled storage — i.e. exactly what a fresh process would print.
// A campaign with a Log writes each chaos run's narrative byte for byte
// as the direct run writes it, followed by the run's result line, and
// never interleaves two runs' narratives.
func TestFleetChaosMatchesFreshProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleet is seconds-long")
	}
	seeds := []uint64{7, 8, 9, 10}
	specs := fleet.Sweep(chaosBase(), nil, nil, seeds)
	conc := fleet.Run(fleet.Config{Workers: 4, Pool: machine.NewPool()}, specs)
	blocks := make([]string, len(seeds)) // each run's narrative and result line
	for i, seed := range seeds {
		if conc[i].Err != nil {
			t.Fatalf("fleet run fseed=%d: %v", seed, conc[i].Err)
		}
		base := chaosBase()
		var narrative bytes.Buffer
		out, err := core.RunChaosWilson(core.ChaosConfig{
			Shape:           base.Machine,
			Global:          base.Global,
			Seed:            base.Seed,
			FaultSeed:       seed,
			Mass:            base.Mass,
			Tol:             base.Tol,
			MaxIter:         base.MaxIter,
			CheckpointEvery: base.CheckpointEvery,
			Spec:            base.Faults,
			Log:             &narrative,
		})
		if err != nil {
			t.Fatalf("standalone run fseed=%d: %v", seed, err)
		}
		if out.Digest != conc[i].Digest {
			t.Errorf("fseed=%d: standalone digest %#x != fleet digest %#x",
				seed, out.Digest, conc[i].Digest)
		}

		var log bytes.Buffer
		r := fleet.Run(fleet.Config{Log: &log}, specs[i:i+1])[0]
		if r.Digest != out.Digest {
			t.Errorf("fseed=%d: logged campaign digest %#x != standalone digest %#x", seed, r.Digest, out.Digest)
		}
		blocks[i] = narrative.String() + r.String() + "\n"
		if log.String() != blocks[i] {
			t.Errorf("fseed=%d: campaign log differs from the direct run's narrative:\n%s", seed, lineDiff(blocks[i], log.String()))
		}
	}

	var log bytes.Buffer
	rs := fleet.Run(fleet.Config{Workers: 2, Log: &log}, specs[:2])
	requireSameDigests(t, conc[:2], rs)
	if got := log.String(); got != blocks[0]+blocks[1] && got != blocks[1]+blocks[0] {
		t.Errorf("two-run campaign log is not the two narratives one after the other:\n%s", got)
	}
}

// TestFleetRejectsBadSpecs: a spec the simulator cannot run fails with a
// typed error in its own result — a DWF solve at Ls 0, a chaos run asked
// for a non-Wilson operator — and leaves the other runs of the campaign
// bit for bit as they are alone.
func TestFleetRejectsBadSpecs(t *testing.T) {
	good := solveBase()
	alone := fleet.Run(fleet.Config{}, []fleet.Spec{good})[0]
	if alone.Err != nil {
		t.Fatal(alone.Err)
	}

	dwf := solveBase()
	dwf.Op, dwf.Ls = fermion.DWFKind, 0
	chaos := chaosBase()
	chaos.Op = fermion.CloverKind
	rs := fleet.Run(fleet.Config{Workers: 3}, []fleet.Spec{good, dwf, chaos})
	if rs[0].Err != nil || rs[0].Digest != alone.Digest {
		t.Fatalf("valid run beside bad ones: digest %#x err %v, alone %#x", rs[0].Digest, rs[0].Err, alone.Digest)
	}
	if !errors.Is(rs[1].Err, core.ErrSolveParams) {
		t.Errorf("DWF at Ls 0: %v, want ErrSolveParams", rs[1].Err)
	}
	if !errors.Is(rs[2].Err, fleet.ErrChaosOp) {
		t.Errorf("clover chaos spec: %v, want ErrChaosOp", rs[2].Err)
	}
	for _, r := range rs[1:] {
		if !strings.Contains(r.String(), fmt.Sprintf("digest %#x", r.Digest)) {
			t.Errorf("failed run's line drops its digest: %q", r)
		}
	}
}

// TestFleetRefusesSolverParams: a solve and a chaos run check the same
// solver parameters before anything runs. A tolerance that is not
// positive, an iteration limit below one or a mass that is not finite
// fails with ErrSolveParams after 0 iterations, and a chaos run never
// starts an attempt.
func TestFleetRefusesSolverParams(t *testing.T) {
	bad := []struct {
		name string
		set  func(*fleet.Spec)
	}{
		{"tol -1", func(s *fleet.Spec) { s.Tol = -1 }},
		{"tol 0", func(s *fleet.Spec) { s.Tol = 0 }},
		{"tol NaN", func(s *fleet.Spec) { s.Tol = math.NaN() }},
		{"maxiter -1", func(s *fleet.Spec) { s.MaxIter = -1 }},
		{"maxiter 0", func(s *fleet.Spec) { s.MaxIter = 0 }},
		{"mass NaN", func(s *fleet.Spec) { s.Mass = math.NaN() }},
		{"mass +Inf", func(s *fleet.Spec) { s.Mass = math.Inf(1) }},
	}
	var specs []fleet.Spec
	for _, base := range []func() fleet.Spec{solveBase, chaosBase} {
		for _, b := range bad {
			s := base()
			b.set(&s)
			s.Name = b.name
			specs = append(specs, s)
		}
	}
	for i, r := range fleet.Run(fleet.Config{Workers: 2}, specs) {
		kind := "solve"
		if specs[i].Chaos {
			kind = "chaos"
		}
		if !errors.Is(r.Err, core.ErrSolveParams) || r.Iterations != 0 || r.Attempts != 0 {
			t.Errorf("%s %s: err %v after %d iterations in %d attempts, want ErrSolveParams, 0 and 0",
				kind, r.Name, r.Err, r.Iterations, r.Attempts)
		}
	}
}

// TestFleet32MachinesLifecycleHygiene is the lifecycle gate: build,
// boot, solve, and Close 32 machines concurrently (under -race in
// `make check`), then assert zero leaked goroutines, zero leaked
// timers, and per-run digests bit-identical to the same 32 run
// serially.
func TestFleet32MachinesLifecycleHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("32-machine fleet is seconds-long")
	}
	specs := make([]fleet.Spec, 32)
	for i := range specs {
		s := solveBase()
		s.Seed = uint64(i + 1) // 32 distinct problems, one machine each
		if i == 31 {
			// This machine's ranks hold 2048 sites each, so their site
			// loops fork: the team helpers must be gone with the rest.
			s.Global = lattice.Shape4{16, 16, 8, 4}
		}
		s.Name = fleet.Sweep(s, nil, nil, nil)[0].Name
		specs[i] = s
	}

	serial := fleet.Run(fleet.Config{Workers: 1, Pool: machine.NewPool()}, specs)

	before := runtime.NumGoroutine()
	pool := machine.NewPool()
	// The concurrent leg runs fully observed (telemetry + per-run flight
	// recorders): the digests must still match the dark serial leg, and
	// teardown must reclaim everything — including registry sources.
	conc := fleet.Run(fleet.Config{Workers: 8, Pool: pool, Observe: true}, specs)
	requireSameDigests(t, serial, conc)
	for i := range conc {
		if len(conc[i].Hists) == 0 || conc[i].Trace == nil {
			t.Fatalf("run %q observed nothing: %d hists, trace %v",
				conc[i].Name, len(conc[i].Hists), conc[i].Trace)
		}
	}

	// Zero leaked timers: everything reclaimed into the pool is empty.
	// (Engine shutdown unwinds synchronously, so a leak would show up
	// here deterministically, not as a flake.)
	st := pool.Stats()
	if st.StorageIdle == 0 {
		t.Fatalf("no storages reclaimed: pool stats %+v", st)
	}
	if st.PendingEvents != 0 {
		t.Fatalf("%d events still queued in reclaimed storage — leaked timers", st.PendingEvents)
	}
	if st.StorageReused == 0 || st.RingsReused == 0 {
		t.Errorf("pool never recycled (storage reused %d, rings reused %d) — fleet is thrashing the allocator",
			st.StorageReused, st.RingsReused)
	}

	// Zero leaked goroutines: the worker pool and every machine are
	// gone. Give the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before fleet, %d after", before, after)
	}
}

// TestFleetObserveZeroPerturbation is the campaign-level zero-
// perturbation gate: the same specs run dark and fully observed
// (telemetry, link histograms, flight recorders) must produce
// bit-identical per-run digests — for solve and chaos runs alike —
// while the observed leg actually collects distributions.
func TestFleetObserveZeroPerturbation(t *testing.T) {
	specs := fleet.Sweep(solveBase(),
		[]lattice.Shape4{{4, 4, 4, 4}},
		[]fermion.OpKind{fermion.WilsonKind, fermion.CloverKind},
		nil)
	specs = append(specs, fleet.Sweep(chaosBase(), nil, nil, []uint64{16})...)

	dark := fleet.Run(fleet.Config{Workers: 2, Pool: machine.NewPool()}, specs)
	seen := 0
	observed := fleet.Run(fleet.Config{
		Workers: 2, Pool: machine.NewPool(),
		Observe:  true,
		OnResult: func(i int, r fleet.Result) { seen++ },
	}, specs)
	requireSameDigests(t, dark, observed)
	if seen != len(specs) {
		t.Fatalf("OnResult fired %d times, want %d", seen, len(specs))
	}

	// The telemetry snapshot is an output too: a second observed
	// campaign on other workers and a fresh pool must render every
	// run's snapshot byte for byte as the first did. Nothing is left out.
	again := fleet.Run(fleet.Config{
		Workers: 3, Pool: machine.NewPool(),
		Observe: true,
	}, specs)
	requireSameDigests(t, observed, again)
	format := func(r fleet.Result) string {
		s := r.Snap
		s.Histograms = r.Hists // a chaos run carries its histograms only
		return s.Format()
	}
	for i := range observed {
		if a, b := format(observed[i]), format(again[i]); a != b {
			t.Errorf("run %q: telemetry snapshot differs between campaigns:\n%s", observed[i].Name, lineDiff(a, b))
		}
	}

	for i, r := range observed {
		if len(r.Hists) == 0 {
			t.Fatalf("observed run %q collected no histograms", r.Name)
		}
		if h, ok := r.Hists["machine/gsum_rtt_ps"]; !ok || h.Count == 0 {
			t.Fatalf("run %q: gsum_rtt_ps %+v", r.Name, h)
		}
		if specs[i].Chaos {
			if r.Trace != nil {
				t.Fatalf("chaos run %q has a trace (machines are per-attempt)", r.Name)
			}
			if h, ok := r.Hists["qdaemon/watchdog_detect_ps"]; !ok || h.Count == 0 {
				t.Fatalf("chaos run %q: watchdog_detect_ps %+v", r.Name, h)
			}
			if h, ok := r.Hists["machine/ckpt_chunk_write_ps"]; !ok || h.Count == 0 {
				t.Fatalf("chaos run %q: ckpt_chunk_write_ps %+v", r.Name, h)
			}
		} else {
			var doc strings.Builder
			if r.Trace == nil || event.WriteChromeTraceMerged(&doc, []*event.Recorder{r.Trace}, 0) != nil ||
				!strings.Contains(doc.String(), fmt.Sprintf(`"pid":%d,`, i)) {
				t.Fatalf("solve run %q: no trace under pid %d", r.Name, i)
			}
			if len(r.Snap.Counters) == 0 {
				t.Fatalf("solve run %q: empty snapshot", r.Name)
			}
			if h, ok := r.Hists["machine/cg_iter_ps"]; !ok || h.Count == 0 {
				t.Fatalf("solve run %q: cg_iter_ps %+v", r.Name, h)
			}
		}
	}
	// The dark leg carries no observability sidecar at all.
	for _, r := range dark {
		if r.Hists != nil || r.Trace != nil || r.Snap.Counters != nil {
			t.Fatalf("dark run %q leaked observability: %+v", r.Name, r)
		}
	}

	// Campaign aggregate: counts sum over runs, max is the global max.
	agg := fleet.Aggregate(observed)
	var count, max uint64
	for _, r := range observed {
		count += r.Hists["machine/gsum_rtt_ps"].Count
		if m := r.Hists["machine/gsum_rtt_ps"].Max; m > max {
			max = m
		}
	}
	if a := agg["machine/gsum_rtt_ps"]; a.Count != count || a.Max != max {
		t.Fatalf("aggregate %+v, want count %d max %d", a, count, max)
	}
}

// TestFleetMergedTraceByteStable pins the fleet Chrome-trace export:
// two identical observed campaigns must render byte-identical merged
// trace documents, with events namespaced by per-run pids.
func TestFleetMergedTraceByteStable(t *testing.T) {
	specs := fleet.Sweep(solveBase(),
		[]lattice.Shape4{{4, 4, 4, 4}, {4, 4, 4, 8}},
		nil, nil)
	export := func() string {
		rs := fleet.Run(fleet.Config{
			Workers: 2, Pool: machine.NewPool(), Observe: true,
		}, specs)
		var recs []*event.Recorder
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("run %q: %v", r.Name, r.Err)
			}
			recs = append(recs, r.Trace)
		}
		var sb strings.Builder
		if err := event.WriteChromeTraceMerged(&sb, recs, 0); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	doc := export()
	if doc2 := export(); doc != doc2 {
		t.Fatal("two identical campaigns exported different merged traces")
	}
	for _, want := range []string{`"pid":0`, `"pid":1`, `"name":"gsum"`, `"cat":"flow"`} {
		if !strings.Contains(doc, want) {
			t.Fatalf("merged trace missing %s", want)
		}
	}
}

// TestSweepCrossProduct pins the sweep expansion order (lattice-major,
// then operator, then fault seed) — campaign digests depend on it.
func TestSweepCrossProduct(t *testing.T) {
	base := chaosBase()
	specs := fleet.Sweep(base,
		[]lattice.Shape4{{4, 4, 4, 4}, {4, 4, 4, 8}},
		nil,
		[]uint64{16, 23})
	want := []string{
		"wilson 4x4x4x4 fseed=16",
		"wilson 4x4x4x4 fseed=23",
		"wilson 4x4x4x8 fseed=16",
		"wilson 4x4x4x8 fseed=23",
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Errorf("spec %d name %q, want %q", i, s.Name, want[i])
		}
	}
}

// lineDiff lists the lines of a and b that the other lacks.
func lineDiff(a, b string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	ina, inb := in(a), in(b)
	var out strings.Builder
	for _, l := range strings.Split(a, "\n") {
		if !inb[l] {
			out.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(b, "\n") {
		if !ina[l] {
			out.WriteString("+ " + l + "\n")
		}
	}
	return out.String()
}

// fleetMallocCeiling bounds the heap objects one canonical chaos run
// allocates (TestFleetChaosAllocCeiling). Measured at 1.22–1.24 k at
// GOMAXPROCS 1, 2 and 8 and 1.33 k under -race, with the allocation-free
// management network and checkpoint codec, JTAG commands carried as
// values, the SCU's recycled transfer records taken in blocks,
// allocation-free link units, per-machine ring slabs, and one site
// geometry per solve (DESIGN.md §9; 51.7 k, 5.7 k, 3.4 k, 3.2 k, then
// 1.5 k before). The ceiling sits about 25 % above the -race count:
// jitter passes, and a regression to per-packet, per-command,
// per-value, per-transfer or per-rank geometry allocation fails.
const fleetMallocCeiling = 1_650

// TestFleetChaosAllocCeiling runs one canonical chaos spec (2x2
// machine, 4^4 lattice, fault seed 7: boot over the management network,
// checkpoints through the codec and the NFS shim, a crash and the
// recovery ladder) and fails if it allocates more heap objects than
// fleetMallocCeiling.
func TestFleetChaosAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("a chaos run is seconds-long")
	}
	specs := fleet.Sweep(chaosBase(), nil, nil, []uint64{7})
	run := func() {
		if r := fleet.Run(fleet.Config{}, specs)[0]; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	run() // one-time initialisation stays out of the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one chaos run: %d heap objects (ceiling %d)", mallocs, fleetMallocCeiling)
	if mallocs > fleetMallocCeiling {
		t.Errorf("one chaos run allocated %d heap objects, ceiling %d", mallocs, fleetMallocCeiling)
	}
}
