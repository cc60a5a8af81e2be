package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/obs"
	"qcdoc/internal/qmp"
	"qcdoc/internal/rng"
	"qcdoc/internal/scu"
	"qcdoc/internal/scupkt"
	"qcdoc/internal/solver"
	"qcdoc/internal/telemetry"
)

// A probe is an isolated timed loop over one layer's public API with a
// fixed iteration count: what the layer costs on its own, to set beside
// the counts the traced workloads report. Probes do not depend on the
// workload or the seed.

// perOp runs fn, which performs n operations, once untimed and then
// reps times, and returns the median host seconds per operation.
func perOp(reps, n int, fn func()) float64 {
	fn()
	times := make([]float64, reps)
	for i := range times {
		start := now()
		fn()
		times[i] = since(start) / float64(n)
	}
	return median(times)
}

// sink keeps the compiler from discarding probe results.
type sink struct {
	u uint64
	f float64
}

const probePending = 4096

// runProbes returns every probe metric. The smoke configuration divides
// the iteration counts and shrinks the lattice.
func runProbes(smoke bool) map[string]float64 {
	m := map[string]float64{}
	scale, lat := 1, lattice.Shape4{8, 8, 8, 8}
	if smoke {
		scale, lat = 32, lattice.Shape4{4, 4, 4, 4}
	}
	var s sink
	probeEvent(scale, m)
	probeWire(scale, m, &s)
	probeArithmetic(scale, lat, m, &s)
	probeMachine(scale, m)
	probeStorage(scale, lat, m, &s)
	if s.u == 0 || s.f == 0 {
		panic("probes: loops produced no result")
	}
	return m
}

// mustRun drains an engine; a probe's event program cannot stall.
func mustRun(eng *event.Engine) {
	if err := eng.RunAll(); err != nil {
		panic(err)
	}
}

type countHandler struct {
	eng    *event.Engine
	left   int
	period event.Time
}

func (h *countHandler) HandleEvent(arg uint64) {
	if h.left > 0 {
		h.left--
		h.eng.AfterHandler(h.period, h, arg)
	}
}

// probeEvent times the scheduler's call forms with probePending events
// queued throughout, so every push and pop sifts a heap of that depth.
func probeEvent(scale int, m map[string]float64) {
	total := 64 * probePending / scale
	period := event.Time(probePending) * event.Nanosecond

	var mallocs uint64
	m["event.probe_dispatch_ns"] = 1e9 * perOp(5, total, func() {
		eng := event.New()
		left := total - probePending
		var step func()
		step = func() {
			if left > 0 {
				left--
				eng.After(period, step)
			}
		}
		for i := 0; i < probePending; i++ {
			eng.At(event.Time(i)*event.Nanosecond, step)
		}
		m0, _ := readMem()
		mustRun(eng)
		m1, _ := readMem()
		mallocs = m1 - m0
		eng.Shutdown()
	})
	m["event.probe_allocs_per_event"] = float64(mallocs) / float64(total)

	m["event.probe_handler_ns"] = 1e9 * perOp(5, total, func() {
		eng := event.New()
		h := &countHandler{eng: eng, left: total - probePending, period: period}
		for i := 0; i < probePending; i++ {
			eng.AtHandler(event.Time(i)*event.Nanosecond, h, uint64(i))
		}
		mustRun(eng)
		eng.Shutdown()
	})

	m["event.probe_timer_ns"] = 1e9 * perOp(5, total, func() {
		eng := event.New()
		left := total - probePending
		timers := make([]*event.Timer, probePending)
		for i := range timers {
			i := i
			timers[i] = eng.NewTimer(func() {
				if left > 0 {
					left--
					timers[i].Arm(period)
				}
			})
			timers[i].ArmAt(event.Time(i) * event.Nanosecond)
		}
		mustRun(eng)
		eng.Shutdown()
	})

	sleeps := 8 * probePending / scale
	m["event.probe_coroutine_ns"] = 1e9 * perOp(5, sleeps, func() {
		eng := event.New()
		eng.Spawn("sleeper", func(p *event.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(event.Nanosecond)
			}
		})
		mustRun(eng)
		eng.Shutdown()
	})
}

// probeWire times the link path bottom up: the packet codec, one HSSL
// wire delivering frames to a handler, and a contiguous DMA between the
// two SCUs of a booted machine.
func probeWire(scale int, m map[string]float64, s *sink) {
	n := 1 << 18 / scale
	m["scupkt.probe_encode_ns"] = 1e9 * perOp(5, n, func() {
		for i := 0; i < n; i++ {
			w := scupkt.Packet{Kind: scupkt.DataKind(i), Payload: uint64(i) * 0x9E3779B97F4A7C15}.Wire()
			s.u += uint64(w.Len())
		}
	})
	wires := make([]scupkt.Wire, 256)
	for i := range wires {
		wires[i] = scupkt.Packet{Kind: scupkt.DataKind(i), Payload: uint64(i) * 0x9E3779B97F4A7C15}.Wire()
	}
	m["scupkt.probe_decode_ns"] = 1e9 * perOp(5, n, func() {
		for i := 0; i < n; i++ {
			p, _, err := wires[i%len(wires)].Decode()
			if err != nil {
				panic(err)
			}
			s.u += p.Payload
		}
	})

	frames := 16 * probePending / scale
	eng := event.New()
	wire := hssl.NewWire(eng, "probe", hssl.DefaultClock, hssl.DefaultPropagation)
	wire.TrainAsync(nil)
	mustRun(eng)
	wire.OnFrame(func(f hssl.Frame) { s.u += f.Seq })
	m["hssl.probe_frame_ns"] = 1e9 * perOp(5, frames, func() {
		for i := 0; i < frames; i++ {
			if _, err := wire.Send(wires[i%len(wires)]); err != nil {
				panic(err)
			}
		}
		mustRun(eng)
	})
	eng.Shutdown()

	words := 16 * probePending / scale
	eng = event.New()
	mc := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2)))
	if err := mc.Boot(); err != nil {
		panic(err)
	}
	total := 8 * words
	fwd := geom.Link{Dim: 0, Dir: geom.Fwd}
	a, b := mc.Nodes[0], mc.Nodes[1]
	if _, err := b.SCU.StartRecv(fwd.Opposite(), scu.Contiguous(b.AllocWords(total), total)); err != nil {
		panic(err)
	}
	if _, err := a.SCU.StartSend(fwd, scu.Contiguous(a.AllocWords(total), total)); err != nil {
		panic(err)
	}
	// One word takes 72 bit times on the wire; advance the machine in
	// windows of about `words` words, the first one as warm-up.
	window := event.Time(words) * hssl.DefaultClock.Cycles(72)
	advance := func() uint64 {
		before := b.SCU.Stats().WordsReceived
		if err := eng.Run(eng.Now() + window); err != nil {
			panic(err)
		}
		return b.SCU.Stats().WordsReceived - before
	}
	advance()
	var times, allocs []float64
	for i := 0; i < 5; i++ {
		m0, _ := readMem()
		start := now()
		moved := advance()
		el := since(start)
		m1, _ := readMem()
		if moved == 0 {
			panic("scu probe: no words moved")
		}
		times = append(times, 1e9*el/float64(moved))
		allocs = append(allocs, float64(m1-m0)/float64(moved))
	}
	m["scu.probe_word_ns"] = median(times)
	m["scu.probe_word_allocs"] = median(allocs)
	eng.Shutdown()
}

// probeArithmetic times the host-side lattice arithmetic: the four
// reference operators, the SU(3) and spin-projection primitives under
// them, a host-only CGNE solve, and core's scatter/gather.
func probeArithmetic(scale int, lat lattice.Shape4, m map[string]float64, s *sink) {
	sites := lat.Volume()
	g := lattice.NewGaugeField(lat)
	g.Randomize(3)
	src := lattice.NewFermionField(lat)
	src.Gaussian(4)
	dst := lattice.NewFermionField(lat)

	wilson := fermion.NewWilson(g, 0.5)
	t := perOp(3, sites, func() { wilson.Apply(dst, src) })
	m["fermion.probe_wilson_ns_per_site"] = 1e9 * t
	m["fermion.host_mflops"] = fermion.FlopsPerSite(fermion.WilsonKind) / t / 1e6

	clover := fermion.NewClover(g, 0.5, 1.0)
	m["fermion.probe_clover_ns_per_site"] = 1e9 * perOp(3, sites, func() { clover.Apply(dst, src) })

	asqtad := fermion.NewASQTAD(g, 0.5)
	csrc, cdst := lattice.NewColorField(lat), lattice.NewColorField(lat)
	csrc.Gaussian(6)
	m["fermion.probe_asqtad_ns_per_site"] = 1e9 * perOp(3, sites, func() { asqtad.Apply(cdst, csrc) })

	const ls = 4
	dwf := fermion.NewDWF(g, 1.8, 0.1, ls)
	src5, dst5 := fermion.NewField5(lat, ls), fermion.NewField5(lat, ls)
	src5.Gaussian(8)
	m["fermion.probe_dwf_ns_per_site"] = 1e9 * perOp(2, ls*sites, func() { dwf.Apply(dst5, src5) })

	n := 1 << 20 / scale
	u := latmath.RandomSU3(rng.New(11, 0))
	psi := src.S[0]
	m["latmath.probe_su3_mulvec_ns"] = 1e9 * perOp(5, n, func() {
		v := psi[0]
		for i := 0; i < n; i++ {
			v = u.MulVec(v)
		}
		s.f += real(v[0])
	})
	m["latmath.probe_project_recon_ns"] = 1e9 * perOp(5, n, func() {
		p := psi
		for i := 0; i < n; i++ {
			p = latmath.Reconstruct(i&3, 1, latmath.Project(i&3, 1, p))
		}
		s.f += real(p[0][0])
	})

	m["solver.probe_ref_cgne_s"] = perOp(1, 1, func() {
		x := lattice.NewFermionField(lat)
		if _, err := solver.SolveDirac(wilson, x, src, 1e-4, maxIter); err != nil {
			panic(err)
		}
	})

	lay, err := core.NewLayout(geom.MakeShape(2, 2, 2, 2), lat)
	if err != nil {
		panic(err)
	}
	grid := lay.Dec.Grid
	m["core.probe_scatter_gather_ns_per_site"] = 1e9 * perOp(3, sites, func() {
		for idx := 0; idx < grid.Volume(); idx++ {
			gc := grid.SiteOf(idx)
			core.ScatterGauge(g, lay.Dec, gc)
			local := core.ScatterFermion(src, lay.Dec, gc)
			core.GatherFermion(dst, lay.Dec, gc, local)
		}
	})
}

// probeMachine times a machine-wide global sum on a persistent 8-node
// ring, a telemetry snapshot of a live 16-node machine and its
// Prometheus rendering, and one histogram record.
func probeMachine(scale int, m map[string]float64) {
	eng := event.New()
	ring := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(8)))
	if err := ring.Boot(); err != nil {
		panic(err)
	}
	fold := geom.IdentityFold(ring.Cfg.Shape)
	gsum := func(mc *machine.Machine, fold *geom.Fold) {
		err := mc.RunSPMD("gsum", func(rank int) node.Program {
			return func(ctx *node.Ctx) { qmp.New(ctx, fold).GlobalSumFloat64(ctx.P, float64(rank)) }
		})
		if err != nil {
			panic(err)
		}
	}
	sums := 256 / scale
	m["qmp.probe_gsum_us"] = 1e6 * perOp(3, sums, func() {
		for i := 0; i < sums; i++ {
			gsum(ring, fold)
		}
	})
	eng.Shutdown()

	eng = event.New()
	mc := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(4, 2, 2)))
	if err := mc.Boot(); err != nil {
		panic(err)
	}
	mc.EnableTelemetry()
	gsum(mc, geom.IdentityFold(mc.Cfg.Shape))
	snaps := 64 / scale
	var snap telemetry.Snapshot
	m["telemetry.probe_snapshot_us"] = 1e6 * perOp(3, snaps, func() {
		for i := 0; i < snaps; i++ {
			snap = mc.Reg.Snapshot()
		}
	})
	srv := &obs.Server{}
	handler := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	m["obs.probe_scrape_ms"] = 1e3 * perOp(3, snaps, func() {
		for i := 0; i < snaps; i++ {
			srv.PublishMetrics(eng.Now(), snap)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				panic("obs probe: empty scrape")
			}
		}
	})
	eng.Shutdown()

	var h telemetry.Histogram
	n := 1 << 22 / scale
	m["telemetry.probe_hist_record_ns"] = 1e9 * perOp(5, n, func() {
		for i := 0; i < n; i++ {
			h.Record(uint64(i)) //qcdoclint:obs-ok a histogram private to this probe: Record is what it times
		}
	})
}

// probeStorage times the checkpoint codec on one fermion field, a
// generation manifest round trip, and fault-plan generation.
func probeStorage(scale int, lat lattice.Shape4, m map[string]float64, s *sink) {
	f := lattice.NewFermionField(lat)
	f.Gaussian(12)
	var buf bytes.Buffer
	write := func() {
		buf.Reset()
		if err := checkpoint.WriteFermion(&buf, f); err != nil {
			panic(err)
		}
	}
	reps := 8
	m["checkpoint.probe_write_mb_s"] = 1 / perOp(reps, 1, write) * float64(buf.Len()) / 1e6
	blob := append([]byte(nil), buf.Bytes()...)
	m["checkpoint.probe_read_mb_s"] = 1 / perOp(reps, 1, func() {
		if _, err := checkpoint.ReadFermion(bytes.NewReader(blob)); err != nil {
			panic(err)
		}
	}) * float64(len(blob)) / 1e6

	man := &checkpoint.Manifest{}
	for gen := 0; gen < 8; gen++ {
		crcs := make([]uint32, 16)
		for r := range crcs {
			crcs[r] = uint32(gen*16+r) * 2654435761
		}
		man.Generations = append(man.Generations, checkpoint.Generation{Attempt: gen / 4, Iter: 10 * gen, CRCs: crcs})
	}
	n := 4096 / scale
	m["checkpoint.probe_manifest_us"] = 1e6 * perOp(5, n, func() {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := checkpoint.WriteManifest(&buf, man); err != nil {
				panic(err)
			}
			got, err := checkpoint.ReadManifest(&buf)
			if err != nil {
				panic(err)
			}
			s.u += uint64(len(got.Generations))
		}
	})

	spec := faultplan.Spec{
		From: 2 * event.Millisecond, To: 10 * event.Millisecond,
		NodeCrashes: 1, NetDrops: 2, NetDups: 1, LinkBursts: 1,
		ChunkCorrupts: 2, ChunkTorns: 1, WatchdogFalsePositives: 1, RecoveryCrashes: 1,
	}
	m["faultplan.probe_plan_us"] = 1e6 * perOp(5, n, func() {
		for i := 0; i < n; i++ {
			s.u += faultplan.Generate(uint64(i), spec, 8).Digest()
		}
	})
}
