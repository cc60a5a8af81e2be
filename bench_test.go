// Benchmarks regenerating the paper's evaluation, one per table/figure
// (DESIGN.md's experiment index). Model-level benchmarks report the
// reproduced quantity as a custom metric; functional benchmarks run the
// packet-level machine simulation and report simulated time and
// efficiency. Raw numeric kernels (the host-side cost of the reference
// operators) are benchmarked at the bottom.
//
// Run: go test -bench=. -benchmem
package qcdoc_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"qcdoc/internal/core"
	"qcdoc/internal/cost"
	"qcdoc/internal/event"
	"qcdoc/internal/experiments"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/hmc"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/memsys"
	"qcdoc/internal/node"
	"qcdoc/internal/obs"
	"qcdoc/internal/perf"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
	"qcdoc/internal/solver"
	"qcdoc/internal/team"
	"qcdoc/internal/telemetry"
)

// --- E1: solver efficiencies (model) -------------------------------------

func BenchmarkE1DiracEfficiency(b *testing.B) {
	grid := lattice.Shape4{4, 4, 4, 2} // 128 nodes
	paper := map[fermion.OpKind]float64{
		fermion.WilsonKind: 0.40,
		fermion.AsqtadKind: 0.38,
		fermion.CloverKind: 0.465,
	}
	for _, k := range fermion.Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				eff = perf.CGIteration(perf.DefaultConfig(k, grid, 500*event.MHz)).Efficiency
			}
			b.ReportMetric(100*eff, "%peak")
			if p, ok := paper[k]; ok {
				b.ReportMetric(100*p, "%paper")
			}
		})
	}
}

// BenchmarkE1FunctionalWilson runs a real distributed CG on a simulated
// 16-node machine (4^4 local volume) and reports the measured machine
// efficiency. One solve per benchmark iteration — expect seconds of host
// time each.
func BenchmarkE1FunctionalWilson(b *testing.B) {
	global := lattice.Shape4{8, 8, 8, 8}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(1)
	rhs := lattice.NewFermionField(global)
	rhs.Gaussian(2)
	b.ReportAllocs()
	var eff float64
	var simNS float64
	for i := 0; i < b.N; i++ {
		sess, err := core.NewSession(geom.MakeShape(2, 2, 2, 2), global)
		if err != nil {
			b.Fatal(err)
		}
		_, met, err := sess.SolveWilson(gauge, rhs, 0.5, fermion.Double, 1e-4, 100)
		sess.Close()
		if err != nil {
			b.Fatal(err)
		}
		eff = met.Efficiency
		simNS = float64(met.SimTime) / 1000 / float64(met.Iterations)
	}
	b.ReportMetric(100*eff, "%peak")
	b.ReportMetric(simNS, "sim-ns/iter")
	b.ReportMetric(40, "%paper")
}

// --- E1/E11 parallel engine scaling (functional, sharded) ------------------

// benchE1Parallel is BenchmarkE1FunctionalWilson on the sharded engine:
// same 16-node machine and solve, partitioned one shard per
// daughterboard (8 shards) and executed by the given worker count. The
// simulated physics is identical at every worker count (the digest
// tests pin that); only host wall clock changes.
func benchE1Parallel(b *testing.B, workers int) {
	global := lattice.Shape4{8, 8, 8, 8}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(1)
	rhs := lattice.NewFermionField(global)
	rhs.Gaussian(2)
	b.ReportAllocs()
	var eff float64
	for i := -1; i < b.N; i++ { // operation -1 is a discarded warm-up (bench/README "The E11 anomaly")
		if i == 0 {
			b.ResetTimer()
		}
		cfg := machine.DefaultConfig(geom.MakeShape(2, 2, 2, 2))
		cfg.Shards = machine.ShardAuto
		cfg.Workers = workers
		sess, err := core.NewSessionConfig(cfg, global)
		if err != nil {
			b.Fatal(err)
		}
		_, met, err := sess.SolveWilson(gauge, rhs, 0.5, fermion.Double, 1e-4, 100)
		sess.Close()
		if err != nil {
			b.Fatal(err)
		}
		eff = met.Efficiency
	}
	b.ReportMetric(100*eff, "%peak")
}

func BenchmarkE1FunctionalWilsonParallel(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchE1Parallel(b, w) })
	}
}

// BenchmarkE11RackScale runs a whole simulated rack — the paper's
// 1024-node 8x4x4x2x2x2 machine (§4) — through boot plus a
// communication-bound SPMD round (nearest-neighbour halo traffic and a
// doubled global sum) on the sharded engine, one shard per motherboard
// (16 shards). This is the workload the shard refactor exists for: at
// workers=1 it measures the conservative protocol's overhead, at
// workers=N its speedup.
func benchRackScale(b *testing.B, workers int) {
	shape := geom.MakeShape(8, 4, 4, 2, 2, 2)
	var end event.Time
	for i := -1; i < b.N; i++ { // operation -1 is a discarded warm-up: the first rack of a process grows the heap and the goroutine stacks
		if i == 0 {
			b.ResetTimer()
		}
		eng := event.New()
		cfg := machine.DefaultConfig(shape)
		cfg.Shards = machine.ShardAuto
		cfg.Workers = workers
		m := machine.Build(eng, cfg)
		if err := m.Boot(); err != nil {
			b.Fatal(err)
		}
		fold := geom.IdentityFold(shape)
		err := m.RunSPMD("rack", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				n := ctx.N
				sendAddr := n.AllocWords(16)
				recvAddr := n.AllocWords(16)
				for w := 0; w < 16; w++ {
					n.Mem.WriteWord(sendAddr+8*uint64(w), uint64(rank)<<32|uint64(w))
				}
				for round := 0; round < 4; round++ {
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
				}
				qmp.New(ctx, fold).GlobalSumFloat64Doubled(ctx.P, float64(rank))
			}
		})
		end = eng.Now()
		eng.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(end)/1e6, "sim-us")
}

func BenchmarkE11RackScale(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchRackScale(b, w) })
	}
}

// --- E2: DDR spill --------------------------------------------------------

func BenchmarkE2DDRSpill(b *testing.B) {
	grid := lattice.Shape4{4, 4, 4, 2}
	var edram, ddr float64
	for i := 0; i < b.N; i++ {
		cfg := perf.DefaultConfig(fermion.WilsonKind, grid, 500*event.MHz)
		edram = perf.CGIteration(cfg).Efficiency
		cfg.Local = lattice.Shape4{8, 8, 8, 8}
		ddr = perf.CGIteration(cfg).Efficiency
	}
	b.ReportMetric(100*edram, "%edram")
	b.ReportMetric(100*ddr, "%ddr")
	b.ReportMetric(30, "%paper-ddr")
}

// --- E3: precision ---------------------------------------------------------

func BenchmarkE3Precision(b *testing.B) {
	grid := lattice.Shape4{4, 4, 4, 2}
	var dp, sp float64
	for i := 0; i < b.N; i++ {
		cfg := perf.DefaultConfig(fermion.WilsonKind, grid, 500*event.MHz)
		dp = perf.CGIteration(cfg).Efficiency
		cfg.Prec = fermion.Single
		sp = perf.CGIteration(cfg).Efficiency
	}
	b.ReportMetric(100*dp, "%double")
	b.ReportMetric(100*sp, "%single")
}

// --- E4: nearest-neighbour latency (functional) ----------------------------

func BenchmarkE4Latency(b *testing.B) {
	var lat event.Time
	for i := 0; i < b.N; i++ {
		eng := event.New()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2)))
		if err := m.Boot(); err != nil {
			b.Fatal(err)
		}
		start := eng.Now()
		err := m.RunSPMD("lat", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				n := ctx.N
				if rank == 0 {
					a := n.AllocWords(1)
					n.Mem.WriteWord(a, 42)
					if _, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(a, 1)); err != nil {
						panic(err)
					}
				} else {
					a := n.AllocWords(1)
					rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(a, 1))
					if err != nil {
						panic(err)
					}
					rt.Wait(ctx.P)
					lat = rt.Finished() - start
				}
			}
		})
		eng.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lat)/1000, "sim-ns")
	b.ReportMetric(600, "paper-ns")
}

// --- E5: global sum single vs doubled (functional) --------------------------

func benchGsum(b *testing.B, doubled bool) {
	var elapsed event.Time
	for i := 0; i < b.N; i++ {
		eng := event.New()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(8)))
		if err := m.Boot(); err != nil {
			b.Fatal(err)
		}
		fold := geom.IdentityFold(m.Cfg.Shape)
		start := eng.Now()
		var end event.Time
		err := m.RunSPMD("gsum", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				c := qmp.New(ctx, fold)
				if doubled {
					c.GlobalSumFloat64Doubled(ctx.P, 1)
				} else {
					c.GlobalSumFloat64(ctx.P, 1)
				}
				if ctx.P.Now() > end {
					end = ctx.P.Now()
				}
			}
		})
		eng.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
		elapsed = end - start
	}
	b.ReportMetric(float64(elapsed)/1000, "sim-ns")
}

func BenchmarkE5GlobalSumSingle(b *testing.B)  { benchGsum(b, false) }
func BenchmarkE5GlobalSumDoubled(b *testing.B) { benchGsum(b, true) }

// --- E6: bandwidths ---------------------------------------------------------

func BenchmarkE6Bandwidth(b *testing.B) {
	var agg, edram float64
	for i := 0; i < b.N; i++ {
		agg = perf.AggregateLinkBandwidth(500 * event.MHz)
		edram = memsys.DefaultModel().BusBandwidth(memsys.EDRAM)
	}
	b.ReportMetric(agg/1e9, "linkGB/s")
	b.ReportMetric(edram/1e9, "edramGB/s")
}

// --- E7: packaging -----------------------------------------------------------

func BenchmarkE7Packaging(b *testing.B) {
	var p machine.Packaging
	for i := 0; i < b.N; i++ {
		p = machine.PackagingFor(1024, 500*event.MHz)
	}
	b.ReportMetric(p.PowerWatts/1000, "rack-kW")
	b.ReportMetric(p.PeakTeraflops, "rack-Tflops")
}

// --- E9: price/performance ----------------------------------------------------

func BenchmarkE9PricePerf(b *testing.B) {
	var pts []cost.PricePoint
	for i := 0; i < b.N; i++ {
		pts = cost.Paper4096Points()
	}
	b.ReportMetric(pts[2].Dollars, "$per-Mflops@450")
	b.ReportMetric(pts[2].PaperSays, "paper$")
}

// --- E11: hard scaling ----------------------------------------------------------

func BenchmarkE11HardScaling(b *testing.B) {
	global := lattice.Shape4{32, 32, 32, 64}
	grids := []lattice.Shape4{{8, 8, 8, 16}}
	var eff float64
	for i := 0; i < b.N; i++ {
		pts, err := perf.HardScaling(fermion.WilsonKind, global, grids, 500*event.MHz)
		if err != nil {
			b.Fatal(err)
		}
		eff = pts[0].Estimate.Efficiency
	}
	b.ReportMetric(100*eff, "%peak@8192nodes")
}

// --- E15: DWF forecast -----------------------------------------------------------

func BenchmarkE15DWF(b *testing.B) {
	var dwf, clv float64
	for i := 0; i < b.N; i++ {
		dwf = perf.DslashEfficiency(fermion.DWFKind, fermion.Double, memsys.EDRAM, 500*event.MHz)
		clv = perf.DslashEfficiency(fermion.CloverKind, fermion.Double, memsys.EDRAM, 500*event.MHz)
	}
	b.ReportMetric(100*dwf, "%dwf")
	b.ReportMetric(100*clv, "%clover")
}

// --- Experiment table generation (ensures benchtables stays cheap) -----------

func BenchmarkStaticTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Static()
	}
}

// --- Raw numeric kernels (host performance of the reference operators) -------

func benchGauge(b *testing.B) (*lattice.GaugeField, *lattice.FermionField, *lattice.FermionField) {
	b.Helper()
	l := lattice.Shape4{8, 8, 8, 8}
	g := lattice.NewGaugeField(l)
	g.Randomize(3)
	src := lattice.NewFermionField(l)
	src.Gaussian(4)
	return g, src, lattice.NewFermionField(l)
}

// reportKernel adds the two host-side kernel rates to an operator
// benchmark that applied kind to sites sites b.N times: Mflop/s by the
// operator's nominal flop count (Wilson: the 1320-flop budget) and
// ns per site.
func reportKernel(b *testing.B, kind fermion.OpKind, sites int) {
	siteApps := float64(sites) * float64(b.N)
	b.ReportMetric(fermion.FlopsPerSite(kind)*siteApps/b.Elapsed().Seconds()/1e6, "host-Mflops")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/siteApps, "ns/site")
}

// The kernel rows run serially (tm nil) and, under
// BenchmarkForkedKernels, with the site loops forked over a team.

func benchWilson(b *testing.B, tm *team.Team) {
	g, src, dst := benchGauge(b)
	w := fermion.NewWilson(g, 0.1)
	w.Team = tm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Apply(dst, src)
	}
	reportKernel(b, fermion.WilsonKind, g.L.Volume())
}

func benchClover(b *testing.B, tm *team.Team) {
	g, src, dst := benchGauge(b)
	c := fermion.NewClover(g, 0.1, 1.0)
	c.Team = tm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(dst, src)
	}
	reportKernel(b, fermion.CloverKind, g.L.Volume())
}

func BenchmarkWilsonDslash(b *testing.B) { benchWilson(b, nil) }
func BenchmarkCloverApply(b *testing.B)  { benchClover(b, nil) }
func BenchmarkDWFApply(b *testing.B)     { benchDWF(b, nil) }

func BenchmarkForkedKernels(b *testing.B) {
	var tm team.Team
	defer tm.Close()
	b.Run("wilson", func(b *testing.B) { benchWilson(b, &tm) })
	b.Run("clover", func(b *testing.B) { benchClover(b, &tm) })
	b.Run("dwf", func(b *testing.B) { benchDWF(b, &tm) })
}

func BenchmarkASQTADApply(b *testing.B) {
	l := lattice.Shape4{8, 8, 8, 8}
	g := lattice.NewGaugeField(l)
	g.Randomize(5)
	a := fermion.NewASQTAD(g, 0.1)
	src := lattice.NewColorField(l)
	src.Gaussian(6)
	dst := lattice.NewColorField(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Apply(dst, src)
	}
}

func benchDWF(b *testing.B, tm *team.Team) {
	l := lattice.Shape4{4, 4, 4, 8}
	g := lattice.NewGaugeField(l)
	g.Randomize(7)
	d := fermion.NewDWF(g, 1.8, 0.1, 8)
	d.Team = tm
	src := fermion.NewField5(l, 8)
	src.Gaussian(8)
	dst := fermion.NewField5(l, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(dst, src)
	}
	reportKernel(b, fermion.DWFKind, 8*l.Volume())
}

func BenchmarkCGNEWilsonSolve(b *testing.B) {
	l := lattice.Shape4{4, 4, 4, 4}
	g := lattice.NewGaugeField(l)
	g.Randomize(9)
	w := fermion.NewWilson(g, 0.5)
	rhs := lattice.NewFermionField(l)
	rhs.Gaussian(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := lattice.NewFermionField(l)
		if _, err := solver.SolveDirac(w, x, rhs, 1e-8, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeatbathSweep(b *testing.B) {
	g := lattice.NewGaugeField(lattice.Shape4{4, 4, 4, 4})
	h := &hmc.Heatbath{Beta: 5.6, Seed: 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sweep(g)
	}
}

// BenchmarkEngineDispatch compares the engine's two process tiers moving
// the same event stream: a producer/consumer coroutine pair handing
// words through a Queue (tier 1: goroutine parks and channel wakes per
// event) versus a flat timer chain (tier 2: plain function
// calls from the dispatch loop). The gap is the per-event context-switch
// cost the SCU refactor removed from the simulator's hot paths.
func BenchmarkEngineDispatch(b *testing.B) {
	const events = 4096
	b.Run("coroutine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := event.New()
			q := event.NewQueue[int](eng, "dispatch")
			eng.Spawn("consumer", func(p *event.Proc) {
				for j := 0; j < events; j++ {
					q.Get(p)
				}
			})
			eng.Spawn("producer", func(p *event.Proc) {
				for j := 0; j < events; j++ {
					p.Sleep(event.Nanosecond)
					q.Put(j)
				}
			})
			if err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
			eng.Shutdown()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
	b.Run("callback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := event.New()
			n := 0
			var step func()
			step = func() {
				n++
				if n < events {
					eng.After(event.Nanosecond, step)
				}
			}
			eng.After(event.Nanosecond, step)
			if err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
			if n != events {
				b.Fatalf("ran %d of %d events", n, events)
			}
			eng.Shutdown()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
	// backlog is the event pattern of a functional solve, which the two
	// cases above (1 and 4096 pending events) do not have: 128 sources
	// each schedule their next step 144 ns out and re-arm a 50 us timer,
	// so every event pays a Timer.Arm and each timer keeps one firing
	// queued behind the live events, moving on every 50 us. One engine
	// serves every iteration, so after the first pass has grown the
	// queue the loop allocates nothing.
	b.Run("backlog", func(b *testing.B) {
		const sources, steps = 128, 1600
		eng := event.New()
		srcs := make([]*backlogSource, sources)
		for i := range srcs {
			srcs[i] = &backlogSource{eng: eng}
			srcs[i].timer = eng.NewTimer(func() { b.Error("a superseded timer fired") })
		}
		pass := func() {
			for i, s := range srcs {
				s.left = steps
				eng.AfterHandler(event.Time(i)*event.Nanosecond, s, 0)
			}
			if err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
		pass()
		before := eng.Executed()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		events := float64(eng.Executed()-before) / float64(b.N)
		if events < 200_000 {
			b.Fatalf("%.0f events per pass, want >= 200000", events)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
}

// backlogSource is one event source of BenchmarkEngineDispatch/backlog:
// a handler chain 144 ns apart whose every step re-arms a 50 us timer
// before it can run; the last step stops it.
type backlogSource struct {
	eng   *event.Engine
	timer *event.Timer
	left  int
}

func (s *backlogSource) HandleEvent(uint64) {
	if s.left--; s.left == 0 {
		s.timer.Stop()
		return
	}
	s.eng.AfterHandler(144*event.Nanosecond, s, 0)
	s.timer.Arm(50 * event.Microsecond)
}

// BenchmarkMachineBuild1024 builds and boots the paper's 1024-node
// machine (§4: 8x4x4x2x2x2). Boot trains all 12288 outbound wires via
// per-node continuation chains; since the refactor the whole machine
// runs on zero process goroutines.
func BenchmarkMachineBuild1024(b *testing.B) {
	shape := geom.MakeShape(8, 4, 4, 2, 2, 2)
	for i := 0; i < b.N; i++ {
		eng := event.New()
		m := machine.Build(eng, machine.DefaultConfig(shape))
		if err := m.Boot(); err != nil {
			b.Fatal(err)
		}
		eng.Shutdown()
	}
}

// BenchmarkTelemetryOverhead runs the E4 nearest-neighbour word path on
// a persistent 2-node machine with telemetry fully off versus fully on
// (counter registry enabled, per-node CPU counters live, flight recorder
// attached). The two must be within noise of each other: counters are
// plain field increments on paths the simulator already executes, and
// the recorder overwrites preallocated ring slots. Allocations per op
// must not change either.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		eng := event.New()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2)))
		if err := m.Boot(); err != nil {
			b.Fatal(err)
		}
		defer eng.Shutdown()
		if enable {
			m.EnableTelemetry()
			eng.SetRecorder(event.NewRecorder(0))
		}
		addrs := []uint64{m.Nodes[0].AllocWords(1), m.Nodes[1].AllocWords(1)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := m.RunSPMD("lat", func(rank int) node.Program {
				return func(ctx *node.Ctx) {
					n := ctx.N
					a := addrs[rank]
					if rank == 0 {
						n.Mem.WriteWord(a, 42)
						if _, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(a, 1)); err != nil {
							panic(err)
						}
					} else {
						rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(a, 1))
						if err != nil {
							panic(err)
						}
						rt.Wait(ctx.P)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkHistogramRecord pins the observability plane's hot path: one
// log2-bucket histogram record must cost a few nanoseconds and zero
// allocations — it runs inside collective completion, link ack, and
// checkpoint paths (DESIGN.md §10). What it records is a fixed cycle of
// 256 latencies, 4 ns to 1024 ns in 4 ns steps (in ps, as the simulator
// records them), so the percentiles reported as custom metrics
// (benchtables renders them as columns) are those of that distribution —
// the same at any b.N — and not of the loop counter.
func BenchmarkHistogramRecord(b *testing.B) {
	var h telemetry.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i&255+1) * 4000)
	}
	s := h.Snapshot()
	b.ReportMetric(float64(s.P50), "p50")
	b.ReportMetric(float64(s.P95), "p95")
	b.ReportMetric(float64(s.P99), "p99")
}

// BenchmarkMetricsScrape measures the full pull path: snapshot a live
// 16-node machine's registry (counters, gauges, merged per-node and
// per-link histograms) and render it as Prometheus exposition text —
// the per-request cost of GET /metrics against a published snapshot's
// machine.
func BenchmarkMetricsScrape(b *testing.B) {
	eng := event.New()
	m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(4, 2, 2)))
	if err := m.Boot(); err != nil {
		b.Fatal(err)
	}
	defer eng.Shutdown()
	m.EnableTelemetry()
	fold := geom.IdentityFold(m.Cfg.Shape)
	err := m.RunSPMD("warm", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			qmp.New(ctx, fold).GlobalSumFloat64(ctx.P, float64(rank))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := &obs.Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		srv.PublishMetrics(eng.Now(), m.Reg.Snapshot())
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || len(body) == 0 {
			b.Fatalf("scrape: %v (%d bytes)", err, len(body))
		}
		size = len(body)
	}
	b.ReportMetric(float64(size), "bytes")
}

func BenchmarkGlobalSumMachine(b *testing.B) {
	// Host cost of simulating one machine-wide reduction on 16 nodes.
	eng := event.New()
	m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(4, 2, 2)))
	if err := m.Boot(); err != nil {
		b.Fatal(err)
	}
	defer eng.Shutdown()
	fold := geom.IdentityFold(m.Cfg.Shape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := m.RunSPMD("gsum", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				qmp.New(ctx, fold).GlobalSumFloat64(ctx.P, 1)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
