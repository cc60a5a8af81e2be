// Host microbenchmarks that the benchmark in bench/ has no counterpart
// for. Every paper quantity is checked by a test (internal/experiments,
// internal/perf and the functional tests of internal/core) and every
// host cost is a workload or probe of bench/ (bench/README.md); what
// stays here is the event engine's dispatch tiers, whose backlog case
// asserts the lazy timer's contract, and the reference kernels serial
// beside forked over a team, the comparison team.Grain rests on.
//
// Run: go test -run '^$' -bench . -benchmem
package qcdoc_test

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
	"qcdoc/internal/team"
)

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

// BenchmarkKernels applies the reference Wilson, clover and domain-wall
// operators with their site loops run serially and forked over a team
// (DESIGN.md §8 "Host threads"); bench/'s fermion probes time the serial
// kernels only.
func BenchmarkKernels(b *testing.B) {
	var tm team.Team
	defer tm.Close()
	for _, mode := range []struct {
		name string
		tm   *team.Team
	}{{"serial", nil}, {"forked", &tm}} {
		b.Run(mode.name+"/wilson", func(b *testing.B) { benchWilson(b, mode.tm) })
		b.Run(mode.name+"/clover", func(b *testing.B) { benchClover(b, mode.tm) })
		b.Run(mode.name+"/dwf", func(b *testing.B) { benchDWF(b, mode.tm) })
	}
}

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
