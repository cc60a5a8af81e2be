package core

import (
	"reflect"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/rng"
	"qcdoc/internal/scu"
	"qcdoc/internal/scupkt"
	"qcdoc/internal/telemetry"
)

// quietRun is everything a solve leaves behind that fast-forwarding a
// quiet link could move: the solve's golden fields, the engine's final
// clock, every wire's and every link's counters, both checksums of every
// link, and a fold of each node's memory up to its allocation frontier
// (the halo's receive faces among it).
type quietRun struct {
	golden solveGolden
	now    event.Time
	wires  []hssl.Stats
	links  []scu.Stats
	sums   []scupkt.Checksum
	mem    []uint64
}

func captureQuiet(sess *Session, g solveGolden) quietRun {
	m := sess.M
	q := quietRun{golden: g, now: sess.Eng.Now()}
	for r, n := range m.Nodes {
		for _, l := range geom.AllLinks() {
			q.wires = append(q.wires, m.Wire(r, l).Stats())
			q.links = append(q.links, n.SCU.LinkStats(l))
			tx, rx := n.SCU.Checksums(l)
			q.sums = append(q.sums, tx, rx)
		}
		words := make([]uint64, n.AllocWords(0)/8)
		n.Mem.ReadWords(0, words)
		fold := rng.NewFold()
		for _, w := range words {
			fold.Mix(w)
		}
		q.mem = append(q.mem, uint64(fold))
	}
	return q
}

// TestQuietLinkMatchesPerFrame runs every golden solve on 2×2 and E1's
// 16-node Wilson solve four ways: clean, where quiet link pairs
// fast-forward, and with a fault hook that changes nothing on every wire,
// which keeps every pair frame by frame; each on a fresh machine and on
// one built from a pool that has already served a machine. All four
// must leave the same quietRun, and the clean E1 run must move a data
// word in at most half an event.
func TestQuietLinkMatchesPerFrame(t *testing.T) {
	type solveCase struct {
		name   string
		shape  geom.Shape
		global lattice.Shape4
		solve  func(*Session) (solveGolden, error)
	}
	var cases []solveCase
	for _, c := range goldenCases() {
		cases = append(cases, solveCase{c.name, geom.MakeShape(2, 2), goldenGlobal, c.solve})
	}
	e1 := lattice.Shape4{8, 8, 8, 8}
	gauge := lattice.NewGaugeField(e1)
	gauge.Randomize(1001)
	b := lattice.NewFermionField(e1)
	b.Gaussian(1002)
	cases = append(cases, solveCase{"E1 wilson 16 nodes", geom.MakeShape(2, 2, 2, 2), e1, func(s *Session) (solveGolden, error) {
		_, met, err := s.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-4, 300)
		return solveGolden{met.Iterations, met.Applications, 0, 0, met.SimTime, met.WordsSent, met.Resends}, err
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want quietRun
			for i, way := range []struct {
				hooked, pooled bool
			}{{false, false}, {true, false}, {false, true}, {true, true}} {
				cfg := machine.DefaultConfig(c.shape)
				if way.pooled {
					cfg.Pool = machine.NewPool()
					warm, err := NewSessionConfig(cfg, c.global)
					if err != nil {
						t.Fatal(err)
					}
					warm.Close()
				}
				sess, err := NewSessionConfig(cfg, c.global)
				if err != nil {
					t.Fatal(err)
				}
				if way.hooked {
					for r := 0; r < sess.M.NumNodes(); r++ {
						for _, l := range geom.AllLinks() {
							sess.M.Wire(r, l).SetFault(func(*hssl.Frame) bool { return false })
						}
					}
				}
				events := sess.Eng.Executed()
				g, err := c.solve(sess)
				if err != nil {
					t.Fatal(err)
				}
				events = sess.Eng.Executed() - events
				got := captureQuiet(sess, g)
				sess.Close()
				if i == 0 {
					want = got
					if c.shape.Volume() == 16 && float64(events) > 0.5*float64(g.wordsSent) {
						t.Errorf("clean run: %d events for %d data words, want at most 0.5 per word", events, g.wordsSent)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("hooked %v pooled %v differs from the clean fresh run:\n got  %+v\n want %+v",
						way.hooked, way.pooled, got.golden, want.golden)
				}
			}
		})
	}
}

// TestQuietLinkKeepsLinkHistograms runs the golden Wilson solve with
// telemetry on, clean (quiet link pairs fast-forward and record each
// skipped period's in-flight latencies again), hooked (frame by frame)
// and clean under a flight recorder (watching does not change the path):
// every link's histograms and counters must agree, the clean runs must
// still move a word in under half an event, and the recorder must hold a
// jump's "scu-ff" span.
func TestQuietLinkKeepsLinkHistograms(t *testing.T) {
	type hists struct {
		inFlight, resendGap []telemetry.HistogramSnapshot
		links               []scu.Stats
		perWord             float64
		jumps               int
	}
	run := func(hooked bool, rec *event.Recorder) hists {
		sess, err := NewSession(geom.MakeShape(2, 2), goldenGlobal)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sess.M.EnableTelemetry()
		sess.Eng.SetRecorder(rec)
		if hooked {
			for r := 0; r < sess.M.NumNodes(); r++ {
				for _, l := range geom.AllLinks() {
					sess.M.Wire(r, l).SetFault(func(*hssl.Frame) bool { return false })
				}
			}
		}
		events, words := sess.Eng.Executed(), sess.M.Stats().WordsSent
		if _, err := goldenCases()[0].solve(sess); err != nil {
			t.Fatal(err)
		}
		var h hists
		h.perWord = float64(sess.Eng.Executed()-events) / float64(sess.M.Stats().WordsSent-words)
		for _, n := range sess.M.Nodes {
			for _, l := range geom.AllLinks() {
				if lh := n.SCU.LinkHists(l); lh != nil {
					h.inFlight = append(h.inFlight, lh.InFlight.Snapshot())
					h.resendGap = append(h.resendGap, lh.ResendGap.Snapshot())
				}
				h.links = append(h.links, n.SCU.LinkStats(l))
			}
		}
		if rec != nil {
			for _, r := range rec.Tail(0) {
				if r.Kind == event.TraceSpanBegin && r.Actor() == "scu-ff" {
					h.jumps++
				}
			}
		}
		return h
	}
	rec := event.NewRecorder(event.DefaultRecorderSize)
	clean, hooked, recorded := run(false, nil), run(true, nil), run(false, rec)
	if clean.perWord > 0.5 {
		t.Errorf("clean run with telemetry: %.3f events per word, want at most 0.5", clean.perWord)
	}
	if recorded.perWord > 0.5 {
		t.Errorf("clean run with telemetry and a flight recorder: %.3f events per word, want at most 0.5", recorded.perWord)
	}
	if recorded.jumps == 0 {
		t.Errorf("flight recorder holds no scu-ff span in its last %d of %d records", rec.Cap(), rec.Total())
	}
	clean.perWord, hooked.perWord, recorded.perWord, recorded.jumps = 0, 0, 0, 0
	if !reflect.DeepEqual(clean, hooked) {
		t.Fatal("link histograms or counters differ between the fast-forwarded and the frame-by-frame run")
	}
	if !reflect.DeepEqual(recorded, hooked) {
		t.Fatal("link histograms or counters differ between the recorded and the frame-by-frame run")
	}
}
