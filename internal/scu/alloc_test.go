package scu

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// flatMem is a dense slice-backed memory whose ReadWord/WriteWord never
// allocate, so the alloc regression test below measures only the
// SCU/HSSL/event path, not the test harness. (The map-backed testMem
// allocates on writes to fresh keys.)
type flatMem struct{ words []uint64 }

func (m *flatMem) ReadWord(a uint64) uint64          { return m.words[a/8] }
func (m *flatMem) WriteWord(a uint64, w uint64)      { m.words[a/8] = w }
func (m *flatMem) ReadWords(a uint64, dst []uint64)  { copy(dst, m.words[a/8:]) }
func (m *flatMem) WriteWords(a uint64, src []uint64) { copy(m.words[a/8:], src) }

const rigWords = 1 << 17

// newFlatPair is the two-node harness on flat memory: on one engine
// (workers 0), or with a and b on the two shards of a cluster run by
// that many workers.
func newFlatPair(t *testing.T, workers int) *pair {
	t.Helper()
	ea := event.New()
	eb := ea
	if workers > 0 {
		look := hssl.MinLatency(hssl.DefaultClock, hssl.DefaultPropagation)
		eb = event.Clusterize(ea, 2, workers, look).Shard(1)
	}
	ma := &flatMem{words: make([]uint64, rigWords)}
	for i := range ma.words {
		ma.words[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return newPairMem(t, ea, eb, ma, &flatMem{words: make([]uint64, rigWords)})
}

// stream programs one long a-to-b transfer: the DMA word path.
func stream(t *testing.T, pr *pair) {
	t.Helper()
	if _, err := pr.a.StartSend(pr.linkA, Contiguous(0, rigWords)); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.b.StartRecv(pr.linkB, Contiguous(0, rigWords)); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateWordPathAllocFree holds the simulator to the hardware:
// there is no allocator anywhere on the word path. Once the links are
// trained and traffic is streaming, moving a data word — DMA fetch,
// packet encode, wire serialization, arrival, decode, ack, window pop,
// ack-timer re-arm, DMA store — touches the heap zero times: frames are
// values, the in-flight and resend registers are reusable rings, and the
// pump/timer callbacks are pre-bound. The legs take the same measurement
// off the clean path: the clean leg fast-forwards its quiet link (and
// must move a word in under half an event), the per-frame leg keeps it
// frame by frame with a hook that changes nothing, the recorder leg
// fast-forwards under a flight recorder (its jumps' "scu-ff" span marks
// included) and the recorder/per-frame leg records every frame, and the
// rest go where no solve goes unless a fault plan sends it: parity
// errors, naks, rewinds and lost acks with the link histograms recording;
// frames crossing a shard boundary by value through the cluster
// mailboxes; and global-sum words injected and passed through rather than
// fetched by DMA.
func TestSteadyStateWordPathAllocFree(t *testing.T) {
	legs := []struct {
		name    string
		workers int
		setup   func(t *testing.T, r *pair)
		// each runs before every window; moved says whether the measured
		// windows advanced the counters that make the leg mean anything
		// (words received, always).
		each  func(r *pair)
		moved func(d Stats) bool
		fast  bool // the link fast-forwards: under half an event per word
	}{
		{name: "clean", setup: stream, fast: true},
		{name: "per-frame", setup: func(t *testing.T, r *pair) {
			keep := func(*hssl.Frame) bool { return false }
			r.ab.SetFault(keep)
			r.ba.SetFault(keep)
			stream(t, r)
		}},
		{name: "faults+hists", setup: func(t *testing.T, r *pair) {
			r.ab.SetFault(hssl.FlipBitEvery(7))  // data frames: parity, nak, rewind
			r.ba.SetFault(hssl.FlipBitEvery(11)) // ack frames: lost acks, timeouts
			r.a.EnableLinkHists()
			r.b.EnableLinkHists()
			stream(t, r)
		}, moved: func(d Stats) bool { return d.Resends > 0 && d.NaksSent > 0 && d.ParityErrors > 0 }},
		{name: "recorder", setup: func(t *testing.T, r *pair) {
			r.eng.SetRecorder(event.NewRecorder(256))
			stream(t, r)
		}, fast: true},
		{name: "recorder/per-frame", setup: func(t *testing.T, r *pair) {
			keep := func(*hssl.Frame) bool { return false }
			r.ab.SetFault(keep)
			r.ba.SetFault(keep)
			r.eng.SetRecorder(event.NewRecorder(256))
			stream(t, r)
		}},
		{name: "cross-shard/workers=1", workers: 1, setup: stream},
		{name: "cross-shard/workers=2", workers: 2, setup: stream},
		{name: "global-sum", setup: func(t *testing.T, r *pair) {
			// A two-node ring reduction's traffic without its arithmetic: a
			// injects, b passes every word through, a takes it back.
			const forever = 1 << 30
			sink := WordFunc(func(int, uint64) {})
			err := r.a.ConfigureGlobal(0, GlobalConfig{In: r.linkA, HasIn: true, Outs: []geom.Link{r.linkA}, Expect: forever, OnWord: sink})
			if err == nil {
				err = r.b.ConfigureGlobal(0, GlobalConfig{In: r.linkB, HasIn: true, Outs: []geom.Link{r.linkB}, Expect: forever, Forward: forever, OnWord: sink})
			}
			if err != nil {
				t.Fatal(err)
			}
		}, each: func(r *pair) {
			for w := uint64(1); w <= 64; w++ {
				r.a.GlobalInject(0, w)
			}
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			r := newFlatPair(t, leg.workers)
			leg.setup(t, r)
			// Each window advances a fixed stretch of simulated time — a
			// few hundred words of traffic, well inside the transfer —
			// between two span marks (no-ops unless a recorder is attached).
			const span = 40 * event.Microsecond
			window := func() {
				if leg.each != nil {
					leg.each(r)
				}
				r.eng.MarkSpanBegin("window")
				if err := r.eng.Run(r.eng.Now() + span); err != nil {
					t.Fatal(err)
				}
				r.eng.MarkSpanEnd("window")
			}
			// Warm up past the DMA startup charge and all one-time growth
			// (wire in-flight rings, inject queues, mailboxes, the event
			// queue's high-water mark).
			window()
			window()
			totals := func() Stats {
				sa, sb := r.a.Stats(), r.b.Stats()
				sa.Add(&sb)
				return sa
			}
			before, events := totals(), r.eng.Executed()
			avg := testing.AllocsPerRun(10, window)
			after, events := totals(), r.eng.Executed()-events
			var d Stats
			for i := 0; i < NumStats(); i++ {
				d.SetValue(i, after.Value(i)-before.Value(i))
			}
			if d.WordsReceived == 0 || leg.moved != nil && !leg.moved(d) {
				t.Fatalf("leg did not exercise its path inside the measured windows: %+v", d)
			}
			if avg != 0 {
				t.Errorf("word path allocates: %.2f allocs per %v window (%+v)", avg, span, d)
			}
			if perWord := float64(events) / float64(d.WordsReceived); leg.fast != (perWord < 0.5) {
				t.Errorf("%d events for %d words (%.3f per word): fast-forward %v, want %v", events, d.WordsReceived, perWord, !leg.fast, leg.fast)
			}
		})
	}
}

// TestProgrammedTransferAllocs is the budget of one halo exchange as a
// rank sees it: program a receive and a send, wait for both. After the
// first exchange it allocates nothing: each SCU takes its transfer
// record from its free list (the completion event put it back), the
// handle is a value, the record holds its gate by value and parks its
// waiter in the gate's own storage, completes through itself as the
// event handler, names its wait from a constant, and waits in a link
// queue that keeps its storage. Before, in this harness: 23 (per
// transfer its gate, its completion closure, a waiter list, a wake
// closure, a re-allocated FIFO and the formatting of "dma +0"; three
// more for the kick gate and the engine's quiescence check), then 2 (one
// record per transfer).
func TestProgrammedTransferAllocs(t *testing.T) {
	pr := newFlatPair(t, 0)
	kick := event.NewGate(pr.eng)
	pr.eng.SpawnDaemon("rank", func(p *event.Proc) {
		for {
			kick.Wait(p, "kick")
			rt, err := pr.b.StartRecv(pr.linkB, Contiguous(0, 16))
			if err != nil {
				panic(err)
			}
			st, err := pr.a.StartSend(pr.linkA, Contiguous(0, 16))
			if err != nil {
				panic(err)
			}
			st.Wait(p)
			rt.Wait(p)
		}
	})
	exchange := func() {
		kick.Fire()
		pr.run(t)
	}
	exchange() // one-time growth: FIFOs, wire rings, the event queue
	before := pr.b.Stats().WordsReceived
	if avg := testing.AllocsPerRun(10, exchange); avg != 0 {
		t.Errorf("one programmed receive + send + two waits allocate %.1f objects, want 0", avg)
	}
	if got := pr.b.Stats().WordsReceived - before; got != 11*16 {
		t.Fatalf("measured exchanges moved %d words, want %d", got, 11*16)
	}
}

// TestStallNamesTheLink: the wait reasons are constants now, and the
// state-machine names are formatted on demand — the diagnostics they feed
// must read as before. A rank parked forever on a receive nobody sends
// to stalls the run with its node and "dma" + link in the report, for
// every link the table covers.
func TestStallNamesTheLink(t *testing.T) {
	for _, l := range geom.AllLinks() {
		if got, want := dmaWait(l), "dma "+l.String(); got != want {
			t.Errorf("dmaWait(%v) = %q, want %q", l, got, want)
		}
	}
	pr := newPair(t)
	pr.eng.Spawn("B app", func(p *event.Proc) {
		rt, err := pr.b.StartRecv(pr.linkB, Contiguous(0, 4))
		if err != nil {
			panic(err)
		}
		rt.Wait(p)
	})
	err := pr.eng.RunAll()
	var stall *event.ErrStall
	if !errors.As(err, &stall) {
		t.Fatalf("run returned %v, want a stall", err)
	}
	if len(stall.Blocked) != 1 || stall.Blocked[0] != "B app (dma -0)" {
		t.Fatalf("stall names %q, want [\"B app (dma -0)\"]", stall.Blocked)
	}
	if !strings.Contains(err.Error(), "B app (dma -0)") {
		t.Fatalf("stall message %q does not name the node and link", err)
	}
}

// TestSCUSizeClass holds the SCU, its two embedded transfer records
// included, to the 10 880 B allocation size class it has always had: one
// more class is 1.4 MB more per 1024-node machine build.
func TestSCUSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(SCU{}); size > 10880 {
		t.Fatalf("SCU is %d B, past the 10 880 B size class", size)
	}
}
