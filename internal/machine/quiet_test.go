package machine

import (
	"fmt"
	"reflect"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/rng"
	"qcdoc/internal/scu"
)

// The shapes and transfer lengths a generated program draws from: at
// most 16 nodes; lengths inside the ack window, around the sequence
// space, and long enough for a link pair to fast-forward.
var (
	quietShapes  = []geom.Shape{geom.MakeShape(2), geom.MakeShape(4), geom.MakeShape(2, 2), geom.MakeShape(4, 2), geom.MakeShape(2, 2, 2), geom.MakeShape(2, 2, 2, 2), geom.MakeShape(8), geom.MakeShape(4, 4)}
	quietLengths = []int{1, 2, 3, 4, 5, 8, 9, 16, 128, 131, 257, 300, 768, 1000}
)

// quietRound is one round of a generated program.
type quietRound struct {
	kind             int  // quietTransfer, quietGlobalSum or quietInject
	dim              int  // the exchange's dimension
	both             bool // send both ways, not only forward
	alias            bool // each receive lands in the buffer its link sends from
	words            int  // per transfer; one more is received after an inject
	block, gap       int  // strided descriptors: words per block, words between blocks; 0: contiguous
	skew, late, comp event.Time
	inject           event.Time // when the injected word goes, after the sends
}

const (
	quietTransfer = iota
	quietGlobalSum
	quietInject
)

// decodeQuiet turns bytes into a machine shape and a program: byte 0
// picks the shape, byte 1 the number of rounds (1-4), and each round
// takes eight bytes — kind, dimension (+0x80: both ways; +0x40: each
// receive into the buffer its link sends from, while it sends), length,
// stride, per-rank start skew (100 ns units), late receive (100 ns
// after the sends; 0: posted first), compute time (µs) and, for an
// inject round, the inject's delay (100 ns). Missing bytes read as 0.
func decodeQuiet(data []byte) (geom.Shape, []quietRound) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	shape := quietShapes[next()%len(quietShapes)]
	rounds := make([]quietRound, 1+next()%4)
	for i := range rounds {
		r := &rounds[i]
		r.kind = [4]int{quietTransfer, quietTransfer, quietGlobalSum, quietInject}[next()%4]
		d := next()
		r.dim, r.both, r.alias = d%shape.Dims(), d&0x80 != 0, d&0x40 != 0
		r.words = quietLengths[next()%len(quietLengths)]
		if s := next(); s != 0 && r.kind != quietInject {
			r.block, r.gap = 1+s%8, (s>>3)%4
			r.words = max(1, r.words/r.block) * r.block
		}
		r.skew = event.Time(next()%16) * 100 * event.Nanosecond
		r.late = event.Time(next()%32) * 100 * event.Nanosecond
		r.comp = event.Time(next()) * event.Microsecond
		r.inject = event.Time(next()) * 100 * event.Nanosecond
	}
	return shape, rounds
}

func (r quietRound) desc(base uint64, words int) scu.DMADesc {
	if r.block == 0 {
		return scu.Contiguous(base, words)
	}
	return scu.DMADesc{Base: base, BlockWords: r.block, NumBlocks: words / r.block, StrideWords: r.block + r.gap}
}

// quietOutcome is what the clean and the hooked run must agree on.
type quietOutcome struct {
	err   string
	now   event.Time
	sums  []uint64
	wires []hssl.Stats
	links []scu.Stats
	check []uint64 // every link's two checksums, sums and counts
	mem   []uint64 // a fold of each node's memory up to its frontier
}

// runQuiet runs the program on a fresh serial machine, with a fault
// hook that changes nothing on every wire when hooked (which keeps every
// link pair frame by frame).
func runQuiet(shape geom.Shape, rounds []quietRound, hooked bool) quietOutcome {
	eng := event.New()
	m := Build(eng, DefaultConfig(shape))
	defer eng.Shutdown()
	if err := m.Boot(); err != nil {
		return quietOutcome{err: err.Error()}
	}
	if hooked {
		for r := range m.Nodes {
			for _, l := range geom.AllLinks() {
				if w := m.Wire(r, l); w != nil {
					w.SetFault(func(*hssl.Frame) bool { return false })
				}
			}
		}
	}
	fold := geom.IdentityFold(shape)
	out := quietOutcome{sums: make([]uint64, shape.Volume())}
	err := m.RunSPMD("quiet", func(rank int) node.Program {
		return func(ctx *node.Ctx) { quietProgram(ctx, fold, rank, rounds, &out.sums[rank]) }
	})
	if err != nil {
		out.err = err.Error()
	}
	out.now = eng.Now()
	for r, n := range m.Nodes {
		for _, l := range geom.AllLinks() {
			if w := m.Wire(r, l); w != nil {
				out.wires = append(out.wires, w.Stats())
			}
			out.links = append(out.links, n.SCU.LinkStats(l))
			tx, rx := n.SCU.Checksums(l)
			out.check = append(out.check, tx.Sum(), tx.Count(), rx.Sum(), rx.Count())
		}
		words := make([]uint64, n.AllocWords(0)/8)
		n.Mem.ReadWords(0, words)
		f := rng.NewFold()
		for _, w := range words {
			f.Mix(w)
		}
		out.mem = append(out.mem, uint64(f))
	}
	return out
}

// quietProgram is one rank's program: each transfer round sends words
// forward (and back) along a dimension and receives the neighbours',
// then computes while the links move them; a global-sum round sums a
// word over the machine on the same links.
func quietProgram(ctx *node.Ctx, fold *geom.Fold, rank int, rounds []quietRound, sum *uint64) {
	n, p := ctx.N, ctx.P
	comm := qmp.New(ctx, fold)
	for ri, r := range rounds {
		if r.kind == quietGlobalSum {
			*sum += comm.GlobalSumUint64(p, uint64(rank<<8|ri))
			continue
		}
		fwd := geom.Link{Dim: r.dim, Dir: geom.Fwd}
		links := []geom.Link{fwd}
		if r.both {
			links = append(links, fwd.Opposite())
		}
		span := (r.words/max(1, r.block)-1)*(r.block+r.gap) + max(1, r.block)
		if r.block == 0 {
			span = r.words
		}
		rxWords := r.words
		if r.kind == quietInject {
			rxWords++ // the injected word lands in the forward receive
		}
		var ts []scu.Transfer
		post := func(t scu.Transfer, err error) {
			if err != nil {
				panic(err)
			}
			ts = append(ts, t)
		}
		bufs := make([]uint64, len(links))
		for li := range links {
			bufs[li] = n.AllocWords(span + 1)
			for w := 0; w < span; w++ {
				n.Mem.WriteWord(bufs[li]+8*uint64(w), uint64(rank)<<40|uint64(ri)<<32|uint64(li)<<24|uint64(w))
			}
		}
		recvs := func() {
			for li, l := range links {
				words, buf := r.words, bufs[li]
				if l == fwd {
					words = rxWords
				}
				if !r.alias {
					buf = n.AllocWords(span + 1)
				}
				post(n.SCU.StartRecv(l.Opposite(), r.desc(buf, words)))
			}
		}
		p.Sleep(event.Time(rank) * r.skew)
		if r.late == 0 {
			recvs()
		}
		for li, l := range links {
			post(n.SCU.StartSend(l, r.desc(bufs[li], r.words)))
		}
		if r.kind == quietInject {
			p.Sleep(r.inject)
			must(n.SCU.ConfigureGlobal(1, scu.GlobalConfig{Outs: []geom.Link{fwd}}))
			must(n.SCU.GlobalInject(1, ^uint64(rank)))
			n.SCU.DisableGlobal(1)
		}
		if r.late > 0 {
			p.Sleep(r.late)
			recvs()
		}
		p.Sleep(r.comp)
		qmp.WaitAll(p, ts...)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// quietCorpus is the seed corpus, run in every test pass: a halo
// exchange both ways on two dimensions under a compute charge, a rack
// round (post, then wait at once), skewed posts with late receives, an
// inject in the middle of a long transfer, transfers on both sides of a
// global sum over the same links, one strided, and receives that
// overwrite the words their links are still sending.
var quietCorpus = [][]byte{
	{2, 1, 0, 0x80, 12, 0, 0, 0, 200, 0, 0, 0x81, 12, 0, 0, 0, 200, 0},
	{5, 0, 0, 1, 7, 0, 0, 0, 0, 0},
	{1, 0, 0, 0x80, 13, 0, 5, 12, 50, 0},
	{0, 0, 3, 0, 13, 0, 0, 0, 100, 30},
	{4, 2, 0, 0, 10, 0, 0, 0, 40, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0x82, 11, 0x1b, 3, 0, 60, 0},
	{2, 0, 0, 0xc0, 12, 0, 0, 0, 200, 0},
}

func checkQuiet(t *testing.T, data []byte) {
	shape, rounds := decodeQuiet(data)
	clean, hooked := runQuiet(shape, rounds, false), runQuiet(shape, rounds, true)
	if !reflect.DeepEqual(clean, hooked) {
		t.Fatalf("%v %+v: the fast-forwarded run differs from the frame-by-frame one:\n clean  %s\n hooked %s",
			shape, rounds, summarize(clean), summarize(hooked))
	}
}

func summarize(o quietOutcome) string {
	return fmt.Sprintf("err %q now %v sums %v", o.err, o.now, o.sums)
}

// TestQuietLinkScheduleCorpus runs FuzzQuietLinkSchedule's seed corpus.
func TestQuietLinkScheduleCorpus(t *testing.T) {
	for _, data := range quietCorpus {
		checkQuiet(t, data)
	}
}

// FuzzQuietLinkSchedule decodes bytes into an SPMD program on at most
// 16 nodes (decodeQuiet) and runs it clean, where quiet link pairs
// fast-forward, and with a fault hook that changes nothing on every
// wire, which keeps every pair frame by frame: wire and link counters,
// checksums, memory, global sums and the final simulated time must
// agree.
func FuzzQuietLinkSchedule(f *testing.F) {
	for _, data := range quietCorpus {
		f.Add(data)
	}
	f.Fuzz(checkQuiet)
}
