package scu

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/scupkt"
)

// The link protocol against a reference FIFO (§2.2: three words in the
// air, ack, nak/rewind, timeout resend, retrain, give up). Two SCUs
// exchange random DMA transfers and supervisor words in both directions
// while a seeded injector flips one bit in a random subset of the frames
// on each wire — data and acknowledgements alike, singly and in bursts
// long enough to starve the window into re-training — and one variant
// severs a wire mid-run. Whatever happens on the wires, each receiver's
// memory must take exactly the words its neighbour sent, once each, in
// order, at the addresses programmed; or else the sender gives up, says
// so exactly once through OnLinkFailure, and what was delivered is
// still a clean prefix.

// modelDir is one direction of the exchange: what the sender will send
// and what the reference says the receiver's memory writes must be.
type modelDir struct {
	name      string
	tx, rx    *SCU
	txL, rxL  geom.Link
	rxMem     *testMem
	sends     []Transfer
	recvs     []Transfer
	want      []memWrite // the reference FIFO, in delivery order
	sups      []uint64   // supervisor words sent
	gotSups   []uint64   // supervisor interrupts taken at the receiver
	failures  []geom.Link
	faults    map[uint64]int // wire frame number -> bit to flip
	hitByKind [2]int         // corrupted frames: 0 data/supervisor, 1 ack
}

// faultSet draws the corrupted frame numbers of one wire: a sprinkle of
// single frames plus up to two bursts.
func faultSet(rng *rand.Rand) map[uint64]int {
	set := map[uint64]int{}
	p := []float64{0, 0.02, 0.1}[rng.Intn(3)]
	for seq := uint64(1); seq <= 400; seq++ {
		if rng.Float64() < p {
			set[seq] = rng.Intn(8 * scupkt.MaxFrameBytes)
		}
	}
	for b := rng.Intn(3); b > 0; b-- {
		start := uint64(1 + rng.Intn(150))
		for seq := start; seq < start+uint64(6+rng.Intn(9)); seq++ {
			set[seq] = rng.Intn(8 * scupkt.MaxFrameBytes)
		}
	}
	return set
}

func (d *modelDir) fault(f *hssl.Frame) bool {
	bit, ok := d.faults[f.Seq]
	if !ok {
		return false
	}
	if pkt, _, err := f.Decode(); err == nil && pkt.Kind == scupkt.Ack {
		d.hitByKind[1]++
	} else {
		d.hitByKind[0]++
	}
	f.FlipBit(bit)
	return true
}

func (d *modelDir) faultList() []uint64 {
	var seqs []uint64
	for s := range d.faults {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// randDesc is a descriptor of n words at base: contiguous, or strided
// blocks when n factors.
func randDesc(rng *rand.Rand, base uint64, n int) DMADesc {
	for _, bw := range []int{4, 3, 2} {
		if n%bw == 0 && n > bw && rng.Intn(2) == 0 {
			return DMADesc{Base: base, BlockWords: bw, NumBlocks: n / bw, StrideWords: bw + rng.Intn(3)}
		}
	}
	return Contiguous(base, n)
}

// program schedules the direction's traffic: each transfer's send on the
// sender's engine and its receive on the receiver's, a few microseconds
// before or after it (a late receive is an idle receive; one much later
// than the timeout ladder would be a dead link), plus a few supervisor
// words.
func (d *modelDir) program(t *testing.T, rng *rand.Rand, txMem *testMem, wire *hssl.Wire) {
	d.faults = faultSet(rng)
	wire.SetFault(d.fault)
	d.rx.OnSupervisor(func(_ geom.Link, w uint64) {
		if w != SupLinkFailed {
			d.gotSups = append(d.gotSups, w)
		}
	})
	d.tx.OnLinkFailure(func(l geom.Link) { d.failures = append(d.failures, l) })

	txEng, rxEng := d.tx.Engine(), d.rx.Engine()
	sendAt, recvAt := txEng.Now(), rxEng.Now()
	for k := 1 + rng.Intn(3); k > 0; k-- {
		n := 1 + rng.Intn(40)
		src := randDesc(rng, uint64(k)<<16, n)
		dst := randDesc(rng, uint64(k)<<20, n)
		for i := 0; i < n; i++ {
			w := rng.Uint64()
			txMem.WriteWord(src.Addr(i), w)
			d.want = append(d.want, memWrite{dst.Addr(i), w})
		}
		sendAt += event.Time(rng.Intn(20000)) * event.Nanosecond
		recvAt = max(recvAt, sendAt+event.Time(rng.Intn(9000)-5000)*event.Nanosecond) // receives stay in order
		txEng.At(sendAt, func() {
			st, err := d.tx.StartSend(d.txL, src)
			if err != nil {
				t.Error(err)
			}
			d.sends = append(d.sends, st)
		})
		rxEng.At(recvAt, func() {
			rt, err := d.rx.StartRecv(d.rxL, dst)
			if err != nil {
				t.Error(err)
			}
			d.recvs = append(d.recvs, rt)
		})
	}
	supAt := txEng.Now()
	for k := rng.Intn(4); k > 0; k-- {
		w := uint64(0x5000 + len(d.sups))
		d.sups = append(d.sups, w)
		supAt += event.Time(rng.Intn(15000)) * event.Nanosecond
		txEng.At(supAt, func() {
			if err := d.tx.SendSupervisor(d.txL, w); err != nil {
				t.Error(err)
			}
		})
	}
}

// check compares the direction's outcome with the reference and returns
// the first disagreement.
func (d *modelDir) check() error {
	got := d.rxMem.writes
	if len(got) > len(d.want) {
		return fmt.Errorf("%s: %d words stored, only %d sent", d.name, len(got), len(d.want))
	}
	var sum scupkt.Checksum
	for i, w := range got {
		if w != d.want[i] {
			return fmt.Errorf("%s: store %d is %#x at %#x, the reference has %#x at %#x",
				d.name, i, w.word, w.addr, d.want[i].word, d.want[i].addr)
		}
		sum.Add(w.word)
	}
	rxStats := d.rx.LinkStats(d.rxL)
	if _, rx := d.rx.Checksums(d.rxL); rx != sum || rxStats.WordsReceived != uint64(len(got)) {
		return fmt.Errorf("%s: receiver accepted %d words (checksum %v), memory took %d (checksum %v)",
			d.name, rxStats.WordsReceived, rx, len(got), sum)
	}
	// Supervisor words are at-least-once: a lost acknowledgement repeats
	// the interrupt, never reorders or skips one.
	var sups []uint64
	for _, w := range d.gotSups {
		if len(sups) == 0 || sups[len(sups)-1] != w {
			sups = append(sups, w)
		}
	}
	if len(sups) > len(d.sups) || fmt.Sprint(sups) != fmt.Sprint(d.sups[:len(sups)]) {
		return fmt.Errorf("%s: supervisor interrupts %#x, sent %#x", d.name, d.gotSups, d.sups)
	}

	txStats := d.tx.LinkStats(d.txL)
	if txStats.LinkFailures == 0 {
		if len(d.failures) != 0 {
			return fmt.Errorf("%s: OnLinkFailure ran with link_failures = 0", d.name)
		}
		for i := range d.sends {
			if !d.sends[i].Done() || !d.recvs[i].Done() {
				return fmt.Errorf("%s: transfer %d incomplete on a live link (send %v, recv %v)",
					d.name, i, d.sends[i].Done(), d.recvs[i].Done())
			}
		}
		if tx, _ := d.tx.Checksums(d.txL); len(got) != len(d.want) || tx != sum || len(sups) != len(d.sups) {
			return fmt.Errorf("%s: live link delivered %d of %d words, %d of %d supervisor words (tx checksum %v, rx %v)",
				d.name, len(got), len(d.want), len(sups), len(d.sups), tx, sum)
		}
		return nil
	}
	if txStats.LinkFailures != 1 || len(d.failures) != 1 || d.failures[0] != d.txL || !d.tx.LinkDead(d.txL) {
		return fmt.Errorf("%s: link_failures = %d, OnLinkFailure calls %v, dead %v",
			d.name, txStats.LinkFailures, d.failures, d.tx.LinkDead(d.txL))
	}
	return nil
}

// modelRun runs one seed on the pair and reports the first violation,
// with everything needed to replay and shrink it.
func modelRun(t *testing.T, seed int64, pr *pair, kill bool) (dirs [2]*modelDir) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dirs = [2]*modelDir{
		{name: "a->b", tx: pr.a, rx: pr.b, txL: pr.linkA, rxL: pr.linkB, rxMem: pr.mb},
		{name: "b->a", tx: pr.b, rx: pr.a, txL: pr.linkB, rxL: pr.linkA, rxMem: pr.ma},
	}
	dirs[0].program(t, rng, pr.ma, pr.ab)
	dirs[1].program(t, rng, pr.mb, pr.ba)
	pr.ma.trace, pr.mb.trace = true, true // from here on every write is a DMA store
	killAt := event.Time(0)
	if kill {
		killAt = pr.eng.Now() + event.Time(1+rng.Intn(40000))*event.Nanosecond
		pr.eng.At(killAt, pr.ab.Kill)
	}
	pr.run(t)
	for _, d := range dirs {
		if err := d.check(); err != nil {
			t.Fatalf("seed %d (kill a->b at %v): %v\n a->b corrupts frames %v\n b->a corrupts frames %v",
				seed, killAt, err, dirs[0].faultList(), dirs[1].faultList())
		}
	}
	return dirs
}

func TestLinkProtocolMatchesReferenceFIFO(t *testing.T) {
	const seeds = 200
	// totals[kill][cross] sums the link counters of every seed.
	var totals [2][2]Stats
	for _, v := range []struct {
		name        string
		kill, cross int
	}{
		{"same shard", 0, 0},
		{"cross shard", 0, 1},
		{"same shard, wire killed", 1, 0},
		{"cross shard, wire killed", 1, 1},
	} {
		t.Run(v.name, func(t *testing.T) {
			total := &totals[v.kill][v.cross]
			var hit [2]int
			for seed := int64(1); seed <= seeds; seed++ {
				engA := event.New()
				engB := engA
				if v.cross == 1 {
					c := event.Clusterize(engA, 2, 2, hssl.MinLatency(hssl.DefaultClock, hssl.DefaultPropagation))
					engB = c.Shard(1)
				}
				pr := newPairOn(t, engA, engB)
				for _, d := range modelRun(t, seed, pr, v.kill == 1) {
					st := d.tx.LinkStats(d.txL)
					total.Add(&st)
					hit[0] += d.hitByKind[0]
					hit[1] += d.hitByKind[1]
				}
				engA.Shutdown()
			}
			// The generator must reach the protocol's corners, and giving
			// up must stay the exception unless a wire was severed.
			if hit[0] == 0 || hit[1] == 0 || total.Resends == 0 || total.NaksSent == 0 || total.Duplicates == 0 ||
				total.Retrains == 0 || (v.kill == 1) != (total.LinkFailures > 2*seeds/10) {
				t.Fatalf("%d seeds corrupted %d data and %d ack frames: %+v", seeds, hit[0], hit[1], *total)
			}
		})
	}
	for kill, tt := range totals {
		if tt[0] != tt[1] {
			t.Fatalf("kill %d: a pair across two shards counted differently from one on a single engine:\n%+v\n%+v", kill, tt[0], tt[1])
		}
	}
}
