package scu

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// testMem is a sparse word-addressed memory. With trace set it also
// keeps every write in order, so a test can see a word stored twice.
type testMem struct {
	words  map[uint64]uint64
	trace  bool
	writes []memWrite
}

type memWrite struct{ addr, word uint64 }

func newTestMem() *testMem                  { return &testMem{words: map[uint64]uint64{}} }
func (m *testMem) ReadWord(a uint64) uint64 { return m.words[a] }
func (m *testMem) WriteWord(a uint64, w uint64) {
	m.words[a] = w
	if m.trace {
		m.writes = append(m.writes, memWrite{a, w})
	}
}

// pair is a two-node harness: node A's (0,Fwd) link is wired to node B's
// (0,Bwd) link. eng is A's engine and the one to run; B's differs from
// it when the pair straddles two shards of a cluster.
type pair struct {
	eng    *event.Engine
	a, b   *SCU
	ma, mb *testMem
	ab, ba *hssl.Wire // A->B and B->A wires
	linkA  geom.Link  // the link as seen from A
	linkB  geom.Link  // the link as seen from B
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	eng := event.New()
	return newPairOn(t, cfg, eng, eng)
}

func newPairOn(t *testing.T, cfg Config, eng, engB *event.Engine) *pair {
	t.Helper()
	ma, mb := newTestMem(), newTestMem()
	pr := newPairMem(t, cfg, eng, engB, ma, mb)
	pr.ma, pr.mb = ma, mb
	return pr
}

// newPairMem is newPairOn over the caller's memories (ma and mb stay nil).
func newPairMem(t *testing.T, cfg Config, eng, engB *event.Engine, ma, mb Memory) *pair {
	t.Helper()
	ab := hssl.NewWireBetween(eng, engB, "a->b", hssl.DefaultClock, hssl.DefaultPropagation)
	ba := hssl.NewWireBetween(engB, eng, "b->a", hssl.DefaultClock, hssl.DefaultPropagation)
	ab.TrainAsync(nil)
	ba.TrainAsync(nil)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	a := New(eng, "A", ma, cfg)
	b := New(engB, "B", mb, cfg)
	la := geom.Link{Dim: 0, Dir: geom.Fwd}
	lb := geom.Link{Dim: 0, Dir: geom.Bwd}
	a.AttachLink(la, ab, ba)
	b.AttachLink(lb, ba, ab)
	a.Start()
	b.Start()
	pr := &pair{eng: eng, a: a, b: b, ab: ab, ba: ba, linkA: la, linkB: lb}
	t.Cleanup(func() { eng.Shutdown() })
	return pr
}

func (pr *pair) run(t *testing.T) {
	t.Helper()
	if err := pr.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func fillWords(m *testMem, base uint64, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
		m.WriteWord(base+8*uint64(i), out[i])
	}
	return out
}

func TestSingleWordLatency600ns(t *testing.T) {
	// E4: memory-to-memory time for a nearest-neighbour transfer is about
	// 600 ns (§2.2).
	pr := newPair(t, Config{})
	pr.ma.WriteWord(0, 0xCAFE)
	start := pr.eng.Now()
	rt, err := pr.b.StartRecv(pr.linkB, Contiguous(0x1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.a.StartSend(pr.linkA, Contiguous(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	pr.run(t)
	if !st.Done() || !rt.Done() {
		t.Fatal("transfers not complete")
	}
	if got := pr.mb.ReadWord(0x1000); got != 0xCAFE {
		t.Fatalf("payload = %#x", got)
	}
	lat := rt.Finished() - start
	if lat < 590*event.Nanosecond || lat > 610*event.Nanosecond {
		t.Fatalf("memory-to-memory latency = %v, want ~600ns", lat)
	}
}

func Test24WordTransferTiming(t *testing.T) {
	// E4: for a 24-word transfer the 600 ns first-word latency is small
	// against the ~3.3 us for the remaining 23 words (~3.9 us total).
	pr := newPair(t, Config{})
	want := fillWords(pr.ma, 0, 24, 7)
	start := pr.eng.Now()
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x2000, 24))
	pr.a.StartSend(pr.linkA, Contiguous(0, 24))
	pr.run(t)
	for i, w := range want {
		if got := pr.mb.ReadWord(0x2000 + 8*uint64(i)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
	total := rt.Finished() - start
	lo := 3800 * event.Nanosecond
	hi := 4050 * event.Nanosecond
	if total < lo || total > hi {
		t.Fatalf("24-word transfer took %v, want ~3.9us", total)
	}
}

func TestIdleReceiveNoTemporalOrdering(t *testing.T) {
	// §2.2: the receiver holds the first three words and withholds acks,
	// so a send may start long before the receive is programmed.
	pr := newPair(t, Config{})
	want := fillWords(pr.ma, 0, 8, 9)
	st, _ := pr.a.StartSend(pr.linkA, Contiguous(0, 8))
	// Let the sender run: it must stall after 3 unacknowledged words.
	if err := pr.eng.Run(pr.eng.Now() + 10*event.Microsecond); err != nil {
		t.Fatal(err)
	}
	if st.Done() {
		t.Fatal("send completed with no receiver programmed")
	}
	sent := pr.a.LinkStats(pr.linkA).WordsSent
	if sent != 3 {
		t.Fatalf("sender transmitted %d words while blocked, want 3 (window)", sent)
	}
	// Now program the receive; everything flows.
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x3000, 8))
	pr.run(t)
	if !st.Done() || !rt.Done() {
		t.Fatal("transfers incomplete after receive programmed")
	}
	for i, w := range want {
		if got := pr.mb.ReadWord(0x3000 + 8*uint64(i)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestConcurrentBidirectional(t *testing.T) {
	// §2.2: concurrent sends and receives to each neighbour.
	pr := newPair(t, Config{})
	wantAB := fillWords(pr.ma, 0, 32, 11)
	wantBA := fillWords(pr.mb, 0x8000, 32, 13)
	rtB, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x4000, 32))
	rtA, _ := pr.a.StartRecv(pr.linkA, Contiguous(0x4000, 32))
	pr.a.StartSend(pr.linkA, Contiguous(0, 32))
	pr.b.StartSend(pr.linkB, Contiguous(0x8000, 32))
	pr.run(t)
	if !rtA.Done() || !rtB.Done() {
		t.Fatal("incomplete")
	}
	for i := range wantAB {
		if got := pr.mb.ReadWord(0x4000 + 8*uint64(i)); got != wantAB[i] {
			t.Fatalf("A->B word %d wrong", i)
		}
		if got := pr.ma.ReadWord(0x4000 + 8*uint64(i)); got != wantBA[i] {
			t.Fatalf("B->A word %d wrong", i)
		}
	}
}

func TestBlockStridedDMA(t *testing.T) {
	// Gather on the send side, scatter on the receive side, with
	// different shapes (same total).
	pr := newPair(t, Config{})
	desc := DMADesc{Base: 0, BlockWords: 2, NumBlocks: 4, StrideWords: 10}
	var want []uint64
	for i := 0; i < desc.TotalWords(); i++ {
		w := uint64(0xA0) + uint64(i)*0x1111
		pr.ma.WriteWord(desc.Addr(i), w)
		want = append(want, w)
	}
	rdesc := DMADesc{Base: 0x5000, BlockWords: 4, NumBlocks: 2, StrideWords: 16}
	rt, _ := pr.b.StartRecv(pr.linkB, rdesc)
	pr.a.StartSend(pr.linkA, desc)
	pr.run(t)
	if !rt.Done() {
		t.Fatal("incomplete")
	}
	for i, w := range want {
		if got := pr.mb.ReadWord(rdesc.Addr(i)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDMADescValidation(t *testing.T) {
	pr := newPair(t, Config{})
	bad := []DMADesc{
		{Base: 0, BlockWords: 0, NumBlocks: 1, StrideWords: 1},
		{Base: 0, BlockWords: 1, NumBlocks: 0, StrideWords: 1},
		{Base: 0, BlockWords: 4, NumBlocks: 2, StrideWords: 2}, // overlap
		{Base: 3, BlockWords: 1, NumBlocks: 1, StrideWords: 1}, // unaligned
	}
	for _, d := range bad {
		if _, err := pr.a.StartSend(pr.linkA, d); err == nil {
			t.Errorf("descriptor %+v accepted", d)
		}
	}
	if _, err := pr.a.StartSend(geom.Link{Dim: 3, Dir: geom.Fwd}, Contiguous(0, 1)); err == nil {
		t.Error("unattached link accepted")
	}
}

// TestDMAAddrMatchesBlockFormula holds Addr's one-block path to the
// block-strided formula on seeded random one-block and strided
// descriptors.
func TestDMAAddrMatchesBlockFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 2000; k++ {
		d := DMADesc{Base: 8 * uint64(rng.Intn(1<<20)), BlockWords: 1 + rng.Intn(64), NumBlocks: 1}
		d.StrideWords = d.BlockWords + rng.Intn(16)
		if k%2 == 1 {
			d.BlockWords, d.NumBlocks = 1+rng.Intn(8), 2+rng.Intn(8)
			d.StrideWords = d.BlockWords + rng.Intn(16)
		}
		for i := 0; i < d.TotalWords(); i++ {
			want := d.Base + 8*uint64(i/d.BlockWords*d.StrideWords+i%d.BlockWords)
			if got := d.Addr(i); got != want {
				t.Fatalf("%+v: Addr(%d) = %#x, block formula %#x", d, i, got, want)
			}
		}
	}
}

func TestSingleBitErrorAutoResend(t *testing.T) {
	// E12: a single bit error is detected by parity and repaired by the
	// automatic hardware resend; the delivered data is correct and the
	// end-of-link checksums agree.
	pr := newPair(t, Config{})
	want := fillWords(pr.ma, 0, 16, 21)
	// Corrupt a payload bit of the 5th data frame on the A->B wire.
	pr.ab.SetFault(hssl.FlipBitOnce(5, 23))
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x6000, 16))
	st, _ := pr.a.StartSend(pr.linkA, Contiguous(0, 16))
	pr.run(t)
	if !st.Done() || !rt.Done() {
		t.Fatal("incomplete")
	}
	for i, w := range want {
		if got := pr.mb.ReadWord(0x6000 + 8*uint64(i)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
	bs := pr.b.LinkStats(pr.linkB)
	as := pr.a.LinkStats(pr.linkA)
	if bs.ParityErrors+bs.HeaderErrors == 0 {
		t.Fatal("no error detected at receiver")
	}
	if bs.NaksSent == 0 {
		t.Fatal("no nak sent")
	}
	if as.Resends == 0 {
		t.Fatal("no resend performed")
	}
	txSum, _ := pr.a.Checksums(pr.linkA)
	_, rxSum := pr.b.Checksums(pr.linkB)
	if !txSum.Equal(&rxSum) {
		t.Fatalf("end-of-link checksums disagree after recovery: tx %d/%#x rx %d/%#x",
			txSum.Count(), txSum.Sum(), rxSum.Count(), rxSum.Sum())
	}
}

func TestRepeatedErrorsSoak(t *testing.T) {
	// Corrupt every 7th frame on the data wire; the transfer must still
	// complete correctly.
	pr := newPair(t, Config{AckTimeout: 5 * event.Microsecond})
	want := fillWords(pr.ma, 0, 200, 33)
	pr.ab.SetFault(hssl.FlipBitEvery(7))
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x7000, 200))
	st, _ := pr.a.StartSend(pr.linkA, Contiguous(0, 200))
	pr.run(t)
	if !st.Done() || !rt.Done() {
		t.Fatal("incomplete")
	}
	for i, w := range want {
		if got := pr.mb.ReadWord(0x7000 + 8*uint64(i)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
	txSum, _ := pr.a.Checksums(pr.linkA)
	_, rxSum := pr.b.Checksums(pr.linkB)
	if !txSum.Equal(&rxSum) {
		t.Fatal("checksums disagree after soak")
	}
}

func TestAckCorruptionRecovered(t *testing.T) {
	// Corrupting the reverse (ack-carrying) wire stalls the window until
	// the acknowledgement timeout resends the oldest word and the
	// receiver re-acks.
	pr := newPair(t, Config{AckTimeout: 5 * event.Microsecond})
	want := fillWords(pr.ma, 0, 8, 41)
	pr.ba.SetFault(hssl.FlipBitEvery(3)) // hits ack frames B->A
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x8000, 8))
	st, _ := pr.a.StartSend(pr.linkA, Contiguous(0, 8))
	pr.run(t)
	if !st.Done() || !rt.Done() {
		t.Fatal("incomplete")
	}
	for i, w := range want {
		if got := pr.mb.ReadWord(0x8000 + 8*uint64(i)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSupervisorInterrupt(t *testing.T) {
	// §2.2: a supervisor packet lands in the neighbour's SCU register and
	// raises a CPU interrupt there.
	pr := newPair(t, Config{})
	var got []uint64
	var gotLink geom.Link
	pr.b.OnSupervisor(func(l geom.Link, w uint64) {
		gotLink = l
		got = append(got, w)
	})
	if err := pr.a.SendSupervisor(pr.linkA, 0xFEED); err != nil {
		t.Fatal(err)
	}
	pr.run(t)
	if len(got) != 1 || got[0] != 0xFEED {
		t.Fatalf("supervisor words = %v", got)
	}
	if gotLink != pr.linkB {
		t.Fatalf("arrived on link %v", gotLink)
	}
	if pr.b.LastSupervisor(pr.linkB) != 0xFEED {
		t.Fatal("supervisor register not written")
	}
	// Several queued supervisors deliver in order.
	for i := uint64(1); i <= 4; i++ {
		pr.a.SendSupervisor(pr.linkA, i)
	}
	pr.run(t)
	if len(got) != 5 {
		t.Fatalf("got %d supervisors", len(got))
	}
	for i := uint64(1); i <= 4; i++ {
		if got[i] != i {
			t.Fatalf("supervisor %d = %d", i, got[i])
		}
	}
}

func TestSupervisorDuringDataTransfer(t *testing.T) {
	// Supervisors multiplex onto a busy link without corrupting the data
	// stream.
	pr := newPair(t, Config{})
	want := fillWords(pr.ma, 0, 64, 55)
	var sup []uint64
	pr.b.OnSupervisor(func(_ geom.Link, w uint64) { sup = append(sup, w) })
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x9000, 64))
	pr.a.StartSend(pr.linkA, Contiguous(0, 64))
	pr.eng.After(2*event.Microsecond, func() {
		pr.a.SendSupervisor(pr.linkA, 0xBEEF)
	})
	pr.run(t)
	if !rt.Done() {
		t.Fatal("incomplete")
	}
	for i, w := range want {
		if got := pr.mb.ReadWord(0x9000 + 8*uint64(i)); got != w {
			t.Fatalf("word %d wrong", i)
		}
	}
	if len(sup) != 1 || sup[0] != 0xBEEF {
		t.Fatalf("sup = %v", sup)
	}
}

func TestPartitionInterruptTwoNodes(t *testing.T) {
	pr := newPair(t, Config{})
	pr.a.RaisePartIRQ(0x04)
	pr.run(t)
	if pr.b.PartIRQPending() != 0x04 {
		t.Fatalf("B pending = %#x", pr.b.PartIRQPending())
	}
	// Status is only visible after the global clock samples it.
	if pr.b.PartIRQStatus() != 0 {
		t.Fatal("status latched before window tick")
	}
	var irqs []uint8
	pr.b.OnPartIRQ(func(m uint8) { irqs = append(irqs, m) })
	pr.a.WindowTick()
	pr.b.WindowTick()
	if pr.b.PartIRQStatus() != 0x04 {
		t.Fatalf("B status = %#x", pr.b.PartIRQStatus())
	}
	if len(irqs) != 1 || irqs[0] != 0x04 {
		t.Fatalf("irqs = %v", irqs)
	}
	// No duplicate forwarding storms: each side sent the bit at most once.
	if s := pr.a.LinkStats(pr.linkA).PartIRQsSent; s != 1 {
		t.Fatalf("A sent %d partirq packets", s)
	}
	// Clearing resets pending and status.
	pr.a.ClearPartIRQ(0x04)
	pr.b.ClearPartIRQ(0x04)
	if pr.a.PartIRQPending() != 0 || pr.b.PartIRQStatus() != 0 {
		t.Fatal("clear failed")
	}
}

// ring builds n nodes connected in a 1-D torus along dimension 0.
func ring(t *testing.T, n int, cfg Config) (*event.Engine, []*SCU, []*testMem) {
	t.Helper()
	eng := event.New()
	fwd := make([]*hssl.Wire, n) // fwd[i]: i -> i+1
	bwd := make([]*hssl.Wire, n) // bwd[i]: i+1 -> i
	for i := 0; i < n; i++ {
		fwd[i] = hssl.NewWire(eng, fmt.Sprintf("f%d", i), hssl.DefaultClock, hssl.DefaultPropagation)
		bwd[i] = hssl.NewWire(eng, fmt.Sprintf("b%d", i), hssl.DefaultClock, hssl.DefaultPropagation)
		w1, w2 := fwd[i], bwd[i]
		w1.TrainAsync(func() { w2.TrainAsync(nil) })
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	scus := make([]*SCU, n)
	mems := make([]*testMem, n)
	for i := 0; i < n; i++ {
		mems[i] = newTestMem()
		scus[i] = New(eng, fmt.Sprintf("n%d", i), mems[i], cfg)
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		prev := (i - 1 + n) % n
		scus[i].AttachLink(geom.Link{Dim: 0, Dir: geom.Fwd}, fwd[i], bwd[i])
		scus[i].AttachLink(geom.Link{Dim: 0, Dir: geom.Bwd}, bwd[prev], fwd[prev])
		_ = next
	}
	for _, s := range scus {
		s.Start()
	}
	t.Cleanup(func() { eng.Shutdown() })
	return eng, scus, mems
}

func TestGlobalRingBroadcastSum(t *testing.T) {
	// §2.2 Global operations: each node contributes one word; words pass
	// through the ring so every node collects all N words after N-1 hops.
	const n = 4
	eng, scus, _ := ring(t, n, Config{})
	collected := make([][]uint64, n)
	lin := geom.Link{Dim: 0, Dir: geom.Bwd}
	lout := geom.Link{Dim: 0, Dir: geom.Fwd}
	for i, s := range scus {
		i := i
		err := s.ConfigureGlobal(0, GlobalConfig{
			In: lin, HasIn: true,
			Outs:    []geom.Link{lout},
			Expect:  n - 1,
			Forward: n - 2,
			OnWord:  func(_ int, w uint64) { collected[i] = append(collected[i], w) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range scus {
		if err := s.GlobalInject(0, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, s := range scus {
		if !s.GlobalDone(0) {
			t.Fatalf("node %d stream not done", i)
		}
		// Node i receives, in order, the words of i-1, i-2, ... (mod n).
		if len(collected[i]) != n-1 {
			t.Fatalf("node %d collected %d words", i, len(collected[i]))
		}
		for k, w := range collected[i] {
			origin := (i - 1 - k + 2*n) % n
			if w != uint64(100+origin) {
				t.Fatalf("node %d word %d = %d, want %d", i, k, w, 100+origin)
			}
		}
	}
}

func TestGlobalDoubledMode(t *testing.T) {
	// The doubled functionality: two disjoint streams run both ring
	// directions at once, halving the hop count.
	const n = 4
	eng, scus, _ := ring(t, n, Config{})
	got := make([]map[uint64]bool, n)
	fwdL := geom.Link{Dim: 0, Dir: geom.Fwd}
	bwdL := geom.Link{Dim: 0, Dir: geom.Bwd}
	kf := n / 2      // words arriving from the left (forward stream)
	kb := n - 1 - kf // words arriving from the right (backward stream)
	for i, s := range scus {
		i := i
		got[i] = map[uint64]bool{}
		if err := s.ConfigureGlobal(0, GlobalConfig{
			In: bwdL, HasIn: true, Outs: []geom.Link{fwdL},
			Expect: kf, Forward: kf - 1,
			OnWord: func(_ int, w uint64) { got[i][w] = true },
		}); err != nil {
			t.Fatal(err)
		}
		cfg := GlobalConfig{
			In: fwdL, HasIn: true, Outs: []geom.Link{bwdL},
			Expect: kb, Forward: kb - 1,
			OnWord: func(_ int, w uint64) { got[i][w] = true },
		}
		if cfg.Forward < 0 {
			cfg.Forward = 0
		}
		if err := s.ConfigureGlobal(1, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range scus {
		s.GlobalInject(0, uint64(100+i))
		s.GlobalInject(1, uint64(100+i))
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, s := range scus {
		if !s.GlobalDone(0) || !s.GlobalDone(1) {
			t.Fatalf("node %d streams incomplete", i)
		}
		if len(got[i]) != n-1 {
			t.Fatalf("node %d collected %v", i, got[i])
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if !got[i][uint64(100+j)] {
				t.Fatalf("node %d missing word of node %d", i, j)
			}
		}
	}
}

func TestGlobalStreamValidation(t *testing.T) {
	pr := newPair(t, Config{})
	ok := GlobalConfig{In: pr.linkA, HasIn: true, Outs: []geom.Link{pr.linkA}, Expect: 1, Forward: 0}
	if err := pr.a.ConfigureGlobal(0, ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Same receive side on the second stream must be rejected.
	if err := pr.a.ConfigureGlobal(1, ok); err == nil {
		t.Fatal("conflicting receive side accepted")
	}
	// But the opposite direction pair is disjoint and fine after using
	// distinct tx/rx resources... here both sides are taken, so reuse of
	// the transmit side must also be rejected.
	bad := GlobalConfig{Outs: []geom.Link{pr.linkA}, Expect: 0, Forward: 0}
	if err := pr.a.ConfigureGlobal(1, bad); err == nil {
		t.Fatal("conflicting transmit side accepted")
	}
	pr.a.DisableGlobal(0)
	if err := pr.a.ConfigureGlobal(0, ok); err != nil {
		t.Fatalf("reconfigure after disable failed: %v", err)
	}
	// Unattached links rejected.
	pr.a.DisableGlobal(0)
	if err := pr.a.ConfigureGlobal(0, GlobalConfig{In: geom.Link{Dim: 5, Dir: geom.Fwd}, HasIn: true}); err == nil {
		t.Fatal("unattached in link accepted")
	}
}

func TestTransferIntegrityQuick(t *testing.T) {
	// Property: any transfer size and stride pattern delivers exactly the
	// source words, in order, under random single-frame corruption.
	f := func(seed int64, sizeSel, strideSel uint8, faultFrame uint8, faultBit uint16) bool {
		pr := newPair(t, Config{AckTimeout: 5 * event.Microsecond})
		n := int(sizeSel%32) + 1
		stride := int(strideSel%5) + 1
		desc := DMADesc{Base: 0, BlockWords: 1, NumBlocks: n, StrideWords: stride}
		rng := rand.New(rand.NewSource(seed))
		want := make([]uint64, n)
		for i := range want {
			want[i] = rng.Uint64()
			pr.ma.WriteWord(desc.Addr(i), want[i])
		}
		pr.ab.SetFault(hssl.FlipBitOnce(uint64(faultFrame%16)+1, int(faultBit)))
		rt, err := pr.b.StartRecv(pr.linkB, Contiguous(0xA000, n))
		if err != nil {
			return false
		}
		if _, err := pr.a.StartSend(pr.linkA, desc); err != nil {
			return false
		}
		if err := pr.eng.RunAll(); err != nil {
			return false
		}
		if !rt.Done() {
			return false
		}
		for i, w := range want {
			if pr.mb.ReadWord(0xA000+8*uint64(i)) != w {
				return false
			}
		}
		txSum, _ := pr.a.Checksums(pr.linkA)
		_, rxSum := pr.b.Checksums(pr.linkB)
		return txSum.Equal(&rxSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSustainsFullBandwidth(t *testing.T) {
	// E6/§2.2: with three words in the air the link runs at the
	// serialization limit (72 bits per word), so 500 words take about
	// 500 x 144 ns. With a window of 1 the handshake round trip gates
	// every word and throughput collapses — the reason the hardware uses
	// three.
	elapsed := func(window int) event.Time {
		pr := newPair(t, Config{Window: window})
		fillWords(pr.ma, 0, 500, 77)
		start := pr.eng.Now()
		rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x10000, 500))
		pr.a.StartSend(pr.linkA, Contiguous(0, 500))
		pr.run(t)
		return rt.Finished() - start
	}
	t3 := elapsed(3)
	t1 := elapsed(1)
	// Window 3: ~ 250ns startup + 500*144ns + tail ≈ 72.5us.
	ideal := 500 * 144 * event.Nanosecond
	if t3 > ideal+2*event.Microsecond {
		t.Fatalf("window-3 transfer took %v, not serialization-bound (%v)", t3, ideal)
	}
	// Window 1 pays the ~42 ns ack round trip (16-bit ack + two flight
	// times) on every word; window 3 hides it entirely.
	handshake := 500 * 40 * event.Nanosecond
	if t1 < t3+handshake {
		t.Fatalf("window-1 (%v) should pay the per-word handshake over window-3 (%v)", t1, t3)
	}
}
