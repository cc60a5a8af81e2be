package scu

import (
	"reflect"
	"testing"

	"qcdoc/internal/event"
)

// TestStaleHandle: a transfer's handle outlives its record's turn. Once
// A has completed, the next transfers the two SCUs program (B) reuse
// A's records; A's handles must still read as done, their Wait must
// return without parking, and Finished must keep to its contract —
// exact until the reuse, a panic after it, never B's time.
func TestStaleHandle(t *testing.T) {
	pr := newPair(t)
	fillWords(pr.ma, 0, 8, 3)
	rtA, err := pr.b.StartRecv(pr.linkB, Contiguous(0x1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	stA, err := pr.a.StartSend(pr.linkA, Contiguous(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	pr.run(t)
	finA := rtA.Finished() // before any reuse: exact

	rtB, err := pr.b.StartRecv(pr.linkB, Contiguous(0x2000, 8))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := pr.a.StartSend(pr.linkA, Contiguous(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rtB.rec != rtA.rec || stB.rec != stA.rec {
		t.Fatal("B did not reuse A's records; the test needs a reuse")
	}
	if !rtA.Done() || !stA.Done() {
		t.Fatal("a stale handle reports not done")
	}
	if rtB.Done() || stB.Done() {
		t.Fatal("B reports done before it ran")
	}
	for name, h := range map[string]Transfer{"stale receive": rtA, "stale send": stA} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Finished after reuse returned instead of panicking", name)
				}
			}()
			h.Finished()
		}()
	}

	// A stale Wait returns at once, B's only once B has landed.
	start := pr.eng.Now()
	var staleAt, freshAt event.Time
	pr.eng.Spawn("waiter", func(p *event.Proc) {
		rtA.Wait(p)
		stA.Wait(p)
		staleAt = p.Now()
		rtB.Wait(p)
		freshAt = p.Now()
	})
	pr.run(t)
	if staleAt != start {
		t.Errorf("stale Wait returned at %v, want at once (%v)", staleAt, start)
	}
	if finB := rtB.Finished(); freshAt != finB || finB == finA || finB <= start {
		t.Errorf("B finished at %v and its waiter woke at %v (A finished at %v, B started at %v)", finB, freshAt, finA, start)
	}
	for i := 0; i < 8; i++ {
		if got, want := pr.mb.ReadWord(0x2000+8*uint64(i)), pr.ma.ReadWord(8*uint64(i)); got != want {
			t.Fatalf("B's word %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestRecordResetOnReuse: a reused record holds nothing of its earlier
// transfer. A leaves its record with every per-transfer field set —
// completed, all words done, a finish time, a waiter's storage in the
// gate, touches' cached "no overlap" in apart — and B, on the same SCU
// but another direction, size and address, must find the record equal
// to a fresh one apart from its generation.
func TestRecordResetOnReuse(t *testing.T) {
	pr := newPair(t)
	fillWords(pr.ma, 0, 16, 5)
	rtA, err := pr.b.StartRecv(pr.linkB, Contiguous(0x1000, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.a.StartSend(pr.linkA, Contiguous(0, 16)); err != nil {
		t.Fatal(err)
	}
	if pr.b.touches(rtA.rec) || rtA.rec.apart == 0 {
		t.Fatal("a lone receive touches nothing, and the answer is cached")
	}
	pr.eng.Spawn("A waiter", func(p *event.Proc) { rtA.Wait(p) })
	pr.run(t)
	a := rtA.rec
	if !a.completed || a.wordsDone != 16 || a.finished == 0 || a.apart == 0 || reflect.DeepEqual(a.done, *event.NewGate(pr.eng)) {
		t.Fatalf("A's record is not fully used: %+v", *a)
	}

	desc := Contiguous(0x3000, 3)
	stB, err := pr.b.StartSend(pr.linkB, desc)
	if err != nil {
		t.Fatal(err)
	}
	if stB.rec != a {
		t.Fatal("B did not reuse A's record")
	}
	want := transfer{link: pr.linkB, desc: desc, send: true, total: 3, done: *event.NewGate(pr.eng), gen: a.gen, scu: pr.b}
	if !reflect.DeepEqual(*a, want) {
		t.Errorf("reused record\n%+v\nwant a fresh one\n%+v", *a, want)
	}
}

// TestRecordsComeInBlocks: past its two embedded records an SCU takes
// transfer records from the heap eight to a block, so the dozen a halo
// exchange keeps live per node are two objects, not a dozen. Eleven
// receives posted at once each hold a record of their own.
func TestRecordsComeInBlocks(t *testing.T) {
	pr := newPair(t)
	free := func() (n int) {
		for r := pr.b.free; r != nil; r = r.next {
			n++
		}
		return n
	}
	held := map[*transfer]bool{}
	for i, want := range []int{1, 0, 7, 6, 5, 4, 3, 2, 1, 0, 7} {
		rt, err := pr.b.StartRecv(pr.linkB, Contiguous(uint64(0x1000+64*i), 4))
		if err != nil {
			t.Fatal(err)
		}
		if held[rt.rec] {
			t.Fatalf("receive %d holds a record already in use", i)
		}
		held[rt.rec] = true
		if got := free(); got != want {
			t.Fatalf("after receive %d: %d free records, want %d", i, got, want)
		}
	}
}
