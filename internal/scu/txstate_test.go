package scu

import (
	"testing"

	"qcdoc/internal/geom"
	"qcdoc/internal/scupkt"
)

// TestLinkUnitsIdleAfterRun: after Start, and again once a 24-word
// transfer with its window stalls has drained, both ends' transmit
// engines are parked idle.
func TestLinkUnitsIdleAfterRun(t *testing.T) {
	pr := newPair(t)
	units := []*linkUnit{pr.a.links[geom.LinkIndex(pr.linkA)], pr.b.links[geom.LinkIndex(pr.linkB)]}
	check := func(when string) {
		t.Helper()
		for _, lu := range units {
			if lu.tx != txIdle {
				t.Fatalf("%s: %s link %v transmit state %d, want idle (%d)", when, lu.scu.name, lu.link, lu.tx, txIdle)
			}
		}
	}
	pr.run(t)
	check("after Start")
	fillWords(pr.ma, 0, 24, 7)
	rt, _ := pr.b.StartRecv(pr.linkB, Contiguous(0x2000, 24))
	st, _ := pr.a.StartSend(pr.linkA, Contiguous(0, 24))
	pr.run(t)
	if !st.Done() || !rt.Done() {
		t.Fatal("transfers not complete")
	}
	check("after the transfer")
}

// TestContainsSeqWraps holds the one-distance window check to the scan
// it replaced, for every ring head, fill and probed sequence number,
// across the wrap at SeqMod.
func TestContainsSeqWraps(t *testing.T) {
	for head := 0; head < scupkt.SeqMod; head++ {
		for first := 0; first < scupkt.SeqMod; first++ {
			for n := 0; n < scupkt.SeqMod; n++ {
				lu := &linkUnit{unackedHead: head, unackedLen: n}
				for i := 0; i < n; i++ {
					lu.unacked[(head+i)%scupkt.SeqMod].seq = (first + i) % scupkt.SeqMod
				}
				for seq := 0; seq < scupkt.SeqMod; seq++ {
					want := false
					for i := 0; i < n; i++ {
						want = want || lu.unacked[(head+i)%scupkt.SeqMod].seq == seq
					}
					if got := lu.containsSeq(seq); got != want {
						t.Fatalf("head %d first %d len %d: containsSeq(%d) = %v, want %v", head, first, n, seq, got, want)
					}
				}
			}
		}
	}
}
