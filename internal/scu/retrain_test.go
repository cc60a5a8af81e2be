package scu

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// retrainRun drives one A->B transfer through a fault window on the
// forward wire and returns the counters the retraining tests pin.
type retrainRun struct {
	aStats    Stats
	bStats    Stats
	wire      hssl.Stats
	words     []uint64
	got       []uint64
	done      bool
	executed  uint64
	endedAt   event.Time
	aFailed   uint64 // FailedLinks mask on A
	escalated []geom.Link
}

func runRetrainScenario(t *testing.T, n int, fault func(pr *pair)) retrainRun {
	t.Helper()
	pr := newPair(t)
	var r retrainRun
	pr.a.OnLinkFailure(func(l geom.Link) { r.escalated = append(r.escalated, l) })
	r.words = fillWords(pr.ma, 0, n, 42)
	fault(pr)
	rt, err := pr.b.StartRecv(pr.linkB, Contiguous(0x1000, n))
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.a.StartSend(pr.linkA, Contiguous(0, n))
	if err != nil {
		t.Fatal(err)
	}
	pr.run(t)
	r.done = st.Done() && rt.Done()
	for i := 0; i < n; i++ {
		r.got = append(r.got, pr.mb.ReadWord(0x1000+8*uint64(i)))
	}
	r.aStats = pr.a.Stats()
	r.bStats = pr.b.Stats()
	r.wire = pr.ab.Stats()
	r.executed = pr.eng.Executed()
	r.endedAt = pr.eng.Now()
	r.aFailed = pr.a.FailedLinks()
	return r
}

// A sustained corruption burst (hssl.FlipBitEvery corrupting every
// frame until the fault is cleared) starves the window protocol of ack
// progress: the transmit link must re-train, and once the burst ends
// the transfer must complete with intact data. The satellite invariants:
// the wire re-trained, the receiver's error counters equal the injected
// corruption count, every wire frame is accounted as a first
// transmission or a resend — and all of it is bit-identical across two
// runs.
func TestFlipBitEveryForcesRetrain(t *testing.T) {
	const n = 8
	run := func() retrainRun {
		return runRetrainScenario(t, n, func(pr *pair) {
			pr.ab.SetFault(hssl.FlipBitEvery(1))
			// The burst ends at a fixed simulated time: long enough for
			// the ack-timeout streak (retrainAfter x ackTimeout) to force
			// a re-training, short enough that clean traffic resumes
			// before maxRetrains consecutive retrains would declare the
			// link dead.
			pr.eng.At((retrainAfter+1)*ackTimeout, func() { pr.ab.SetFault(nil) })
		})
	}
	r1 := run()
	r2 := run()

	if !r1.done {
		t.Fatal("transfer did not complete after the burst ended")
	}
	for i, w := range r1.words {
		if r1.got[i] != w {
			t.Fatalf("word %d = %#x, want %#x", i, r1.got[i], w)
		}
	}
	if r1.aStats.Retrains == 0 {
		t.Fatalf("link never re-trained under sustained corruption: %+v", r1.aStats)
	}
	if r1.aStats.LinkFailures != 0 || r1.aFailed != 0 {
		t.Fatalf("recoverable burst escalated to link death: %+v", r1.aStats)
	}
	// Every corrupted frame was rejected by the receiver's parity/header
	// check — the injected error count must match exactly.
	if got := r1.bStats.ParityErrors + r1.bStats.HeaderErrors; got != r1.wire.Corrupted {
		t.Fatalf("receiver saw %d errors, injector corrupted %d frames", got, r1.wire.Corrupted)
	}
	// Conservation on the wire: every launched frame is either a first
	// transmission or a resend (A sends only data on this wire).
	if r1.wire.Frames != r1.aStats.WordsSent+r1.aStats.Resends {
		t.Fatalf("wire carried %d frames, SCU accounts %d sent + %d resent",
			r1.wire.Frames, r1.aStats.WordsSent, r1.aStats.Resends)
	}
	if r1.aStats.Resends < r1.wire.Corrupted {
		t.Fatalf("%d corrupted frames but only %d resends", r1.wire.Corrupted, r1.aStats.Resends)
	}

	// Determinism: both runs dispatch identical event streams and count
	// identical recovery work.
	if r1.aStats != r2.aStats || r1.bStats != r2.bStats || r1.wire != r2.wire {
		t.Fatalf("stats diverged across runs:\n  a: %+v vs %+v\n  b: %+v vs %+v\n  wire: %+v vs %+v",
			r1.aStats, r2.aStats, r1.bStats, r2.bStats, r1.wire, r2.wire)
	}
	if r1.executed != r2.executed || r1.endedAt != r2.endedAt {
		t.Fatalf("event streams diverged: (%d, %v) vs (%d, %v)",
			r1.executed, r1.endedAt, r2.executed, r2.endedAt)
	}
}

// A permanently severed wire (hssl.Wire.Kill) makes every re-training
// "succeed" at the transmitter while restoring nothing: after
// maxRetrains with no ack progress the link must be declared dead,
// counted in link_failures, surfaced in FailedLinks, and escalated
// through OnLinkFailure — deterministically.
func TestDeadWireEscalatesToLinkFailure(t *testing.T) {
	run := func() retrainRun {
		return runRetrainScenario(t, 4, func(pr *pair) {
			pr.ab.Kill()
		})
	}
	r1 := run()
	r2 := run()

	if r1.done {
		t.Fatal("transfer completed over a dead wire")
	}
	if r1.aStats.LinkFailures != 1 {
		t.Fatalf("link_failures = %d, want 1 (%+v)", r1.aStats.LinkFailures, r1.aStats)
	}
	if r1.aStats.Retrains != 3 {
		t.Fatalf("retrains = %d, want maxRetrains = 3", r1.aStats.Retrains)
	}
	if r1.aFailed == 0 {
		t.Fatal("FailedLinks mask empty after give-up")
	}
	if len(r1.escalated) != 1 || r1.escalated[0] != (geom.Link{Dim: 0, Dir: geom.Fwd}) {
		t.Fatalf("OnLinkFailure escalation = %v", r1.escalated)
	}
	if r1.aStats != r2.aStats || r1.executed != r2.executed || r1.endedAt != r2.endedAt {
		t.Fatalf("dead-link runs diverged: %+v @ (%d, %v) vs %+v @ (%d, %v)",
			r1.aStats, r1.executed, r1.endedAt, r2.aStats, r2.executed, r2.endedAt)
	}
}
