package event

// Timer is a reusable one-shot timer bound to a fixed callback — the
// continuation tier's pooled replacement for the "After(d, closure)"
// pattern on per-word hot paths. The callback closure is allocated once,
// when the timer is created; arming, re-arming, stopping, and firing
// allocate nothing.
//
// Arming an armed timer cancels the earlier arming — the semantics the
// SCU's acknowledgement-timeout registers need (each window-head pop
// restarts the clock) — and it is lazy: a timer keeps at most one live
// firing in the queue. An Arm whose deadline is no earlier than that
// firing only records the new deadline and takes the sequence number a
// firing of its own would have been given; the queued firing, when it
// runs ahead of the deadline, moves itself there under that number. The
// callback therefore runs at exactly the (time, sequence) position it
// would hold if every Arm queued its own event, and a link that re-arms
// once per acknowledged word costs the queue one event per timeout
// period, not one per word. Only an ArmAt earlier than the queued firing
// queues a second one, and the superseded firing does nothing.
//
// Timers are single-shot: the callback runs once per Arm. Periodic
// behaviour is the callback re-arming its own timer.
type Timer struct {
	eng *Engine
	fn  func()
	// The armed deadline and the sequence number of the Arm that set it;
	// at < 0 while the timer is not armed.
	at  Time
	seq uint64
	// The live queued firing's key; qAt < 0 when there is none.
	qAt  Time
	qSeq uint64
}

// NewTimer creates a timer on the engine with a fixed callback. This is
// the only allocating step of a timer's life; create timers at
// construction time and reuse them.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn, at: -1, qAt: -1}
}

// Arm schedules the callback to run d from now, cancelling any earlier
// arming.
//
//qcdoc:noalloc
func (t *Timer) Arm(d Time) { t.ArmAt(t.eng.now + d) }

// ArmAt schedules the callback to run at time at (clamped to now if in
// the past), cancelling any earlier arming.
//
//qcdoc:noalloc
func (t *Timer) ArmAt(at Time) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	t.at = at
	if t.qAt >= 0 && t.qAt <= at {
		e.seq++ // the queued firing will carry the deadline on
		t.seq = e.seq
		return
	}
	e.enqueue(at, nil, t, 0, e.curFlow)
	t.seq, t.qAt, t.qSeq = e.seq, at, e.seq
}

// Stop cancels the pending arming, if any. A queued firing still
// dispatches and finds nothing armed.
//
//qcdoc:noalloc
func (t *Timer) Stop() { t.at = -1 }

// HandleEvent dispatches a queued firing: it runs the callback if it is
// the armed one, moves on to the deadline if a later Arm set one, and
// does nothing if the timer was stopped or an earlier ArmAt superseded
// it. It implements Handler and is not meant to be called directly.
//
//qcdoc:noalloc
func (t *Timer) HandleEvent(uint64) {
	e := t.eng
	if e.lastSeq != t.qSeq {
		return
	}
	t.qAt = -1
	switch {
	case t.at < 0:
	case t.seq == t.qSeq:
		t.at = -1
		t.fn()
	default:
		e.requeue(t.at, t.seq, t)
		t.qAt, t.qSeq = t.at, t.seq
	}
}
