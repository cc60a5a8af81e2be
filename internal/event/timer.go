package event

// Timer is a reusable one-shot timer bound to a fixed callback — the
// continuation tier's pooled replacement for the "After(d, closure)"
// pattern on per-word hot paths. The callback, a Handler and argument,
// is bound once (Bind; NewTimer for a closure); arming, re-arming,
// stopping, and firing allocate nothing.
//
// Arming an armed timer cancels the earlier arming — what the SCU's
// acknowledgement-timeout registers need (each window-head pop restarts
// the clock) — and is lazy: a timer keeps one live firing in the queue.
// An Arm no earlier than that firing only records the deadline and takes
// the sequence number its own firing would have been given; the queued
// firing, when it runs early, moves to the deadline under that number.
// The callback so runs at exactly the (time, sequence) position it would
// hold if every Arm queued an event, at one event per timeout period
// instead of one per Arm. Only an ArmAt earlier than the queued firing
// queues a second one, and the superseded firing does nothing.
//
// Timers are single-shot: the callback runs once per Arm. Periodic
// behaviour is the callback re-arming its own timer.
type Timer struct {
	eng *Engine
	h   Handler
	arg uint64
	// The armed deadline and the sequence number of the Arm that set it
	// (at < 0: not armed); the live queued firing's key (qAt < 0: none).
	at, qAt   Time
	seq, qSeq uint64
}

// NewTimer creates a timer on the engine with a fixed callback. This is
// the only allocating step of a timer's life; create timers at
// construction time and reuse them.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := new(Timer)
	t.Bind(e, funcHandler(fn), 0)
	return t
}

// Bind makes t (held by value: no object) an unarmed timer whose firing
// calls h.HandleEvent(arg).
func (t *Timer) Bind(e *Engine, h Handler, arg uint64) {
	*t = Timer{eng: e, h: h, arg: arg, at: -1, qAt: -1}
}

// Arm schedules the callback to run d from now, cancelling any earlier
// arming.
func (t *Timer) Arm(d Time) { t.ArmAt(t.eng.now + d) }

// ArmAt schedules the callback to run at time at (clamped to now if in
// the past), cancelling any earlier arming.
func (t *Timer) ArmAt(at Time) {
	e := t.eng
	at = max(at, e.now)
	t.at = at
	if t.qAt >= 0 && t.qAt <= at {
		e.seq++ // the queued firing will carry the deadline on
		t.seq = e.seq
		return
	}
	e.enqueue(at, t, 0, e.curFlow)
	t.seq, t.qAt, t.qSeq = e.seq, at, e.seq
}

// Stop cancels the pending arming, if any.
func (t *Timer) Stop() { t.at = -1 }

// Deadline returns an armed timer's deadline; Queued when its queued
// firing runs, at or before the deadline (moving on to it if early).
func (t *Timer) Deadline() (Time, bool) { return t.at, t.at >= 0 }
func (t *Timer) Queued() (Time, bool)   { return t.qAt, t.at >= 0 && t.qAt >= 0 }

// HandleEvent dispatches a queued firing: the armed one runs the
// callback, one a later Arm overtook moves on to the deadline, a stopped
// or superseded one does nothing. It implements Handler and is not meant
// to be called directly.
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
		t.h.HandleEvent(t.arg)
	default:
		e.requeue(t.at, t.seq, t)
		t.qAt, t.qSeq = t.at, t.seq
	}
}
