package event

// Timer is a reusable one-shot timer bound to a fixed callback — the
// continuation tier's pooled replacement for the "After(d, closure)"
// pattern on per-word hot paths. The callback closure is allocated once,
// when the timer is created; arming, re-arming, stopping, and firing
// allocate nothing.
//
// A Timer carries a generation counter: every Arm or Stop bumps it, so
// a scheduled firing whose stamp no longer matches is a stale event and
// does nothing. Re-arming therefore implicitly cancels the previous
// arming — exactly the semantics the SCU's acknowledgement-timeout
// registers need (each window-head pop restarts the clock).
//
// Timers are single-shot: the callback runs once per Arm. Periodic
// behaviour is the callback re-arming its own timer.
type Timer struct {
	eng *Engine
	fn  func()
	gen uint64
}

// NewTimer creates a timer on the engine with a fixed callback. This is
// the only allocating step of a timer's life; create timers at
// construction time and reuse them.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Arm schedules the callback to run d from now, cancelling any earlier
// arming still in flight.
//
//qcdoc:noalloc
func (t *Timer) Arm(d Time) {
	t.gen++
	t.eng.AfterHandler(d, t, t.gen)
}

// ArmAt schedules the callback to run at time at, cancelling any earlier
// arming still in flight.
//
//qcdoc:noalloc
func (t *Timer) ArmAt(at Time) {
	t.gen++
	t.eng.AtHandler(at, t, t.gen)
}

// Stop cancels the pending arming, if any. The already-queued event
// still dispatches but matches no generation and does nothing.
//
//qcdoc:noalloc
func (t *Timer) Stop() { t.gen++ }

// HandleEvent dispatches a scheduled firing; stale generations are
// ignored. It implements Handler and is not meant to be called directly.
//
//qcdoc:noalloc
func (t *Timer) HandleEvent(gen uint64) {
	if t.gen == gen {
		t.fn()
	}
}
