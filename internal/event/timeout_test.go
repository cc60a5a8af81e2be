package event

import "testing"

// A timed gate wait wakes on Fire before the deadline and reports true;
// the stale deadline event must then find nothing to wake.
func TestGateWaitUntilFiresBeforeDeadline(t *testing.T) {
	eng := New()
	g := NewGate(eng)
	var fired bool
	var wokeAt Time
	eng.Spawn("waiter", func(p *Proc) {
		fired = g.WaitUntil(p, "test", 100)
		wokeAt = p.Now()
	})
	eng.At(30, g.Fire)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatalf("WaitUntil = false, want true (Fire at 30, deadline 100)")
	}
	if wokeAt != 30 {
		t.Fatalf("woke at %v, want 30", wokeAt)
	}
	if g.Waiting() != 0 {
		t.Fatalf("%d waiters left on gate", g.Waiting())
	}
}

func TestGateWaitUntilTimesOut(t *testing.T) {
	eng := New()
	g := NewGate(eng)
	var fired bool
	var wokeAt Time
	eng.Spawn("waiter", func(p *Proc) {
		fired = g.WaitUntil(p, "test", 100)
		wokeAt = p.Now()
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("WaitUntil = true, want timeout")
	}
	if wokeAt != 100 {
		t.Fatalf("woke at %v, want 100", wokeAt)
	}
	if g.Waiting() != 0 {
		t.Fatalf("%d waiters left on gate after timeout", g.Waiting())
	}
}

// A past (or present) deadline returns false without parking, and a
// re-wait after a timeout gets a fresh generation: the earlier deadline
// event must not wake the new wait early.
func TestGateWaitUntilRewait(t *testing.T) {
	eng := New()
	g := NewGate(eng)
	var first, second, immediate bool
	var wokeAt Time
	eng.Spawn("waiter", func(p *Proc) {
		first = g.WaitUntil(p, "a", 50)
		second = g.WaitUntil(p, "b", 200)
		wokeAt = p.Now()
		immediate = g.WaitUntil(p, "c", p.Now()) // deadline == now
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if first || second || immediate {
		t.Fatalf("waits = %v,%v,%v; want all timeouts", first, second, immediate)
	}
	if wokeAt != 200 {
		t.Fatalf("second wait woke at %v, want 200", wokeAt)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	eng := New()
	q := NewQueue[int](eng, "box")
	type got struct {
		v  int
		ok bool
		at Time
	}
	var results []got
	eng.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.GetTimeout(p, 100)
			results = append(results, got{v, ok, p.Now()})
		}
	})
	eng.At(40, func() { q.Put(7) })  // arrives before first deadline
	eng.At(240, func() { q.Put(9) }) // second call times out at 140 first
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []got{{7, true, 40}, {0, false, 140}, {9, true, 240}}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	for i, w := range want {
		if results[i] != w {
			t.Fatalf("result %d = %+v, want %+v", i, results[i], w)
		}
	}
}

// An item Put by an event at exactly the deadline timestamp is still
// returned: the timed-out Get polls once more before giving up.
func TestQueueGetTimeoutDeadlineTie(t *testing.T) {
	eng := New()
	q := NewQueue[int](eng, "box")
	var v int
	var ok bool
	eng.Spawn("consumer", func(p *Proc) {
		v, ok = q.GetTimeout(p, 100)
	})
	// Scheduled before the consumer spawns, so at t=100 the Put's event
	// precedes the deadline event in FIFO order.
	eng.At(100, func() { q.Put(5) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !ok || v != 5 {
		t.Fatalf("GetTimeout = %d,%v; want 5,true", v, ok)
	}
}

// Kill unwinds a parked process immediately: its goroutine exits, its
// gate entry goes stale, and a later Fire on the gate is harmless.
func TestProcKill(t *testing.T) {
	eng := New()
	g := NewGate(eng)
	reached := false
	p := eng.SpawnDaemon("victim", func(p *Proc) {
		g.Wait(p, "forever")
		reached = true
	})
	eng.At(10, func() { p.Kill() })
	eng.At(20, g.Fire)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed process ran past its blocking call")
	}
	if eng.LiveProcs() != 0 {
		t.Fatalf("%d live procs after kill", eng.LiveProcs())
	}
}

// Killing a sleeping process (which already has a wake event pending)
// must not double-resume: the stale wake finds the process done.
func TestProcKillWhileSleeping(t *testing.T) {
	eng := New()
	var wokeAt Time
	p := eng.SpawnDaemon("sleeper", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				if !IsKillPanic(r) {
					panic(r)
				}
				wokeAt = p.Now()
				panic(r) // continue the unwind
			}
		}()
		p.Sleep(1000)
	})
	eng.At(10, func() { p.Kill() })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 10 {
		t.Fatalf("killed sleeper unwound at %v, want 10", wokeAt)
	}
	if eng.LiveProcs() != 0 {
		t.Fatalf("%d live procs", eng.LiveProcs())
	}
}

// Two identical runs mixing timeouts, fires, and kills must dispatch
// identical event streams (the determinism currency of the repo).
func TestTimeoutDeterminism(t *testing.T) {
	run := func() (uint64, Time) {
		eng := New()
		g := NewGate(eng)
		q := NewQueue[int](eng, "q")
		eng.Spawn("a", func(p *Proc) {
			g.WaitUntil(p, "x", 50)
			q.GetTimeout(p, 75)
		})
		victim := eng.SpawnDaemon("b", func(p *Proc) {
			for {
				p.Sleep(30)
			}
		})
		eng.At(40, g.Fire)
		eng.At(90, func() { q.Put(1) })
		eng.At(100, func() { victim.Kill() })
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return eng.Executed(), eng.Now()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("runs diverged: (%d, %v) vs (%d, %v)", e1, t1, e2, t2)
	}
}
