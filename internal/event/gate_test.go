package event

import (
	"reflect"
	"testing"
)

// gateLike is what the scenarios below need of a gate: Gate, and the
// test-local copy of the Gate it replaced.
type gateLike interface {
	Wait(p *Proc, what string)
	WaitUntil(p *Proc, what string, deadline Time) bool
	Fire()
}

// dropGate is the reference: Fire drops the waiter storage and wakes
// through a method value bound per waiter, as Gate did before it kept
// its storage and woke its processes as handlers (Proc.HandleEvent).
type dropGate struct {
	eng     *Engine
	waiters []gateWaiter
	gen     uint64
}

func (g *dropGate) Wait(p *Proc, what string) {
	p.holdsTurn(what)
	g.waiters = append(g.waiters, gateWaiter{p: p})
	p.yield(what)
}

func (g *dropGate) WaitUntil(p *Proc, what string, deadline Time) bool {
	p.holdsTurn(what)
	if deadline <= g.eng.now {
		return false
	}
	g.gen++
	gen := g.gen
	g.waiters = append(g.waiters, gateWaiter{p: p, gen: gen})
	timedOut := false
	g.eng.At(deadline, func() {
		for i := range g.waiters {
			if g.waiters[i].gen == gen {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				timedOut = true
				p.wake()
				return
			}
		}
	})
	p.yield(what)
	return !timedOut
}

func (g *dropGate) Fire() {
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		g.eng.At(g.eng.now, w.p.wake)
	}
}

type gateWake struct {
	At  Time
	Who string
}

// gateScenario sets processes and fires up on a gate; want is the (time,
// who) log of the wake-ups that must follow.
type gateScenario struct {
	name string
	run  func(e *Engine, g gateLike, log func(who string))
	want []gateWake
}

// gateScenarios are the places where reusing the waiter storage could
// differ from dropping it.
func gateScenarios() []gateScenario {
	return []gateScenario{
		{
			// A process that waits again from inside its wake-up is parked for
			// the next Fire: not lost, and not woken by the Fire that woke it —
			// even with a second Fire queued at the same timestamp.
			name: "rewait",
			run: func(e *Engine, g gateLike, log func(string)) {
				for _, who := range []string{"a", "b"} {
					e.SpawnDaemon(who, func(p *Proc) {
						for {
							g.Wait(p, "gate")
							log(who)
						}
					})
				}
				e.At(10, g.Fire)
				e.At(10, g.Fire)
				e.At(20, g.Fire)
				e.At(20, func() { e.At(20, g.Fire) }) // after the re-waits at 20
			},
			want: []gateWake{{10, "a"}, {10, "b"}, {20, "a"}, {20, "b"}, {20, "a"}, {20, "b"}},
		},
		{
			// A deadline that lands after a Fire finds nothing to time out:
			// not the waiter it was armed for, not that process's next timed
			// wait (a new generation in the same slot), not a plain waiter.
			name: "stale deadline",
			run: func(e *Engine, g gateLike, log func(string)) {
				e.SpawnDaemon("timed", func(p *Proc) {
					if g.WaitUntil(p, "first", 50) {
						log("timed: fired")
					}
					if !g.WaitUntil(p, "second", 100) {
						log("timed: timed out")
					}
				})
				e.SpawnDaemon("plain", func(p *Proc) {
					for {
						g.Wait(p, "gate")
						log("plain")
					}
				})
				e.At(20, g.Fire)
				e.At(120, g.Fire)
			},
			want: []gateWake{{20, "timed: fired"}, {20, "plain"}, {100, "timed: timed out"}, {120, "plain"}},
		},
		{
			// Kill of a parked waiter followed by Fire — and Fire followed by
			// Kill — wakes it exactly once: it unwinds, and the second wake-up
			// finds it done.
			name: "kill",
			run: func(e *Engine, g gateLike, log func(string)) {
				victim := func(who string) *Proc {
					return e.Spawn(who, func(p *Proc) {
						defer log(who + " unwound")
						g.Wait(p, "gate")
						log(who + " woke")
					})
				}
				k1, k2 := victim("k1"), victim("k2")
				e.SpawnDaemon("bystander", func(p *Proc) {
					for {
						g.Wait(p, "gate")
						log("bystander")
					}
				})
				e.At(10, func() { k1.Kill(); g.Fire() })
				e.At(10, func() { e.At(10, func() { g.Fire(); k2.Kill() }) })
			},
			want: []gateWake{
				{10, "k1 unwound"}, {10, "k2 woke"}, {10, "k2 unwound"}, {10, "bystander"},
				{10, "bystander"},
			},
		},
	}
}

func runGateScenario(t *testing.T, sc gateScenario, ref bool) []gateWake {
	t.Helper()
	e := New()
	defer e.Shutdown()
	var g gateLike = NewGate(e)
	if ref {
		g = &dropGate{eng: e}
	}
	var log []gateWake
	sc.run(e, g, func(who string) { log = append(log, gateWake{e.Now(), who}) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestGateMatchesDropReference holds Gate to the gate it replaced, wake
// for wake, as TestLazyTimerMatchesEagerReference does for Timer.
func TestGateMatchesDropReference(t *testing.T) {
	for _, sc := range gateScenarios() {
		got, ref := runGateScenario(t, sc, false), runGateScenario(t, sc, true)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: Gate woke %v, the reference %v", sc.name, got, ref)
		}
		if !reflect.DeepEqual(got, sc.want) {
			t.Errorf("%s: woke %v, want %v", sc.name, got, sc.want)
		}
	}
}

// TestGateCycleAllocFree: parking on a gate and being fired off it
// allocates nothing — the waiter goes into storage the gate keeps, the
// wake-up is the process itself as a handler, and a run that ends with
// only daemons parked builds no stall report. Before: 3 (the waiter
// list, the wake closure, the report's name slice).
func TestGateCycleAllocFree(t *testing.T) {
	e := New()
	defer e.Shutdown()
	g := NewGate(e)
	woken := 0
	e.SpawnDaemon("waiter", func(p *Proc) {
		for {
			g.Wait(p, "gate")
			woken++
		}
	})
	cycle := func() {
		g.Fire()
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the spawn, and the first (parked on nothing) fire
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("a Wait/Fire cycle allocates %.2f objects, want 0", avg)
	}
	if woken != 101 {
		t.Fatalf("woken %d times in 101 measured cycles", woken)
	}
}

// TestGateTimedWaitAllocFree: a timed wait allocates nothing either way
// it ends — woken by Fire before its deadline, or timed out by the
// deadline event, which travels as the gate's own handler event rather
// than a closure. Before: 1 (the deadline closure) per wait.
func TestGateTimedWaitAllocFree(t *testing.T) {
	for _, fire := range []bool{true, false} {
		e := New()
		g := NewGate(e)
		fired, timedOut := 0, 0
		e.SpawnDaemon("waiter", func(p *Proc) {
			for {
				if g.WaitUntil(p, "gate", p.Now()+10) {
					fired++
				} else {
					timedOut++
				}
				g.Wait(p, "next round")
			}
		})
		cycle := func() {
			g.Fire() // out of the untimed wait, into WaitUntil
			if err := e.Run(e.Now()); err != nil {
				t.Fatal(err)
			}
			if fire {
				g.Fire() // woken before the deadline
			}
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.RunAll(); err != nil { // the spawn: one timeout, then parked untimed
			t.Fatal(err)
		}
		fired, timedOut = 0, 0
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("fire=%v: a timed wait allocates %.2f objects, want 0", fire, avg)
		}
		// AllocsPerRun runs the cycle once more than it measures.
		if fire && (fired != 101 || timedOut != 0) || !fire && (fired != 0 || timedOut != 101) {
			t.Errorf("fire=%v: %d fired, %d timed out in 101 cycles", fire, fired, timedOut)
		}
		e.Shutdown()
	}
}

// TestQueueSteadyStateAllocFree: once its ring has grown to the
// working depth, a queue's Put/Get cycle allocates nothing, and a popped
// slot is zeroed so the queue keeps nothing it handed out reachable.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	e := New()
	defer e.Shutdown()
	q := NewQueue[*int](e, "q")
	v := new(int)
	for i := 0; i < 3; i++ {
		q.Put(v)
	}
	// One measured run of 10 000 cycles: AllocsPerRun's per-run average
	// truncates, so an allocation every few cycles must not round away.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			q.Put(v)
			if got, ok := q.TryGet(); !ok || got != v {
				t.Fatal("queue lost an item")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("10 000 Put/Get cycles allocate %.0f objects, want 0", allocs)
	}
	for q.Len() > 0 {
		q.TryGet()
	}
	for i, slot := range q.ring {
		if slot != nil {
			t.Errorf("popped slot %d still holds %p", i, slot)
		}
	}
}
