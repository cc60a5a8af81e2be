package event

import (
	"runtime"
	"testing"
	"time"
)

func TestExecutedAndTracer(t *testing.T) {
	e := New()
	var traced []Time
	e.SetTracer(func(at Time) { traced = append(traced, at) })
	e.After(5*Nanosecond, func() {})
	e.After(2*Nanosecond, func() {})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 2 {
		t.Fatalf("executed = %d", e.Executed())
	}
	if len(traced) != 2 || traced[0] != 2*Nanosecond || traced[1] != 5*Nanosecond {
		t.Fatalf("trace = %v", traced)
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "never")
	e.SpawnDaemon("rx", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	// Run to a horizon short of the sleeper's wake: both procs park.
	if err := e.Run(Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 2 {
		t.Fatalf("live = %d before shutdown", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live = %d after shutdown", e.LiveProcs())
	}
}

func TestShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		e := New()
		q := NewQueue[int](e, "daemon")
		e.SpawnDaemon("rx", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		e.Spawn("tx", func(p *Proc) {
			p.Sleep(Nanosecond)
			q.Put(i)
		})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
	}
	if got := waitGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after 8 engine lifecycles", before, got)
	}
}

// waitGoroutines polls until at most want goroutines remain: an exited
// goroutine leaves the count a beat after its final park handshake.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestShutdownUnwindsUnstartedProcess: a process spawned but never
// activated is live, and Shutdown unwinds it like a parked one.
func TestShutdownUnwindsUnstartedProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	ran := false
	e.Spawn("late", func(*Proc) { ran = true })
	if e.LiveProcs() != 1 {
		t.Fatalf("live = %d before shutdown", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live = %d after shutdown", e.LiveProcs())
	}
	if got := waitGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after shutting down an unstarted process", before, got)
	}
	if ran {
		t.Fatal("shutdown ran the body of an unstarted process")
	}
}

// TestKillBeforeFirstActivation: a process killed before its first
// activation never enters its body, and its goroutine exits at that
// activation, at the time the activation was due.
func TestKillBeforeFirstActivation(t *testing.T) {
	e := New()
	ran := false
	p := e.Spawn("victim", func(*Proc) { ran = true })
	p.Kill()
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a process killed before its first activation ran its body")
	}
	if e.LiveProcs() != 0 || e.Executed() != 1 {
		t.Fatalf("live = %d, executed = %d; want 0 and the one activation", e.LiveProcs(), e.Executed())
	}
	e.Shutdown()
}

// TestRestartedProcIgnoresStaleWake: a process killed while parked —
// in Sleep, or on a gate — leaves a wake behind: the sleep's in the
// queue, the gate's as a waiter a later Fire schedules. Started again in
// the same Proc, the new run is woken by its own sleep only.
func TestRestartedProcIgnoresStaleWake(t *testing.T) {
	for _, park := range []string{"sleep", "gate"} {
		e := New()
		g := NewGate(e)
		var p Proc
		var woke []Time
		first := funcBody(func(p *Proc) {
			if park == "sleep" {
				p.Sleep(10 * Nanosecond)
			} else {
				g.Wait(p, "go")
			}
			woke = append(woke, -p.Now())
		})
		second := funcBody(func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			woke = append(woke, p.Now())
		})
		e.Start(&p, "sleeper", first)
		e.At(Second, func() {}) // a gate waiter parked alone would be a stall
		if err := e.Run(Nanosecond); err != nil {
			t.Fatal(err)
		}
		p.Kill() // parked: unwinds at 1 ns, its wake left behind
		if err := e.Run(2 * Nanosecond); err != nil {
			t.Fatal(err)
		}
		if e.LiveProcs() != 0 {
			t.Fatalf("%s: live = %d after the kill", park, e.LiveProcs())
		}
		e.Start(&p, "sleeper", second) // at 2 ns: sleeps until 12 ns
		e.At(5*Nanosecond, g.Fire)
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(woke) != 1 || woke[0] != 12*Nanosecond {
			t.Fatalf("%s: the restarted run woke at %v, want once at 12ns", park, woke)
		}
		e.Shutdown()
	}
}
