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
	// Exited goroutines disappear from the count a beat after their final
	// park handshake; poll briefly rather than flake.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines: %d before, %d after 8 engine lifecycles", before, got)
	}
}
