package event

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{600 * Nanosecond, "600ns"},
		{3300 * Nanosecond, "3.3us"},
		{10 * Millisecond, "10ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestHzCycle(t *testing.T) {
	if got := (500 * MHz).Cycle(); got != 2*Nanosecond {
		t.Fatalf("500MHz cycle = %v", got)
	}
	if got := (40 * MHz).Cycle(); got != 25*Nanosecond {
		t.Fatalf("40MHz cycle = %v", got)
	}
	if got := (500 * MHz).Cycles(300); got != 600*Nanosecond {
		t.Fatalf("300 cycles = %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	// Simultaneous events keep scheduling order.
	e.At(20*Nanosecond, func() { order = append(order, 22) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 22, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestSimultaneousEventsStableQuick(t *testing.T) {
	f := func(n uint8) bool {
		e := New()
		count := int(n%32) + 2
		var got []int
		for i := 0; i < count; i++ {
			i := i
			e.At(5*Nanosecond, func() { got = append(got, i) })
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return len(got) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	ran := false
	e.At(100*Nanosecond, func() { ran = true })
	if err := e.Run(50 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if e.Now() != 50*Nanosecond {
		t.Fatalf("now = %v, want horizon", e.Now())
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run after horizon lifted")
	}
}

func TestPastEventClamped(t *testing.T) {
	e := New()
	var at Time
	e.At(10*Nanosecond, func() {
		e.At(5*Nanosecond, func() { at = e.Now() }) // in the past
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 10*Nanosecond {
		t.Fatalf("past event ran at %v", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wokeAt Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Nanosecond)
		wokeAt = p.Now()
		p.Sleep(8 * Nanosecond)
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 42*Nanosecond {
		t.Fatalf("woke at %v", wokeAt)
	}
	if e.Now() != 50*Nanosecond {
		t.Fatalf("finished at %v", e.Now())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var trace []string
	mk := func(name string, d Time) {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 10*Nanosecond)
	mk("b", 15*Nanosecond)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Wakes at t=10(a), 15(b), 20(a), 30(both; b's wake was scheduled at
	// t=15, before a's at t=20, so b runs first), 45(b).
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestQueueHandoff(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10 * Nanosecond)
			q.Put(i * 100)
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(7)
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Fatalf("TryGet = %d, %v", v, ok)
	}
}

func TestGateBroadcast(t *testing.T) {
	e := New()
	g := NewGate(e)
	woken := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			g.Wait(p, "gate")
			woken++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		if g.Waiting() != 4 {
			t.Errorf("waiting = %d", g.Waiting())
		}
		g.Fire()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d", woken)
	}
}

// TestStallDetection mirrors the paper's observation that one
// non-communicating node stalls the machine: the engine reports which
// processes are blocked instead of hanging.
func TestStallDetection(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "never")
	e.Spawn("starved", func(p *Proc) { q.Get(p) })
	err := e.RunAll()
	var stall *ErrStall
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want ErrStall", err)
	}
	if len(stall.Blocked) != 1 || stall.Blocked[0] != "starved (recv never)" {
		t.Fatalf("blocked = %v", stall.Blocked)
	}
}

func TestStop(t *testing.T) {
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == 5 {
			e.Stop()
		}
		e.After(Nanosecond, tick)
	}
	e.After(Nanosecond, tick)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ticks = %d", n)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Nanosecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Nanosecond)
			childRan = true
		})
		p.Sleep(10 * Nanosecond)
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestDaemonQuiescence(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "service")
	served := 0
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
			served++
		}
	})
	e.Spawn("client", func(p *Proc) {
		p.Sleep(Nanosecond)
		q.Put(1)
		q.Put(2)
		p.Sleep(Nanosecond)
	})
	// The daemon is still blocked on Get at the end; that is quiescence,
	// not a stall.
	if err := e.RunAll(); err != nil {
		t.Fatalf("daemon blocked at quiescence reported as error: %v", err)
	}
	if served != 2 {
		t.Fatalf("served = %d", served)
	}
	e.Shutdown()
}

func TestStallStillDetectedWithDaemons(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "never")
	e.SpawnDaemon("helper", func(p *Proc) { q.Get(p) })
	e.Spawn("app", func(p *Proc) { q.Get(p) })
	err := e.RunAll()
	var stall *ErrStall
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v", err)
	}
	if len(stall.Blocked) != 1 || stall.Blocked[0] != "app (recv never)" {
		t.Fatalf("blocked = %v", stall.Blocked)
	}
	e.Shutdown()
}

func TestShutdownUnwindsProcs(t *testing.T) {
	e := New()
	cleaned := 0
	for i := 0; i < 10; i++ {
		e.SpawnDaemon("d", func(p *Proc) {
			defer func() { cleaned++ }()
			NewQueue[int](e, "q").Get(p) // blocks forever
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if cleaned != 10 {
		t.Fatalf("cleaned = %d, want 10", cleaned)
	}
}

// A blocking call made for a process that does not hold the control
// token — from an At callback, the continuation tier — and a Run from
// inside an event used to park the engine's own goroutine for good.
// Each must panic at the call, change nothing, and leave the run going:
// the worker passes its gate when the gate fires, not when a refused
// Sleep's wake or a refused Wait's waiter entry would have let it.
func TestBlockingOutsideOwnTurnPanics(t *testing.T) {
	type rig struct {
		eng  *Engine
		p    *Proc
		gate *Gate
		box  *Queue[int]
	}
	cases := []struct {
		name string
		call func(r rig)
		want string
	}{
		{"Sleep", func(r rig) { r.p.Sleep(Nanosecond) }, "event: worker blocks (sleep) outside its own turn"},
		{"GateWait", func(r rig) { r.gate.Wait(r.p, "go") }, "event: worker blocks (go) outside its own turn"},
		{"QueueGet", func(r rig) { r.box.Get(r.p) }, "event: worker blocks (recv box) outside its own turn"},
		{"RunAll", func(r rig) { r.eng.RunAll() }, "event: Run re-entered from inside an event"},
	}
	check := func(t *testing.T, host, eng *Engine, call func(rig), want string) {
		defer host.Shutdown()
		r := rig{eng: eng, gate: NewGate(eng), box: NewQueue[int](eng, "box")}
		start := NewGate(eng)
		var passed, finished Time
		r.p = eng.Spawn("worker", func(p *Proc) {
			start.Wait(p, "start")
			passed = p.Now()
			p.Sleep(10 * Nanosecond)
			finished = p.Now()
		})
		var got any
		eng.At(5*Nanosecond, func() {
			defer func() { got = recover() }()
			call(r)
		})
		eng.At(20*Nanosecond, start.Fire)
		if err := host.RunAll(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
		if passed != 20*Nanosecond || finished != 30*Nanosecond {
			t.Errorf("worker passed its gate at %v and finished at %v, want 20ns and 30ns", passed, finished)
		}
		if n := r.gate.Waiting() + eng.Pending() + eng.LiveProcs(); n != 0 {
			t.Errorf("%d waiters, events and processes left behind", n)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			check(t, e, e, c.call, c.want)
		})
	}
	// On a cluster at two workers the guard is per shard: the refused
	// call and the worker live on shard 1, off the host's goroutine; the
	// nested Run is refused on the host shard, which drives the cluster.
	sleep, runAll := cases[0], cases[3]
	t.Run("Cluster/Sleep", func(t *testing.T) {
		host := New()
		check(t, host, Clusterize(host, 2, 2, 100).Shard(1), sleep.call, sleep.want)
	})
	t.Run("Cluster/RunAll", func(t *testing.T) {
		host := New()
		Clusterize(host, 2, 2, 100)
		check(t, host, host, runAll.call, runAll.want)
	})
}
