package event

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// The worker pool must be parked on its wake channel whenever no run is
// executing — after every return of Run, not only after Shutdown — and a
// parked pool must come back for the next run. Pinned to one P as well:
// parking and waking hand off through a spin that has to yield there.
func TestClusterPoolParksBetweenRuns(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			host := New()
			c := Clusterize(host, 4, 2, 100)
			defer host.Shutdown()
			var ran [4]int
			for round := 1; round <= 3; round++ {
				for i := range ran {
					i := i
					c.Shard(i).After(10, func() { ran[i]++ })
				}
				var err error
				if round == 2 {
					err = host.Run(host.Now() + 50) // returns at the horizon
				} else {
					err = host.RunAll() // returns drained
				}
				if err != nil {
					t.Fatal(err)
				}
				if ran != [4]int{round, round, round, round} {
					t.Fatalf("GOMAXPROCS %d, run %d: shards ran %v events", procs, round, ran)
				}
				if !c.started || c.mode.Load() != 0 || c.done.Load() != 0 {
					t.Fatalf("GOMAXPROCS %d, run %d: pool not idle after Run (started %v mode %d done %d)",
						procs, round, c.started, c.mode.Load(), c.done.Load())
				}
			}
		}()
	}
}

// refuses asserts that NewInbox will not bind a message type T that can
// reach memory.
func refuses[T any](t *testing.T, e *Engine) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("NewInbox accepted %v", reflect.TypeFor[T]())
		}
	}()
	NewInbox(e, func(T) {})
}

// Only values cross a shard. NewInbox refuses every kind that can
// reference memory — alone, in an array and in a struct — among them a
// payload struct with a []byte field, a map and a uintptr.
func TestInboxRefusesReferences(t *testing.T) {
	e := New()
	refuses[struct{ B []byte }](t, e)
	refuses[map[int]int](t, e)
	refuses[uintptr](t, e)
	refuses[*int](t, e)
	refuses[func()](t, e)
	refuses[chan int](t, e)
	refuses[any](t, e)
	refuses[unsafe.Pointer](t, e)

	refuses[[2][]byte](t, e)
	refuses[[1]map[int]int](t, e)
	refuses[[3]uintptr](t, e)
	refuses[[2]*int](t, e)
	refuses[[1]func()](t, e)
	refuses[[1]chan int](t, e)
	refuses[[2]any](t, e)
	refuses[[0]*int](t, e)

	refuses[struct{ M map[int]int }](t, e)
	refuses[struct{ U uintptr }](t, e)
	refuses[struct{ P *int }](t, e)
	refuses[struct{ F func() }](t, e)
	refuses[struct{ C chan int }](t, e)
	refuses[struct{ I error }](t, e)
	refuses[struct {
		N  int
		In struct{ A [2]struct{ S []int } }
	}](t, e)
}

// A string is immutable, so it crosses; so do scalars and arrays and
// structs of plain values, however deep.
func TestInboxAcceptsValues(t *testing.T) {
	type nested struct {
		A  int64
		S  string
		W  [4]uint64
		In struct {
			F  float64
			C  complex128
			Ok bool
			T  [2]struct{ X uint8 }
		}
	}
	e := New()
	defer e.Shutdown()
	var got nested
	in := NewInbox(e, func(v nested) { got = v })
	NewInbox(e, func(string) {})
	NewInbox(e, func(Time) {})
	var want nested
	want.A, want.S, want.W[3], want.In.C, want.In.T[1].X = -7, "payload", 9, 2i, 3
	in.Send(e, 5, want)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("delivered %+v, want %+v", got, want)
	}
}

// Inboxes are bound at setup: NewInbox panics inside Run, on a plain
// engine and on any shard of a cluster while the host shard runs.
func TestInboxBindDuringRunPanics(t *testing.T) {
	bindPanics := func(e *Engine) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		NewInbox(e, func(int) {})
		return false
	}
	e := New()
	defer e.Shutdown()
	var inRun bool
	e.At(1, func() { inRun = bindPanics(e) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !inRun || bindPanics(e) {
		t.Fatalf("plain engine: panicked in run %v, after run %v; want true, false", inRun, bindPanics(e))
	}

	host := New()
	c := Clusterize(host, 2, 1, 100)
	defer host.Shutdown()
	inRun = false
	c.Shard(1).At(1, func() { inRun = bindPanics(c.Shard(1)) })
	if err := host.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !inRun || bindPanics(c.Shard(1)) {
		t.Fatal("shard 1: NewInbox must panic during the host's run and only then")
	}
}

// Across shards Send is a mailbox message: its time is clamped up to
// the sender's now plus the lookahead, and it carries the sender's
// flow. On an unclustered engine it is At: the same time, the same
// sequence number, the same place among equal-time events.
func TestInboxSend(t *testing.T) {
	host := New()
	c := Clusterize(host, 2, 1, 100)
	defer host.Shutdown()
	type arrival struct {
		at   Time
		v    int
		flow uint64
	}
	var got []arrival
	s1 := c.Shard(1)
	in := NewInbox(s1, func(v int) { got = append(got, arrival{s1.Now(), v, s1.CurrentFlow()}) })
	host.At(10, func() {
		host.SetFlow(42)
		in.Send(host, 20, 1)  // below the lookahead: clamped to 110
		in.Send(host, 500, 2) // above it: kept
	})
	if err := host.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []arrival{{110, 1, 42}, {500, 2, 42}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-shard arrivals %v, want %v", got, want)
	}

	run := func(send bool) ([]string, uint64) {
		e := New()
		defer e.Shutdown()
		var order []string
		in := NewInbox(e, func(s string) { order = append(order, s) })
		e.At(5, func() { order = append(order, "a") })
		if send {
			in.Send(e, 5, "x")
		} else {
			e.At(5, func() { order = append(order, "x") })
		}
		e.At(5, func() { order = append(order, "b") })
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return order, e.seq
	}
	sent, sentSeq := run(true)
	at, atSeq := run(false)
	if !reflect.DeepEqual(sent, at) || sentSeq != atSeq {
		t.Fatalf("unclustered Send: order %v seq %d, At: order %v seq %d", sent, sentSeq, at, atSeq)
	}
}
