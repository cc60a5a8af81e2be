package team

import (
	"runtime"
	"testing"
)

// setProcs sets GOMAXPROCS for one test: a team's width comes from it
// and from nothing else.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// visits counts how often each index was handed out and records the
// chunks. Each chunk writes only its own elements, as a kernel must.
type visits struct {
	seen   []int32
	chunks chan [2]int
}

func (v *visits) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		v.seen[i]++
	}
	v.chunks <- [2]int{lo, hi}
}

// TestRunCoversRangeOnce: at every width and around both thresholds the
// chunks are contiguous, at least a grain each, and their union is
// [0, n) exactly once; the sentinels either side of the range stay
// poisoned.
func TestRunCoversRangeOnce(t *testing.T) {
	const poison = -7
	for _, procs := range []int{1, 2, 3, 7} {
		setProcs(t, procs)
		var tm Team
		for _, n := range []int{0, 1, Grain - 1, Grain, Grain + 1, 2*Grain - 1, 2 * Grain, 2*Grain + 1,
			3*Grain + 5, 7*Grain - 1, 7*Grain + 3, 20*Grain + 11} {
			buf := make([]int32, n+2)
			buf[0], buf[n+1] = poison, poison
			v := &visits{seen: buf[1 : n+1], chunks: make(chan [2]int, procs)}
			tm.Run(n, v)
			close(v.chunks)
			want := 1
			if n >= 2*Grain {
				want = min(procs, n/Grain)
			}
			got := 0
			for c := range v.chunks {
				got++
				if want > 1 && c[1]-c[0] < Grain {
					t.Errorf("procs %d n %d: chunk %v is under a grain", procs, n, c)
				}
			}
			if got != want {
				t.Errorf("procs %d n %d: %d chunks, want %d", procs, n, got, want)
			}
			for i, c := range v.seen {
				if c != 1 {
					t.Fatalf("procs %d n %d: index %d visited %d times", procs, n, i, c)
				}
			}
			if buf[0] != poison || buf[n+1] != poison {
				t.Fatalf("procs %d n %d: a chunk reached outside [0, n)", procs, n)
			}
		}
		tm.Close()
	}
}

// calls counts kernel invocations; only for runs that must not fork.
type calls int

func (k *calls) Range(lo, hi int) { *k++ }

// idle is a kernel with nothing to do.
type idle struct{}

func (idle) Range(lo, hi int) {}

// TestPlainCallWithoutHelpers: a nil team, a loop under two grains and
// GOMAXPROCS 1 each run the kernel once, on the caller, and start no
// goroutine.
func TestPlainCallWithoutHelpers(t *testing.T) {
	before := runtime.NumGoroutine()
	var k calls
	(*Team)(nil).Run(50*Grain, &k)
	(*Team)(nil).Close()
	var tm Team
	tm.Run(2*Grain-1, &k)
	setProcs(t, 1)
	tm.Run(50*Grain, &k)
	if k != 3 || tm.work != nil {
		t.Fatalf("%d kernel calls (want 3), helpers started: %v", k, tm.work != nil)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines, %d before", n, before)
	}
}

// TestForkedRunAllocFree: once the helpers are up, a forked Run hands
// its chunks over by value and allocates nothing.
func TestForkedRunAllocFree(t *testing.T) {
	setProcs(t, 4)
	var tm Team
	defer tm.Close()
	k := idle{}
	tm.Run(8*Grain, k) // starts the helpers
	if len(tm.work) != 3 {
		t.Fatalf("%d helpers at GOMAXPROCS 4", len(tm.work))
	}
	if n := testing.AllocsPerRun(100, func() { tm.Run(8*Grain, k) }); n != 0 {
		t.Fatalf("a forked Run allocates %v objects", n)
	}
}

// TestCloseStopsHelpers: Close returns with every helper gone, and the
// team forks again afterwards.
func TestCloseStopsHelpers(t *testing.T) {
	setProcs(t, 3)
	before := runtime.NumGoroutine()
	var tm Team
	for round := 0; round < 3; round++ {
		tm.Run(4*Grain, idle{})
		if n := runtime.NumGoroutine(); n != before+2 {
			t.Fatalf("round %d: %d goroutines with the team up, want %d", round, n, before+2)
		}
		tm.Close()
		// A helper's last send precedes its return; yield until the
		// runtime has retired it.
		for i := 0; i < 1e6 && runtime.NumGoroutine() != before; i++ {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("round %d: %d goroutines after Close, %d before", round, n, before)
		}
	}
}
