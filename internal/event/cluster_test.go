package event

import (
	"runtime"
	"testing"
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
