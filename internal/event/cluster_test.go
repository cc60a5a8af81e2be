package event

import (
	"fmt"
	"runtime"
	"strings"
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

// A cluster has no stop request: Stop on any of its shards panics,
// naming sharding, whether called from setup code or from an event.
func TestStopRefusesShardedEngine(t *testing.T) {
	host := New()
	c := Clusterize(host, 2, 1, 100)
	defer host.Shutdown()
	refused := func(e *Engine) (r any) {
		defer func() { r = recover() }()
		e.Stop()
		return nil
	}
	for i := 0; i < c.NumShards(); i++ {
		if r := refused(c.Shard(i)); r == nil || !strings.Contains(fmt.Sprint(r), "shard") {
			t.Fatalf("Stop on shard %d: panic %v, want one naming sharding", i, r)
		}
	}
	var inEvent any
	c.Shard(1).After(10, func() { inEvent = refused(c.Shard(1)) })
	if err := host.RunAll(); err != nil {
		t.Fatal(err)
	}
	if inEvent == nil || !strings.Contains(fmt.Sprint(inEvent), "shard") {
		t.Fatalf("Stop from an event on shard 1: panic %v, want one naming sharding", inEvent)
	}
}
