package machine

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// buildAndRun builds a machine on a pooled engine, boots it, and runs
// the event stream dry, returning both for reclamation.
func buildAndRun(t *testing.T, p *Pool, shape geom.Shape) (*event.Engine, *Machine) {
	t.Helper()
	eng := p.NewEngine()
	cfg := DefaultConfig(shape)
	cfg.Pool = p
	m := Build(eng, cfg)
	if err := m.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	return eng, m
}

// TestPoolRecyclesStorageAndRings proves the reuse cycle: a second
// machine build is served from the first machine's reclaimed storage,
// and reclaimed storage is empty — no event, timer, or frame of the
// dead machine survives into the pool (the no-leaked-timers half of
// the lifecycle-hygiene requirement; fleet_test covers goroutines).
// Frame rings only grow under real traffic (the fast Boot path sends
// no data frames), so the free list is seeded directly and the rings
// are tracked through adopt → reclaim.
func TestPoolRecyclesStorageAndRings(t *testing.T) {
	p := NewPool()
	p.rings = [][]hssl.Flight{make([]hssl.Flight, 8), make([]hssl.Flight, 4)}
	shape := geom.MakeShape(2, 2)

	eng, m := buildAndRun(t, p, shape)
	st := p.Stats()
	if st.RingsReused != 2 {
		t.Fatalf("build adopted %d recycled rings, want 2", st.RingsReused)
	}
	eng.Shutdown()
	p.Reclaim(eng, m)

	st = p.Stats()
	if st.StorageIdle != 1 {
		t.Fatalf("after reclaim: %d idle storages, want 1", st.StorageIdle)
	}
	if st.RingsIdle != 2 {
		t.Fatalf("after reclaim: %d idle rings, want the 2 adopted ones back", st.RingsIdle)
	}
	for _, s := range p.storages {
		if s.Pending() != 0 {
			t.Fatalf("reclaimed storage still holds %d events — timers leaked past Shutdown", s.Pending())
		}
		if s.Cap() == 0 {
			t.Fatalf("reclaimed storage has no capacity — pooling it is pointless")
		}
	}

	eng2, m2 := buildAndRun(t, p, shape)
	st = p.Stats()
	if st.StorageReused != 1 {
		t.Fatalf("second build: StorageReused = %d, want 1", st.StorageReused)
	}
	if st.RingsReused != 4 {
		t.Fatalf("second build: RingsReused = %d, want 4 (2 rings recycled twice)", st.RingsReused)
	}
	eng2.Shutdown()
	p.Reclaim(eng2, m2)
}

// TestPoolSharesShardPlans proves machines of identical topology share
// one immutable shard plan (same backing array), while different
// topologies get their own.
func TestPoolSharesShardPlans(t *testing.T) {
	p := NewPool()
	build := func(shape geom.Shape) *Machine {
		eng := p.NewEngine()
		cfg := DefaultConfig(shape)
		cfg.Shards = ShardAuto
		cfg.Workers = 1
		cfg.Pool = p
		return Build(eng, cfg)
	}
	a := build(geom.MakeShape(2, 2, 2))
	b := build(geom.MakeShape(2, 2, 2))
	c := build(geom.MakeShape(2, 2, 2, 2))
	if &a.shardOf[0] != &b.shardOf[0] {
		t.Fatalf("identical topologies did not share a shard plan")
	}
	if len(c.shardOf) == len(a.shardOf) && &c.shardOf[0] == &a.shardOf[0] {
		t.Fatalf("different topologies shared a shard plan")
	}
	st := p.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 2 {
		t.Fatalf("plan cache traffic = %d hits / %d misses, want 1/2", st.PlanHits, st.PlanMisses)
	}
	for _, m := range []*Machine{a, b, c} {
		m.Eng.Shutdown()
	}
}

// TestNilPoolIsInert proves a nil *Pool degrades to the unpooled path
// everywhere, so single-machine callers never construct one.
func TestNilPoolIsInert(t *testing.T) {
	var p *Pool
	eng := p.NewEngine()
	if eng == nil {
		t.Fatal("nil pool NewEngine returned nil engine")
	}
	cfg := DefaultConfig(geom.MakeShape(2))
	m := Build(eng, cfg)
	eng.Shutdown()
	p.Reclaim(eng, m) // must not panic
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool reported stats %+v", st)
	}
}
