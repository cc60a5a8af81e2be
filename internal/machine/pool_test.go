package machine

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/scupkt"
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
// machine build is served from the first machine's reclaimed engine
// storage and ring slab, and reclaimed storage is empty — no event,
// timer, or frame of the dead machine survives into the pool (the
// no-leaked-timers half of the lifecycle-hygiene requirement; fleet_test
// covers goroutines). A wire of the second machine then outgrows its
// slot with frames still in flight at shutdown, and the third build
// sizes every slot to it, so no pooled wire grows again. Reclaiming a
// machine twice returns its slab once.
func TestPoolRecyclesStorageAndRings(t *testing.T) {
	p := NewPool()
	shape := geom.MakeShape(2, 2)
	wires := shape.Volume() * geom.NumLinks
	reclaim := func(eng *event.Engine, m *Machine) {
		t.Helper()
		eng.Shutdown()
		p.Reclaim(eng, m)
		for _, s := range p.storages {
			if s.Pending() != 0 {
				t.Fatalf("reclaimed storage still holds %d events — timers leaked past Shutdown", s.Pending())
			}
			if s.Cap() == 0 {
				t.Fatalf("reclaimed storage has no capacity — pooling it is pointless")
			}
		}
	}

	eng, m := buildAndRun(t, p, shape)
	if st := p.Stats(); st.RingsFresh != wires || st.RingsReused != 0 {
		t.Fatalf("first build: %d wires in a fresh slab, %d recycled, want %d and 0", st.RingsFresh, st.RingsReused, wires)
	}
	slab := m.torus.slab
	reclaim(eng, m)
	if st := p.Stats(); st.StorageIdle != 1 || st.SlabsIdle != 1 {
		t.Fatalf("after reclaim: %d idle storages and %d idle slabs, want 1 and 1", st.StorageIdle, st.SlabsIdle)
	}

	eng, m = buildAndRun(t, p, shape)
	st := p.Stats()
	if st.StorageReused != 1 || st.RingsReused != wires || &m.torus.slab[0] != &slab[0] {
		t.Fatalf("second build: StorageReused = %d, RingsReused = %d, want 1 and %d from the reclaimed slab",
			st.StorageReused, st.RingsReused, wires)
	}
	w := m.Wire(0, geom.LinkAt(0))
	for i := 0; i < minRing+1; i++ {
		if _, err := w.Send(scupkt.WireOf([]byte{byte(i), 0xAA})); err != nil {
			t.Fatal(err)
		}
	}
	if w.RingSize() != 2*minRing {
		t.Fatalf("%d frames in flight grew a %d-frame ring, want %d", minRing+1, w.RingSize(), 2*minRing)
	}
	reclaim(eng, m)

	eng, m = buildAndRun(t, p, shape)
	for i := range m.torus.wires {
		if got := m.torus.wires[i].RingSize(); got != 2*minRing {
			t.Fatalf("third build: wire %d has a %d-frame slot, want the %d the last machine grew", i, got, 2*minRing)
		}
	}
	if st := p.Stats(); st.RingsFresh != 2*wires || st.SlabsIdle != 1 {
		t.Fatalf("third build: %d wires fresh, %d idle slabs, want %d and 1 (the old slab is too small)",
			st.RingsFresh, st.SlabsIdle, 2*wires)
	}
	reclaim(eng, m)
	p.Reclaim(eng, m) // a second Reclaim must not hand the slab out twice
	if st := p.Stats(); st.SlabsIdle != 2 {
		t.Fatalf("after reclaiming the third machine twice: %d idle slabs, want 2", st.SlabsIdle)
	}
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
