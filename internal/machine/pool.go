package machine

import (
	"sync"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// Pool recycles the expensive per-machine allocations across machine
// lifetimes — event-engine heap storage and HSSL in-flight frame rings —
// and shares the shard plan of a topology, a pure function of the Shape.
// A Pool is safe for concurrent use; a nil *Pool disables pooling (every
// method no-ops). It holds no live references: Storage is cleared by
// event.Release and frame rings are pure values (DESIGN.md §14).
type Pool struct {
	mu       sync.Mutex
	storages []event.Storage
	rings    [][]hssl.Flight
	plans    map[geom.Shape][]int
	stats    PoolStats
}

// PoolStats counts pool traffic, for hygiene tests and the fleet
// driver's summary line.
type PoolStats struct {
	// StorageReused / StorageFresh count NewEngine calls served from the
	// free list vs. built cold.
	StorageReused, StorageFresh int
	// RingsReused / RingsFresh count wires built with a recycled
	// in-flight ring vs. starting empty.
	RingsReused, RingsFresh int
	// PlanHits / PlanMisses count shard-plan cache lookups.
	PlanHits, PlanMisses int
	// StorageIdle / RingsIdle are the current free-list depths.
	StorageIdle, RingsIdle int
	// PendingEvents sums the still-queued events across idle storages.
	// Always zero — Release clears every item — and asserted so by the
	// lifecycle-hygiene tests: a nonzero value means a dead machine's
	// timers or callbacks leaked into the pool.
	PendingEvents int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{plans: make(map[geom.Shape][]int)}
}

// NewEngine returns a fresh event engine, reusing pooled heap storage
// when available. With a nil pool it is event.New.
func (p *Pool) NewEngine() *event.Engine {
	if p == nil {
		return event.New()
	}
	p.mu.Lock()
	var st event.Storage
	if n := len(p.storages); n > 0 {
		st = p.storages[n-1]
		p.storages[n-1] = event.Storage{}
		p.storages = p.storages[:n-1]
		p.stats.StorageReused++
	} else {
		p.stats.StorageFresh++
	}
	p.mu.Unlock()
	return event.NewWith(st)
}

// Reclaim takes back a finished machine's storage: the host engine's
// heap arrays (shard engines keep theirs) and every wire's in-flight
// ring. The engine must be shut down; neither it nor the machine may be
// used afterwards. Nil arguments are no-ops, but the machine's telemetry
// registry is always cleared, so no dead machine's closures stay.
func (p *Pool) Reclaim(eng *event.Engine, m *Machine) {
	if m != nil && m.Reg != nil {
		m.Reg.Clear()
	}
	if p == nil {
		return
	}
	var st event.Storage
	if eng != nil {
		st = eng.Release()
	}
	var rings [][]hssl.Flight
	if m != nil {
		for i := range m.torus.wires {
			if r := m.torus.wires[i].ReleaseRing(); cap(r) > 0 {
				rings = append(rings, r)
			}
		}
	}
	p.mu.Lock()
	if st.Cap() > 0 {
		p.storages = append(p.storages, st)
	}
	p.rings = append(p.rings, rings...)
	p.mu.Unlock()
}

// ring hands out a recycled frame ring, or nil when the pool is empty
// or nil.
func (p *Pool) ring() []hssl.Flight {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.rings); n > 0 {
		r := p.rings[n-1]
		p.rings[n-1] = nil
		p.rings = p.rings[:n-1]
		p.stats.RingsReused++
		return r
	}
	p.stats.RingsFresh++
	return nil
}

// shardPlan returns the rank→shard map for a topology (per nodes to a
// shard), shared and immutable across every machine with the same
// Shape: the plan depends on nothing else, never on Workers or host
// cores. Callers must treat the returned slice as read-only. With a nil
// pool the plan is computed fresh.
func (p *Pool) shardPlan(shape geom.Shape, per int) []int {
	if p == nil {
		return computeShardPlan(shape.Volume(), per)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan, ok := p.plans[shape]; ok {
		p.stats.PlanHits++
		return plan
	}
	p.stats.PlanMisses++
	plan := computeShardPlan(shape.Volume(), per)
	p.plans[shape] = plan
	return plan
}

func computeShardPlan(v, per int) []int {
	plan := make([]int, v)
	for r := 0; r < v; r++ {
		plan[r] = r / per
	}
	return plan
}

// Stats returns a snapshot of pool traffic.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.StorageIdle = len(p.storages)
	s.RingsIdle = len(p.rings)
	for _, st := range p.storages {
		s.PendingEvents += st.Pending()
	}
	return s
}
