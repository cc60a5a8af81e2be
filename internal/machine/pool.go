package machine

import (
	"slices"
	"sync"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// Pool recycles event-engine heap storage and HSSL ring slabs across
// machine lifetimes and shares the shard plan of a topology, a pure
// function of the Shape. A Pool is safe for concurrent use; a nil *Pool
// disables pooling (every method no-ops). It holds no live references:
// Storage is cleared by event.Release and frames are pure values
// (DESIGN.md §14).
type Pool struct {
	mu       sync.Mutex
	storages []event.Storage
	slabs    [][]hssl.Flight
	ringLen  int // the largest ring a reclaimed machine's wire had
	plans    map[geom.Shape][]int
	stats    PoolStats
}

// minRing is a wire's ring slot in a fresh slab: three words in the air
// and an ack.
const minRing = 4

// PoolStats counts pool traffic, for hygiene tests and the fleet
// driver's summary line.
type PoolStats struct {
	// StorageReused / StorageFresh count NewEngine calls served from the
	// free list vs. built cold.
	StorageReused, StorageFresh int
	// RingsReused / RingsFresh count wires built with their in-flight
	// rings in a recycled slab vs. a fresh one.
	RingsReused, RingsFresh int
	// PlanHits / PlanMisses count shard-plan cache lookups.
	PlanHits, PlanMisses int
	// StorageIdle / SlabsIdle are the current free-list depths.
	StorageIdle, SlabsIdle int
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
// heap arrays (shard engines keep theirs) and the ring slab, noting the
// largest ring a wire grew to. The engine must be shut down; neither it
// nor the machine may be used afterwards. Nil arguments are no-ops, but
// the machine's registry is always cleared, so no dead machine's
// closures stay.
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if st.Cap() > 0 {
		p.storages = append(p.storages, st)
	}
	if m != nil && m.torus.slab != nil { // taken once: no two machines share a slab
		p.slabs, m.torus.slab = append(p.slabs, m.torus.slab), nil
		for i := range m.torus.wires {
			p.ringLen = max(p.ringLen, m.torus.wires[i].RingSize())
		}
	}
}

// slab returns ring storage for n wires, k frames each (the largest ring
// a reclaimed machine grew, at least minRing): the latest reclaimed slab
// that holds them, or a fresh one.
func (p *Pool) slab(n int) (k int, slab []hssl.Flight) {
	if p == nil {
		return minRing, make([]hssl.Flight, minRing*n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k = max(minRing, p.ringLen)
	for i := len(p.slabs) - 1; i >= 0; i-- {
		if s := p.slabs[i]; len(s) >= k*n {
			p.slabs = slices.Delete(p.slabs, i, i+1)
			p.stats.RingsReused += n
			return k, s
		}
	}
	p.stats.RingsFresh += n
	return k, make([]hssl.Flight, k*n)
}

// shardPlan returns the rank→shard map for a topology (per nodes to a
// shard), shared and immutable across every machine with the same
// Shape: the plan depends on nothing else, never on Workers or host
// cores. Callers must treat the returned slice as read-only. With a nil
// pool the plan is computed fresh.
func (p *Pool) shardPlan(shape geom.Shape, per int) []int {
	if p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if plan, ok := p.plans[shape]; ok {
			p.stats.PlanHits++
			return plan
		}
		p.stats.PlanMisses++
	}
	plan := make([]int, shape.Volume())
	for r := range plan {
		plan[r] = r / per
	}
	if p != nil {
		p.plans[shape] = plan
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
	s.SlabsIdle = len(p.slabs)
	for _, st := range p.storages {
		s.PendingEvents += st.Pending()
	}
	return s
}
