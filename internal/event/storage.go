package event

// Storage is the recyclable backing memory of an engine: the lane-ring
// and event-heap arrays that grow to a simulation's
// high-water mark and, on a fleet host building hundreds of machines,
// are worth keeping warm across engine lifetimes instead of re-growing
// from nothing every time. A Storage is inert — it schedules nothing and
// holds no references (Release clears every item, so a pooled Storage
// cannot pin a dead machine's callbacks or timers in memory). The zero
// value is valid and simply provides no preallocated capacity.
//
// The intended cycle (machine.Pool drives it):
//
//	st := pool.get()            // possibly from an earlier machine
//	eng := event.NewWith(st)    // engine reuses the arrays
//	... simulate ...
//	eng.Shutdown()
//	pool.put(eng.Release())     // arrays go back, cleared
type Storage struct {
	lanes [numLanes][]item
	heap  eventHeap
}

// Cap reports the preallocated event capacity over lanes and heap (the
// timer/event arena size a NewWith engine starts with).
func (s Storage) Cap() int {
	n := cap(s.heap)
	for _, b := range s.lanes {
		n += len(b)
	}
	return n
}

// Pending reports how many live events the storage still holds. A
// Storage obtained from Release is always empty; the method exists so
// lifecycle-hygiene tests can assert that no timer or callback survived
// a machine's teardown.
func (s Storage) Pending() int {
	n := len(s.heap)
	for _, b := range s.lanes {
		for i := range b {
			if b[i].h != nil {
				n++
			}
		}
	}
	return n
}

// NewWith creates an engine with the clock at zero whose event queue
// reuses the given storage's backing arrays. Equivalent to New when st
// is the zero Storage.
func NewWith(st Storage) *Engine {
	e := New()
	for i, b := range st.lanes {
		e.events.lanes[i].buf = b
	}
	e.events.heap = st.heap[:0]
	return e
}

// Release detaches and returns the engine's backing storage, clearing
// every still-queued event so the arrays hold no references. The engine
// must be finished (typically Shutdown has run); it is unusable
// afterwards. On a clustered engine only the receiver shard's own
// storage is released — shard engines are built by Clusterize and are
// not individually pooled.
func (e *Engine) Release() Storage {
	clear(e.events.heap)
	st := Storage{heap: e.events.heap[:0]}
	for i := range e.events.lanes {
		clear(e.events.lanes[i].buf)
		st.lanes[i] = e.events.lanes[i].buf
	}
	e.events = eventQueue{}
	return st
}
