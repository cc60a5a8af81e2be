package event

import "math/bits"

// This file is the event queue: K sorted-run lanes in front of a binary
// heap, the one enqueue that stores into them, and the dispatch step
// that merges them. Whatever the container, events leave in (at, seq)
// order — the determinism contract (DESIGN.md "The
// event queue").

// An item in the event queue: a handler invocation h.HandleEvent(arg)
// (a closure rides as a funcHandler). flow is the causal trace ID
// inherited from the event that scheduled this one (trace.go); it is
// only ever read at dispatch, so it cannot perturb event order.
type item struct {
	at   Time
	seq  uint64 // stable FIFO order among simultaneous events
	h    Handler
	arg  uint64
	flow uint64
}

// eventHeap is a binary min-heap ordered by (at, seq): the queue's
// fallback for events no lane can take. The sift operations are
// hand-rolled rather than container/heap because heap.Push boxes each
// item into an interface — a heap allocation per scheduled event, which
// the allocation-free frame path cannot afford.
type eventHeap []item

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() item {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = item{} // release the handler reference
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return top
		}
		child := l
		if r := l + 1; r < n && s.less(r, l) {
			child = r
		}
		if !s.less(child, i) {
			return top
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
}

// numLanes is K. Measured with a solve's queue a few hundred events deep
// (wall_s, bench/ workloads) at K = 0 (heap only), 1, 2, 4, 8: the Wilson
// solve 1.53, 1.58, 1.12, 0.98, 0.86 s; the chaos fleet 0.53, 0.54, 0.57,
// 0.57, 0.45 s. Two lanes take 99.7 % of the solve's events; the fleet's
// watchdog, daemon and NFS timers spread over all eight and still send
// 30 % to the heap. A lane costs about 1 ns per event.
const numLanes = 8

// Dispatch sources beyond the lanes 0..numLanes-1.
const (
	srcHeap = numLanes
	srcNone = -1
)

// lane is a ring of items that is non-decreasing in (at, seq) from head
// to tail by construction: enqueue appends only an event at or after the
// lane's newest, and sequence numbers only grow. len(buf) is zero or a
// power of two.
type lane struct {
	buf  []item
	head int // index of the oldest item
	n    int // items queued
}

// grow doubles the ring, unwrapping it to start at index 0.
func (l *lane) grow() {
	nb := make([]item, max(2*len(l.buf), 64))
	k := copy(nb, l.buf[l.head:])
	copy(nb[k:], l.buf[:l.head])
	l.buf, l.head = nb, 0
}

// eventQueue holds every pending item of an engine. tails[i] is the time
// of the newest item ever appended to lane i; a drained lane keeps its
// last tail, which is at most now and so never bars a new event.
type eventQueue struct {
	lanes [numLanes]lane
	tails [numLanes]Time
	live  uint // bit i set while lane i holds items
	heap  eventHeap
	n     int // items in lanes and heap
	stats QueueStats
}

// QueueStats counts an engine's event-queue traffic: host-side
// bookkeeping that no event can read, so it cannot move event order.
type QueueStats struct {
	// HighWater is the most events ever pending at once.
	HighWater uint64 `json:"high_water"`
	// LaneAppends counts events appended to a sorted-run lane in O(1).
	LaneAppends uint64 `json:"lane_appends"`
	// HeapFallbacks counts events that fit no lane and were sifted into
	// the heap.
	HeapFallbacks uint64 `json:"heap_fallbacks"`
}

// QueueStats returns this engine's (this shard's) queue counters.
func (e *Engine) QueueStats() QueueStats { return e.events.stats }

// enqueue gives the event the next sequence number and stores it: in
// the lane whose tail is latest among those not after at (best fit: a
// far event leaves the earlier tails to the near events only they can
// take), else in the heap. It is the only function that stores into
// either.
func (e *Engine) enqueue(at Time, h Handler, arg, flow uint64) {
	e.seq++
	q := &e.events
	q.n++
	q.stats.HighWater = max(q.stats.HighWater, uint64(q.n))
	// A live lane's tail is at least now and a drained lane's at most now,
	// so the drained lanes are scanned only when no live lane fits.
	best := q.bestFit(at, q.live)
	if best == srcNone {
		best = q.bestFit(at, ^q.live&(1<<numLanes-1))
	}
	if best == srcNone {
		q.stats.HeapFallbacks++
		q.heap.push(item{at: at, seq: e.seq, h: h, arg: arg, flow: flow})
		return
	}
	q.stats.LaneAppends++
	q.tails[best] = at
	l := &q.lanes[best]
	if l.n == len(l.buf) {
		l.grow()
	}
	s := &l.buf[(l.head+l.n)&(len(l.buf)-1)]
	s.at, s.seq, s.h, s.arg, s.flow = at, e.seq, h, arg, flow
	l.n++
	q.live |= 1 << best
}

// bestFit returns the lane of mask whose tail is latest among those not
// after at, the lowest index on a tie, or srcNone.
func (q *eventQueue) bestFit(at Time, mask uint) int {
	// at - tail as unsigned is the gap to a lane that fits and at least
	// 1<<63 for one that does not (times are never negative).
	best, gap := srcNone, uint64(1)<<63
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros(mask) & (numLanes - 1)
		if g := uint64(at - q.tails[i]); g < gap {
			best, gap = i, g
		}
	}
	return best
}

// requeue stores an event under a sequence number it already holds (a
// Timer's firing moving on to its deadline). The number is older than
// the lanes' newest, so the event goes to the heap, which takes any order.
func (e *Engine) requeue(at Time, seq uint64, h Handler) {
	q := &e.events
	q.n++
	q.stats.HighWater = max(q.stats.HighWater, uint64(q.n))
	q.stats.HeapFallbacks++
	q.heap.push(item{at: at, seq: seq, h: h, flow: e.curFlow})
}

// peekTime returns the time of the earliest queued event and where it
// sits: a lane head or the heap top, compared once by (at, seq). Every
// container shares the engine's sequence counter, so the order is total.
// The source is srcNone when nothing is queued.
func (e *Engine) peekTime() (Time, int) {
	src, at, seq := srcNone, Forever, ^uint64(0)
	for m := e.events.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros(m)
		l := &e.events.lanes[i&(numLanes-1)] // the mask spares a bounds check
		if it := &l.buf[l.head]; it.at < at || (it.at == at && it.seq < seq) {
			src, at, seq = i, it.at, it.seq
		}
	}
	if h := e.events.heap; len(h) != 0 && (h[0].at < at || (h[0].at == at && h[0].seq < seq)) {
		src, at = srcHeap, h[0].at
	}
	return at, src
}

// EarliestRejected returns when the first queued event accept rejects
// (closures always) can act, a Timer's live firing counting at its
// deadline (never, if stopped); Forever if none.
func (e *Engine) EarliestRejected(accept func(h Handler, arg uint64) bool) Time {
	best := Forever
	visit := func(it *item) {
		if it.at >= best {
			return
		}
		switch h := it.h.(type) {
		case funcHandler:
			best = it.at
		case *Timer:
			if h.qSeq == it.seq && h.at >= 0 {
				best = min(best, h.at)
			}
		default:
			if !accept(h, it.arg) {
				best = it.at
			}
		}
	}
	for i := range e.events.lanes {
		for l, j := &e.events.lanes[i], 0; j < l.n; j++ {
			visit(&l.buf[(l.head+j)&(len(l.buf)-1)])
		}
	}
	for i := range e.events.heap {
		visit(&e.events.heap[i])
	}
	return best
}

// dispatchNext pops and executes the event peekTime found at src. A lane
// head is read in place and only its references are cleared; its fields
// are loaded first, as the freed slot may take an event the tracer or
// the event itself schedules.
func (e *Engine) dispatchNext(src int) {
	var next *item
	if src == srcHeap {
		top := e.events.heap.pop()
		next = &top
	} else {
		l := &e.events.lanes[src]
		next = &l.buf[l.head]
		l.head = (l.head + 1) & (len(l.buf) - 1)
		if l.n--; l.n == 0 {
			e.events.live &^= 1 << src
		}
	}
	at, seq, h, arg, flow := next.at, next.seq, next.h, next.arg, next.flow
	next.h = nil // release the handler reference
	e.events.n--
	e.now = at
	e.executed++
	e.curFlow = flow
	e.lastSeq = seq
	if e.tracer != nil {
		e.tracer(at)
	}
	if e.rec != nil {
		e.rec.record(at, seq, flow, h, arg)
	}
	h.HandleEvent(arg)
}
