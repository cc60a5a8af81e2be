package event

// This file is the conservative parallel layer over the discrete-event
// core: a Cluster partitions one simulated machine across N shard
// engines that execute concurrently inside barrier-synchronized time
// windows (DESIGN.md §13).
//
// The synchronization model is classic conservative PDES specialized to
// the QCDOC topology. Nodes interact only through HSSL wires and the
// management Ethernet, and both charge a guaranteed minimum delay — at
// least one minimum frame's serialization time plus the wire's time of
// flight — before anything becomes visible at the far end. That
// minimum is the cluster's lookahead L: if every shard's next event is
// at or after T, no cross-shard influence can land before T+L, so all
// events in [T, T+L) are independent across shards and may run in
// parallel. The run loop repeats: find the global minimum next-event
// time, execute one window on every shard (concurrently, one shard per
// worker at a time), then drain the single-producer/single-consumer
// cross-shard mailboxes at the barrier.
//
// Determinism is structural, not incidental:
//   - The shard plan is a pure function of the machine topology, never
//     of the worker count. Workers only change which OS thread executes
//     a shard's window, not which events it contains.
//   - Within a shard, events dispatch in (time, seq) order exactly as
//     on a single engine.
//   - Cross-shard messages are appended by their producing shard in its
//     deterministic execution order and drained at the barrier in a
//     fixed (destination, source, send-order) sweep, so the receiving
//     shard assigns them sequence numbers identically on every run.
//   - Anything genuinely machine-wide (the partition-interrupt sampling
//     clock) runs as a global event: a serial callback executed at a
//     barrier with every shard clock aligned.
// Same seed, same machine, any worker count: identical event streams
// per shard, hence identical digests.

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// Scheduler is the shard-aware scheduling surface a component holds
// instead of assuming one global engine. Every *Engine is a Scheduler
// for its own shard; the Cross* methods are the only sanctioned way to
// make something happen on another shard, and they travel through the
// cluster's barrier-drained mailboxes (the qcdoclint shardsafe analyzer
// enforces the "only" part statically). On an unclustered engine the
// Cross* methods degrade to local scheduling, so components written
// against Scheduler run identically on a single-engine machine.
type Scheduler interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
	AtHandler(t Time, h Handler, arg uint64)
	AfterHandler(d Time, h Handler, arg uint64)
	// ShardID identifies the shard (0 on an unclustered engine).
	ShardID() int
	// CrossAt schedules fn at time t on dst's shard. Cold control path:
	// it may allocate, and t is clamped up to the earliest time the
	// conservative protocol can still deliver (now + lookahead).
	CrossAt(dst Scheduler, t Time, fn func())
	// CrossPayload schedules h.HandlePayload(arg, p) at time t on dst's
	// shard, allocation-free. Hot hardware path: t must already respect
	// the lookahead (t >= now + lookahead) or the call panics — a
	// violation means the caller's modelled latency is smaller than the
	// lookahead the cluster was built with, which would be a silent
	// determinism hole if clamped.
	CrossPayload(dst Scheduler, t Time, h PayloadHandler, arg uint64, p Payload)
}

var _ Scheduler = (*Engine)(nil)

// Payload is the fixed-size value carried by an allocation-free
// cross-shard message — big enough for one HSSL frame (scupkt.Wire plus
// its wire sequence number). Like scupkt.Wire itself, it is passed by
// value so no shard ever aliases another shard's memory.
type Payload [4]uint64

// PayloadHandler is the cross-shard analogue of Handler: a pre-bound
// event target that also receives a Payload value. Scheduling one
// copies only an interface word, an argument and the payload into the
// message, so the per-frame wire path stays allocation-free across a
// shard boundary.
type PayloadHandler interface {
	HandlePayload(arg uint64, p Payload)
}

// xitem is a scheduled payload event on a shard's payload heap. The
// payload heap shares its shard's sequence counter with the event
// queue, so the merged dispatch order over both is total and stable.
type xitem struct {
	at   Time
	seq  uint64
	h    PayloadHandler
	arg  uint64
	p    Payload
	flow uint64 // causal trace ID (trace.go); read only at dispatch
}

// payloadHeap is a binary min-heap of xitems ordered by (at, seq); the
// sifts are hand-rolled for the same reason eventHeap's are.
type payloadHeap []xitem

func (h payloadHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//qcdoc:noalloc
func (h *payloadHeap) push(it xitem) {
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

//qcdoc:noalloc
func (h *payloadHeap) pop() xitem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = xitem{}
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

// xmsg is one cross-shard message parked in a mailbox between the
// producing window and the barrier drain: either a payload delivery
// (h != nil, the hot path) or a closure (the cold control path).
type xmsg struct {
	at   Time
	fn   func()
	h    PayloadHandler
	arg  uint64
	p    Payload
	flow uint64 // causal trace ID, carried across the shard boundary
}

// mailbox is one single-producer/single-consumer cross-shard queue:
// exactly one shard appends (during its window), and only the barrier
// drains. The pad keeps two producers' hot mailboxes off a shared cache
// line.
type mailbox struct {
	msgs []xmsg
	_    [5]uint64
}

// gitem is one global (machine-wide) event: executed serially at a
// barrier with every shard clock aligned to its time.
type gitem struct {
	at  Time
	seq uint64
	fn  func()
}

// ClusterStats counts cluster activity for telemetry.
type ClusterStats struct {
	// Windows is how many parallel windows the run loop executed.
	Windows uint64
	// Barriers counts barrier synchronizations (= Windows plus global
	// event alignments).
	Barriers uint64
	// CrossMessages counts mailbox messages drained.
	CrossMessages uint64
	// GlobalEvents counts machine-wide serial events executed.
	GlobalEvents uint64
}

// Cluster coordinates N shard engines. Build one with Clusterize; the
// host shard's Run/RunAll then drives the whole cluster, so code
// written against a single Engine works unchanged.
type Cluster struct {
	shards   []*Engine
	workers  int
	look     Time // conservative lookahead
	mail     [][]mailbox
	globals  []gitem
	gseq     uint64
	hooks    []func()
	stats    ClusterStats
	stopReq  atomic.Bool
	panicked atomic.Bool
	panicVal any

	// Worker-pool state; see worker. The pool exists only when
	// workers > 1 and is parked on wake between runs.
	started  bool
	wake     chan struct{}
	closed   bool
	round    atomic.Uint64
	done     atomic.Int32
	mode     atomic.Uint32 // 0 idle, 1 running
	curWend  Time
	curUntil Time
}

// Clusterize turns a fresh engine into the host shard (shard 0) of an
// n-shard cluster and returns the cluster. workers bounds how many
// shards execute concurrently (clamped to [1, n]); lookahead is the
// guaranteed minimum cross-shard delay. The host engine must not have
// run yet: partitioning an engine with history is not meaningful.
func Clusterize(host *Engine, n, workers int, lookahead Time) *Cluster {
	if host.cluster != nil {
		panic("event: engine is already clustered")
	}
	if host.Pending() != 0 || host.now != 0 {
		panic("event: Clusterize needs a fresh engine")
	}
	if n < 1 {
		n = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if lookahead < 1 {
		lookahead = 1
	}
	c := &Cluster{workers: workers, look: lookahead}
	c.shards = make([]*Engine, n)
	c.shards[0] = host
	for i := 1; i < n; i++ {
		c.shards[i] = New()
	}
	c.mail = make([][]mailbox, n)
	for i := range c.mail {
		c.mail[i] = make([]mailbox, n)
	}
	for i, s := range c.shards {
		s.cluster = c
		s.shard = i
	}
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Workers returns the configured worker count.
func (c *Cluster) Workers() int { return c.workers }

// Lookahead returns the conservative lookahead.
func (c *Cluster) Lookahead() Time { return c.look }

// Shard returns shard i's engine (shard 0 is the host engine).
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Stats returns a copy of the cluster's activity counters.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// OnBarrier registers fn to run serially at every window barrier, after
// the mailboxes have been drained. Barrier hooks are the sanctioned
// place to inspect per-shard state that event handlers may not touch
// across shards (e.g. collecting the machine's sampling-clock arm
// requests).
func (c *Cluster) OnBarrier(fn func()) { c.hooks = append(c.hooks, fn) }

// AtGlobal schedules fn as a machine-wide event at time t: it runs
// serially, at a barrier, with every shard's clock set to t. Only
// barrier-serial contexts (setup code, barrier hooks, other global
// events) may call it. t must not precede any shard's clock.
func (c *Cluster) AtGlobal(t Time, fn func()) {
	c.gseq++
	c.globals = append(c.globals, gitem{at: t, seq: c.gseq, fn: fn})
}

// peekGlobal returns the earliest pending global event time, or Forever.
func (c *Cluster) peekGlobal() Time {
	t := Forever
	for i := range c.globals {
		if c.globals[i].at < t {
			t = c.globals[i].at
		}
	}
	return t
}

// popGlobalsAt removes and returns the global events at exactly t, in
// schedule order.
func (c *Cluster) popGlobalsAt(t Time) []gitem {
	var due []gitem
	rest := c.globals[:0]
	for _, g := range c.globals {
		if g.at == t {
			due = append(due, g)
		} else {
			rest = append(rest, g)
		}
	}
	c.globals = rest
	sort.Slice(due, func(i, j int) bool { return due[i].seq < due[j].seq })
	return due
}

// maxNow returns the latest shard clock.
func (c *Cluster) maxNow() Time {
	t := c.shards[0].now
	for _, s := range c.shards[1:] {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// alignClocks advances every shard clock to t (never backward). The
// cluster aligns at quiescence, horizons and global events so that code
// reading Now() after a run — metrics, control processes — sees one
// machine-wide clock, as with a single engine.
func (c *Cluster) alignClocks(t Time) {
	for _, s := range c.shards {
		if s.now < t {
			s.now = t
		}
	}
}

// drainMail empties every mailbox into its destination shard's queues.
// Serial (barrier) context only. The sweep order — destination major,
// source minor, send order within a mailbox — fixes the sequence
// numbers the destination assigns, making the merge deterministic.
func (c *Cluster) drainMail() {
	for di, dst := range c.shards {
		for si := range c.shards {
			mb := &c.mail[si][di]
			for k := range mb.msgs {
				m := &mb.msgs[k]
				if m.h != nil {
					dst.seq++
					dst.xevents.push(xitem{at: m.at, seq: dst.seq, h: m.h, arg: m.arg, p: m.p, flow: m.flow})
				} else {
					dst.enqueue(m.at, m.fn, nil, 0, m.flow)
				}
				c.stats.CrossMessages++
				mb.msgs[k] = xmsg{} // release closure/handler references
			}
			mb.msgs = mb.msgs[:0]
		}
	}
}

// run is the cluster's window loop; Engine.Run on the host shard
// delegates here. Semantics match Engine.Run: events at exactly `until`
// execute, a drained machine with blocked non-daemon processes is an
// *ErrStall, Stop ends the run at the next barrier.
func (c *Cluster) run(until Time) error {
	c.stopReq.Store(false)
	for {
		c.drainMail()
		for _, h := range c.hooks {
			h()
		}
		tmin := Forever
		for _, s := range c.shards {
			if t, _ := s.peekTime(); t < tmin { // Forever when nothing is queued
				tmin = t
			}
		}
		g := c.peekGlobal()
		if tmin == Forever && g == Forever {
			if names := c.blockedNames(); len(names) > 0 {
				c.alignClocks(c.maxNow())
				return &ErrStall{At: c.shards[0].now, Blocked: names}
			}
			c.alignClocks(c.maxNow())
			return nil
		}
		next := tmin
		if g < next {
			next = g
		}
		if next > until {
			c.alignClocks(until)
			return nil
		}
		if g <= tmin {
			// Machine-wide events run serially with all clocks aligned.
			c.alignClocks(g)
			c.stats.Barriers++
			c.stats.GlobalEvents++
			for _, gi := range c.popGlobalsAt(g) {
				gi.fn()
			}
			if c.stopReq.Load() {
				return nil
			}
			continue
		}
		wend := tmin + c.look
		if g < wend {
			wend = g
		}
		c.runWindow(wend, until)
		c.stats.Windows++
		c.stats.Barriers++
		if c.panicked.Load() {
			panic(c.panicVal)
		}
		if c.stopReq.Load() {
			c.drainMail()
			c.alignClocks(c.maxNow())
			return nil
		}
	}
}

// blockedNames collects non-daemon blocked process names across all
// shards, sorted for stable reporting.
func (c *Cluster) blockedNames() []string {
	var names []string
	for _, s := range c.shards {
		for p, what := range s.blocked {
			if !p.daemon {
				names = append(names, p.name+" ("+what+")")
			}
		}
	}
	sort.Strings(names)
	return names
}

// runWindow executes one [*, wend) window on every shard, using the
// worker pool when configured. The master goroutine doubles as worker 0.
func (c *Cluster) runWindow(wend, until Time) {
	if c.workers <= 1 {
		for _, s := range c.shards {
			s.runWindow(wend, until)
		}
		return
	}
	c.startWorkers()
	c.curWend, c.curUntil = wend, until
	c.round.Add(1)
	for i := 0; i < len(c.shards); i += c.workers {
		c.shards[i].runWindow(wend, until)
	}
	c.waitWorkers()
}

// startWorkers brings the pool out of idle for one run session.
func (c *Cluster) startWorkers() {
	if c.mode.Load() == 1 {
		return
	}
	if !c.started {
		c.started = true
		c.wake = make(chan struct{})
		for w := 1; w < c.workers; w++ {
			go c.worker(w)
		}
	}
	c.mode.Store(1)
	for w := 1; w < c.workers; w++ {
		c.wake <- struct{}{}
	}
}

// parkWorkers returns the pool to idle at the end of a run session.
func (c *Cluster) parkWorkers() {
	if c.mode.Load() != 1 {
		return
	}
	c.mode.Store(0)
	c.round.Add(1)
	c.waitWorkers()
}

// waitWorkers spins until every pool worker has finished the round.
// The spin yields so the protocol also completes under GOMAXPROCS=1.
func (c *Cluster) waitWorkers() {
	want := int32(c.workers - 1)
	for spin := 0; c.done.Load() != want; spin++ {
		if spin%64 == 63 {
			runtime.Gosched()
		}
	}
	c.done.Store(0)
}

// worker is one pool goroutine: parked on wake between runs, spinning
// on the round counter within a run, executing its statically assigned
// shards each round. Static shard assignment means a shard's queues are
// only ever touched by one goroutine per window, with the round/done
// atomics providing the happens-before edges to the master.
func (c *Cluster) worker(id int) {
	last := uint64(0)
	for range c.wake {
		for {
			for spin := 0; c.round.Load() == last; spin++ {
				if spin%64 == 63 {
					runtime.Gosched()
				}
			}
			last++
			if c.mode.Load() != 1 {
				c.done.Add(1)
				break // back to idle
			}
			c.runShards(id)
			c.done.Add(1)
		}
	}
}

// runShards executes worker id's shards for the current round,
// capturing any panic so the master can re-raise it after the barrier
// instead of deadlocking the round protocol.
func (c *Cluster) runShards(id int) {
	defer func() {
		if r := recover(); r != nil {
			if c.panicked.CompareAndSwap(false, true) {
				c.panicVal = r
			}
		}
	}()
	for i := id; i < len(c.shards); i += c.workers {
		c.shards[i].runWindow(c.curWend, c.curUntil)
	}
}

// shutdown unwinds the whole cluster: park and release the worker
// pool, then unwind every shard's processes.
func (c *Cluster) shutdown() {
	c.parkWorkers()
	if c.started && !c.closed {
		c.closed = true
		close(c.wake)
	}
	for _, s := range c.shards {
		s.shutdownLocal()
	}
}

// --- Engine-side shard surface -------------------------------------------

// Cluster returns the cluster this engine is a shard of, or nil.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// ShardID returns this engine's shard index (0 when unclustered).
func (e *Engine) ShardID() int { return e.shard }

// runWindow executes this shard's events with at < wend (and at <=
// until, matching Run's inclusive horizon). Called concurrently for
// different shards; everything it touches is shard-local.
func (e *Engine) runWindow(wend, until Time) {
	for {
		t, src := e.peekTime()
		if src == srcNone || t >= wend || t > until {
			return
		}
		e.dispatchNext(src)
	}
}

// CrossAt schedules fn at time t on dst's shard — the cold control
// path for cross-shard actions (fault injection, management hops). On
// the same engine, or without a cluster, it is Engine.At. Across
// shards, t is clamped up to now + lookahead: the earliest instant the
// conservative window protocol can still deliver.
func (e *Engine) CrossAt(dst Scheduler, t Time, fn func()) {
	d, ok := dst.(*Engine)
	if !ok {
		panic("event: CrossAt destination is not an Engine")
	}
	if d == e || e.cluster == nil {
		e.At(t, fn)
		return
	}
	if d.cluster != e.cluster {
		panic("event: CrossAt across unrelated clusters")
	}
	if min := e.now + e.cluster.look; t < min {
		t = min
	}
	mb := &e.cluster.mail[e.shard][d.shard]
	mb.msgs = append(mb.msgs, xmsg{at: t, fn: fn, flow: e.curFlow})
}

// CrossPayload schedules h.HandlePayload(arg, p) at t on dst's shard,
// allocation-free — the hot wire-delivery path. t must respect the
// cluster lookahead; see Scheduler.
//
//qcdoc:noalloc
func (e *Engine) CrossPayload(dst Scheduler, t Time, h PayloadHandler, arg uint64, p Payload) {
	d, ok := dst.(*Engine)
	if !ok {
		panic("event: CrossPayload destination is not an Engine")
	}
	if d == e || e.cluster == nil {
		if t < e.now {
			t = e.now
		}
		e.seq++
		e.xevents.push(xitem{at: t, seq: e.seq, h: h, arg: arg, p: p, flow: e.curFlow})
		return
	}
	if d.cluster != e.cluster {
		panic("event: CrossPayload across unrelated clusters")
	}
	if t < e.now+e.cluster.look {
		// A modelled latency below the lookahead would be delivered late
		// (and only sometimes), so fail loudly instead.
		panic("event: CrossPayload violates cluster lookahead")
	}
	mb := &e.cluster.mail[e.shard][d.shard]
	mb.msgs = append(mb.msgs, xmsg{at: t, h: h, arg: arg, p: p, flow: e.curFlow})
}
