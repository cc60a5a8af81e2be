package event

// This file is the conservative parallel layer over the discrete-event
// core: a Cluster partitions one simulated machine across N shard
// engines that execute concurrently inside barrier-synchronized time
// windows (DESIGN.md §13).
//
// This is conservative PDES on the QCDOC topology. Nothing a node does
// becomes visible at another before a minimum frame's serialization
// plus the wire's time of flight: that is the lookahead L, so with every
// shard's next event at or after T, the events in [T, T+L) are
// independent across shards. The run loop repeats: find the global
// minimum next-event time, run one window on every shard (one shard per
// worker at a time), drain the cross-shard mailboxes at the barrier.
//
// Determinism is structural, not incidental:
//   - The shard plan is a pure function of the machine topology, never
//     of the worker count, which only picks the OS thread of a window.
//   - Within a shard, events dispatch in (time, seq) order exactly as
//     on a single engine.
//   - Cross-shard messages are appended in their producer's
//     deterministic order and drained at the barrier in a fixed
//     (destination, source, send-order) sweep into the receiver's queue,
//     so they get the same sequence numbers on every run.
//   - Nothing machine-wide runs on a cluster: the partition-interrupt
//     sampling clock and Engine.Stop panic on a sharded machine.
// Same seed, same machine, any worker count: identical event streams
// per shard, hence identical digests.

import (
	"runtime"
	"sync/atomic"
)

// Payload is the fixed-size value carried by an allocation-free
// cross-shard message — big enough for one HSSL frame (scupkt.Wire plus
// its wire sequence number). Like scupkt.Wire itself, it is passed by
// value so no shard ever aliases another shard's memory.
type Payload [4]uint64

// PayloadHandler is a Handler that can also be handed a Payload value
// from another shard. A cross-shard delivery is two calls: AcceptPayload
// at the barrier that drains the sender's mailbox — serial, while no
// shard runs, so it may only store the value into state the receiving
// side owns — and then an ordinary HandleEvent(arg) at the delivery
// time, on the receiver's shard. Payloads are accepted in send order and
// the handler pairs them with its events itself, so one handler's
// deliveries must arrive in the order they were sent (a wire is FIFO:
// one sender, arrival times in send order).
type PayloadHandler interface {
	Handler
	AcceptPayload(p Payload)
}

// xmsg is one cross-shard payload delivery parked in a mailbox between
// the producing window and the barrier drain.
type xmsg struct {
	at  Time
	h   PayloadHandler
	arg uint64
	p   Payload
}

// mailbox is one single-producer/single-consumer cross-shard queue:
// exactly one shard appends (during its window), and only the barrier
// drains. The pad keeps two producers' hot mailboxes off a shared cache
// line.
type mailbox struct {
	msgs []xmsg
	_    [5]uint64
}

// ClusterStats counts cluster activity for telemetry.
type ClusterStats struct {
	// Windows is how many parallel windows the run loop executed.
	Windows uint64
	// Barriers counts barrier synchronizations. Every barrier ends a
	// window, so it always equals Windows.
	Barriers uint64
	// CrossMessages counts mailbox messages drained.
	CrossMessages uint64
}

// Cluster coordinates N shard engines. Build one with Clusterize; the
// host shard's Run/RunAll then drives the whole cluster, so code
// written against a single Engine works unchanged.
type Cluster struct {
	shards   []*Engine
	workers  int
	look     Time // conservative lookahead
	mail     [][]mailbox
	stats    ClusterStats
	panicked atomic.Bool
	panicVal any

	// Worker-pool state; see worker. The pool exists only when
	// workers > 1 and is parked on wake whenever run is not executing.
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

// Shard returns shard i's engine (shard 0 is the host engine).
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Stats returns a copy of the cluster's activity counters.
func (c *Cluster) Stats() ClusterStats { return c.stats }

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
// cluster aligns at quiescence and horizons so that code reading Now()
// after a run — metrics, control processes — sees one machine-wide
// clock, as with a single engine.
func (c *Cluster) alignClocks(t Time) {
	for _, s := range c.shards {
		if s.now < t {
			s.now = t
		}
	}
}

// drainMail empties every mailbox into its destination shard's queue.
// Serial (barrier) context only. The sweep order — destination major,
// source minor, send order within a mailbox — fixes the sequence
// numbers the destination assigns, making the merge deterministic.
func (c *Cluster) drainMail() {
	for di, dst := range c.shards {
		for si := range c.shards {
			mb := &c.mail[si][di]
			for k := range mb.msgs {
				m := &mb.msgs[k]
				m.h.AcceptPayload(m.p)
				dst.enqueue(m.at, m.h, m.arg, 0)
				c.stats.CrossMessages++
				mb.msgs[k] = xmsg{} // release the handler reference
			}
			mb.msgs = mb.msgs[:0]
		}
	}
}

// run is the cluster's window loop; Engine.Run on the host shard
// delegates here. Semantics match Engine.Run: events at exactly `until`
// execute, and a drained machine with blocked non-daemon processes is an
// *ErrStall.
func (c *Cluster) run(until Time) error {
	defer c.parkWorkers()
	for {
		c.drainMail()
		tmin := Forever
		for _, s := range c.shards {
			if t, _ := s.peekTime(); t < tmin { // Forever when nothing is queued
				tmin = t
			}
		}
		if tmin == Forever {
			c.alignClocks(c.maxNow())
			return stall(c.shards[0].now, c.shards)
		}
		if tmin > until {
			c.alignClocks(until)
			return nil
		}
		c.runWindow(tmin+c.look, until)
		c.stats.Windows++
		c.stats.Barriers++
		if c.panicked.Load() {
			panic(c.panicVal)
		}
	}
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

// startWorkers brings the pool out of idle for the current run.
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

// parkWorkers returns the pool to idle; run defers it, so no pool
// goroutine spins between runs or after a run that panicked.
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

// CrossPayload hands p to h (AcceptPayload) and schedules
// h.HandleEvent(arg) at t on d's shard, allocation-free — the hot
// wire-delivery path; see PayloadHandler. On the same engine, or without
// a cluster, both happen here and now. Across shards t must already
// respect the lookahead (t >= now + lookahead) or the call panics: a
// violation means the caller's modelled latency is smaller than the
// lookahead the cluster was built with, which would be a silent
// determinism hole if clamped.
func (e *Engine) CrossPayload(d *Engine, t Time, h PayloadHandler, arg uint64, p Payload) {
	if d == e || e.cluster == nil {
		h.AcceptPayload(p)
		e.AtHandler(t, h, arg)
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
	mb.msgs = append(mb.msgs, xmsg{at: t, h: h, arg: arg, p: p})
}
