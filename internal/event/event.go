// Package event is the discrete-event core of the QCDOC machine model: a
// virtual clock with picosecond resolution, one stable event queue per
// engine (queue.go), and two tiers of processes sharing it, so no
// simulated time depends on the tier. Programs are coroutines (Proc: a
// goroutine that holds the engine's single token of control between
// blocking calls; a Proc is a value, so a node keeps its application
// thread inside itself and starts it with Start). Per-link and per-node
// hardware, tens of thousands of services on a big machine, are
// continuations (At/After callbacks, Handler, Timer): one function call
// per step and no goroutine, where a coroutine suspension costs a
// goroutine park and two channel handoffs. An engine runs one event at a
// time on one goroutine, so the simulator's guts need no locks.
//
// An engine is deliberately sequential: the paper's machine is
// self-synchronizing at the link level (§2.2), and a conservative,
// deterministic scheduler is what makes the bit-identical reproducibility
// experiment (E10) meaningful. A Cluster (cluster.go) runs several
// engines — shards of one machine — in parallel inside windows one link
// latency wide; what crosses a shard boundary waits in a mailbox for the
// next barrier and then becomes an ordinary event in the destination's
// queue, so each shard is still exactly a sequential engine.
package event

import (
	"fmt"
	"slices"
	"sort"
)

// Time is a point in simulated time, in picoseconds. Picoseconds make
// every clock of interest exact: a 500 MHz processor cycle is 2000 ps, a
// 40 MHz global clock tick is 25000 ps.
type Time int64

// Convenient durations (Time is also used for durations).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a Time later than any practical simulation horizon.
const Forever Time = 1<<63 - 1

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds converts a duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hz is a clock frequency.
type Hz int64

// Common QCDOC clock rates (§2.1, §2.4, §4).
const (
	MHz Hz = 1_000_000
	GHz Hz = 1000 * MHz
)

// Cycle returns the period of one clock cycle. Periods are exact for the
// frequencies the simulator uses (factors of 1 THz).
func (f Hz) Cycle() Time { return Time(int64(Second) / int64(f)) }

// Cycles returns the duration of n clock cycles.
func (f Hz) Cycles(n int64) Time { return Time(n) * f.Cycle() }

// Handler is a pre-bound event target for the continuation tier's hot
// paths. Scheduling a Handler copies only an interface word and a
// uint64 argument into the event item, so services that fire an event
// per wire frame (HSSL delivery, SCU pumps, ack timers) can run with
// zero allocations per event — a closure passed to At/After would be a
// fresh heap object every time. The arg value is returned to the
// handler verbatim; targets use it to distinguish pipeline stages or to
// carry a generation stamp.
type Handler interface {
	HandleEvent(arg uint64)
}

// funcHandler is a closure as a Handler: At, After and NewTimer wrap
// their callback in it, so the queue holds one form of event. A func
// value fits the interface word, so the wrapping allocates nothing.
type funcHandler func()

func (f funcHandler) HandleEvent(uint64) { f() }

// Engine is a discrete-event scheduler. All simulation activity —
// scheduled callbacks and process resumptions — runs on the goroutine
// that calls Run, one step at a time; processes hand control back and
// forth through unbuffered channels, so engine and process code never run
// concurrently and shared simulator state needs no locks.
type Engine struct {
	now        Time
	events     eventQueue
	seq        uint64
	park       chan struct{} // a process signals here when it yields or exits
	procs      *Proc         // the live processes: started and not finished
	live       int           // how many
	stopped    bool
	terminated bool // Shutdown has been called; parked processes unwind

	// The turn guard: cur is the process holding the control token (nil
	// while the engine itself runs), running is set for the length of a
	// Run. A blocking call by anyone but cur, or a Run from inside an
	// event, would deadlock the token hand-off; both panic instead.
	cur     *Proc
	running bool

	tracer   func(at Time) // observes every dispatched event, if set
	rec      *Recorder     // flight recorder, if attached
	executed uint64        // events dispatched since New

	// Causal-flow state (trace.go): curFlow is the trace ID of the event
	// being dispatched (inherited by everything it schedules), flowSeq
	// numbers the flows this engine has minted, lastSeq is the sequence
	// number of the current event (reused by span marks so marking never
	// consumes a sequence number — attaching a recorder must not move
	// any event's seq).
	curFlow uint64
	flowSeq uint64
	lastSeq uint64

	// Shard identity when this engine is part of a Cluster (cluster.go).
	// An unclustered engine is its own shard 0.
	cluster *Cluster
	shard   int

	until Time   // the horizon of the current Run; see RunBound
	runs  uint64 // Runs begun
}

// New creates an engine with the clock at zero.
func New() *Engine { return &Engine{park: make(chan struct{})} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at time t (clamped to now if in the past).
// Events at equal times run in scheduling order.
func (e *Engine) At(t Time, fn func()) { e.AtHandler(t, funcHandler(fn), 0) }

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtHandler schedules h.HandleEvent(arg) at time t (clamped to now if in
// the past). Unlike At, it allocates nothing per call: the handler and
// argument travel inside the event item.
func (e *Engine) AtHandler(t Time, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.enqueue(t, h, arg, e.curFlow)
}

// NewFlow mints a fresh causal-trace ID, unique per engine and stable
// across runs (a per-engine counter under a fixed high bit). The ID does
// not become current until SetFlow installs it.
func (e *Engine) NewFlow() uint64 {
	e.flowSeq++
	return 1<<40 | e.flowSeq
}

// SetFlow makes f the current causal flow — every event scheduled from
// now on (until the next dispatch or SetFlow) carries f in its trace
// slot — and returns the previous flow so initiators can restore it.
// Flow state is pure trace metadata: it is read only by the flight
// recorder, so the simulated event stream is identical whether or not
// anyone ever sets a flow.
func (e *Engine) SetFlow(f uint64) (prev uint64) {
	prev = e.curFlow
	e.curFlow = f
	return prev
}

// CurrentFlow returns the flow ID of the event being dispatched (0 when
// nothing upstream started a flow).
func (e *Engine) CurrentFlow() uint64 { return e.curFlow }

// AfterHandler schedules h.HandleEvent(arg) d from now, allocation-free.
func (e *Engine) AfterHandler(d Time, h Handler, arg uint64) {
	e.AtHandler(e.now+d, h, arg)
}

// Stop makes Run return after the current event completes. A sharded
// engine refuses it: one shard's request would end the other shards'
// windows at whatever point they had reached.
func (e *Engine) Stop() {
	if e.cluster != nil {
		panic("event: Stop on a sharded engine (a cluster runs until it drains or reaches its horizon)")
	}
	e.stopped = true
}

// ErrStall is reported by Run when live processes remain but no event can
// ever wake them — the simulated machine has deadlocked. The paper notes
// that a node which stops communicating stalls the whole machine (§2.2);
// the engine surfaces that as an explicit error naming the blocked
// processes.
type ErrStall struct {
	At      Time
	Blocked []string
}

func (e *ErrStall) Error() string {
	return fmt.Sprintf("event: simulation stalled at %v with %d blocked processes %v",
		e.At, len(e.Blocked), e.Blocked)
}

// Run executes events in time order until the queue is empty, the horizon
// is passed, or Stop is called. If the queue drains while non-daemon
// processes are still blocked, Run returns an *ErrStall naming them;
// blocked daemons (link handlers, clock services) are normal quiescence.
// On a clustered engine Run must be called on the host shard (shard 0)
// and drives the whole cluster's window loop.
func (e *Engine) Run(until Time) error {
	if e.running {
		panic("event: Run re-entered from inside an event")
	}
	e.running = true
	e.until, e.runs = until, e.runs+1
	defer func() { e.running = false }()
	if e.cluster != nil {
		if e.shard != 0 {
			panic("event: Run on a clustered engine must use the host shard")
		}
		return e.cluster.run(until)
	}
	return e.runLocal(until)
}

// runLocal is the single-shard event loop.
func (e *Engine) runLocal(until Time) error {
	e.stopped = false
	for !e.stopped {
		t, src := e.peekTime()
		if src == srcNone {
			return stall(e.now, []*Engine{e})
		}
		if t > until {
			e.now = until
			return nil
		}
		e.dispatchNext(src)
	}
	return nil
}

// stall ends a run whose queues drained: an *ErrStall naming every live
// non-daemon process of the engines with what it waits for, sorted, or
// nil when only daemons are parked (normal quiescence). The names are
// built here, on a stall, and nowhere else.
func stall(at Time, engines []*Engine) error {
	var names []string
	for _, e := range engines {
		for p := e.procs; p != nil; p = p.next {
			if !p.daemon {
				names = append(names, p.body.ProcName(p.label)+" ("+p.reason+")")
			}
		}
	}
	if names == nil {
		return nil
	}
	sort.Strings(names)
	return &ErrStall{At: at, Blocked: names}
}

// RunBound returns the current Run's horizon and how many Runs have begun
// (host code may change anything between two).
func (e *Engine) RunBound() (until Time, run uint64) { return e.until, e.runs }

// RunAll runs with no horizon.
func (e *Engine) RunAll() error { return e.Run(Forever) }

// Pending reports the number of queued events. On the host shard of a
// cluster it sums every shard's queues (barrier-serial contexts only).
func (e *Engine) Pending() int {
	n := e.events.n
	if e.cluster != nil && e.shard == 0 {
		for _, s := range e.cluster.shards[1:] {
			n += s.events.n
		}
	}
	return n
}

// Executed reports the number of events dispatched since the engine was
// created.
func (e *Engine) Executed() uint64 { return e.executed }

// SetTracer installs fn to observe the timestamp of every dispatched
// event (nil clears it). Determinism tests digest the observed sequence:
// two runs of the same seeded simulation must dispatch identical event
// streams.
func (e *Engine) SetTracer(fn func(at Time)) { e.tracer = fn }

// SetRecorder attaches a flight recorder that captures every dispatched
// event into its ring (nil detaches). Recording schedules no events and
// allocates nothing per dispatch, so the simulated event stream is
// identical with or without it; see trace.go. The recorder is
// unsharded: SetRecorder panics on an engine of a cluster.
func (e *Engine) SetRecorder(r *Recorder) {
	if e.cluster != nil {
		panic("event: SetRecorder on a sharded engine (the flight recorder is unsharded)")
	}
	e.rec = r
}

// Recorder returns the attached flight recorder, or nil.
func (e *Engine) Recorder() *Recorder { return e.rec }

// LiveProcs reports how many coroutine-tier processes have started and
// not yet finished (continuation-tier processes hold no goroutines and
// are not counted).
func (e *Engine) LiveProcs() int { return e.live }

// Proc is a simulation process: a goroutine that alternates with the
// engine via an explicit control token. Process code may only touch
// simulator state between its blocking calls (Sleep, Wait, queue Get),
// which is safe because the engine is parked whenever the process runs.
// A Proc may be held by value and started again once its run finished.
type Proc struct {
	eng      *Engine
	body     Body
	label    string // the name Start was given; see Body
	resume   chan struct{}
	gen      uint64 // the run; every wake carries it, see HandleEvent
	reason   string // what the process is parked for, "" while it is not
	next     *Proc  // the engine's live list, linked through next
	pprev    **Proc // and through whichever pointer points here
	done     bool
	daemon   bool
	killed   bool
	timedOut bool // set when a gate's deadline wakes the process; see WaitUntil
}

// Body is the code a process runs. RunProc runs from the process's first
// activation, unless the process was killed before it; ExitProc runs
// last in every case, with what RunProc panicked with (nil if it
// returned, a kill-panic for Kill or Shutdown): what it does not re-panic
// is swallowed. ProcName names the process from the label Start was
// given, only when a stall report or a turn-guard panic asks.
type Body interface {
	RunProc(p *Proc)
	ExitProc(p *Proc, r any)
	ProcName(label string) string
}

// funcBody is a Spawn function as a Body: it re-panics anything but a
// kill. A func value fits the interface word, so this allocates nothing.
type funcBody func(*Proc)

func (f funcBody) RunProc(p *Proc)              { f(p) }
func (f funcBody) ProcName(label string) string { return label }

func (f funcBody) ExitProc(_ *Proc, r any) {
	if r != nil && !IsKillPanic(r) {
		panic(r)
	}
}

// procKilled is the panic value used to unwind parked processes when the
// engine shuts down.
type procKilled struct{}

// Spawn starts a new process executing fn. The process begins running at
// the current simulated time (after already-queued events at that time).
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := new(Proc)
	e.Start(p, name, funcBody(fn))
	return p
}

// Start is Spawn into a Proc the caller holds: a node keeps its
// application thread in itself. p must be new or finished; a restart
// keeps its channel, and a wake left over from the earlier run is dropped.
func (e *Engine) Start(p *Proc, name string, body Body) {
	if p.eng != nil && !p.done {
		panic("event: Start on the live process " + p.body.ProcName(p.label))
	}
	if p.resume == nil {
		p.resume = make(chan struct{})
	}
	*p = Proc{eng: e, body: body, label: name, resume: p.resume, gen: p.gen + 1, next: e.procs, pprev: &e.procs}
	if p.next != nil {
		p.next.pprev = &p.next
	}
	e.procs, e.live = p, e.live+1
	go p.run()
	e.AtHandler(e.now, p, p.gen)
}

// run is the process's goroutine. Its first activation comes through the
// event queue; a process killed before it never enters its body.
func (p *Proc) run() {
	<-p.resume
	defer p.exit()
	p.unwindIfKilled()
	p.body.RunProc(p)
}

// exit ends the run: the body sees how it ended, the process leaves the
// live list (keeping its next for Shutdown's walk), and control goes
// back to the engine.
func (p *Proc) exit() {
	p.body.ExitProc(p, recover())
	p.done, *p.pprev = true, p.next
	if p.next != nil {
		p.next.pprev = p.pprev
	}
	p.eng.live--
	p.eng.park <- struct{}{}
}

// SpawnDaemon starts a process that is allowed to remain blocked when the
// simulation quiesces — hardware service loops such as link receivers.
// A drained event queue with only daemons blocked is a normal end of Run,
// not a stall.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := e.Spawn(name, fn)
	p.daemon = true
	return p
}

// Shutdown unwinds every live process, parked or not yet activated, so
// their goroutines exit; the engine is unusable afterwards. Call it when
// a simulation is finished, particularly in tests that build many
// machines. On a clustered engine it unwinds the whole cluster (worker
// pool included), whichever shard it is called on.
func (e *Engine) Shutdown() {
	if e.cluster != nil {
		e.cluster.shutdown()
		return
	}
	e.shutdownLocal()
}

func (e *Engine) shutdownLocal() {
	e.terminated = true
	for p := e.procs; p != nil; p = p.next {
		if p != e.cur {
			p.wake() // the process observes terminated and unwinds
		}
	}
}

// HandleEvent is the process's wake event: the process is its own
// handler, so scheduling a wake allocates nothing. run is the generation
// of the run that scheduled it; a wake from an earlier run is dropped. It
// implements Handler; do not call it directly.
func (p *Proc) HandleEvent(run uint64) {
	if run == p.gen {
		p.wake()
	}
}

// wake transfers control to the process until it yields or exits. It
// runs as an event on the engine goroutine.
func (p *Proc) wake() {
	if p.done {
		return
	}
	p.eng.cur = p
	p.resume <- struct{}{}
	<-p.eng.park
	p.eng.cur = nil
}

// holdsTurn panics unless p is the process the engine handed control
// to. Every blocking call checks it before touching any state: called
// from an At/After/Handler/Timer callback, or on behalf of another
// process, the call would park the engine's own goroutine for good.
func (p *Proc) holdsTurn(reason string) {
	if p.eng.cur != p {
		panic("event: " + p.body.ProcName(p.label) + " blocks (" + reason + ") outside its own turn")
	}
}

// unwindIfKilled panics the process out through its body once the
// engine shut down or the process was killed.
func (p *Proc) unwindIfKilled() {
	if p.eng.terminated || p.killed {
		panic(procKilled{})
	}
}

// yield hands control back to the engine and blocks until reactivated.
func (p *Proc) yield(reason string) {
	p.unwindIfKilled()
	p.reason = reason
	p.eng.park <- struct{}{}
	<-p.resume
	p.reason = ""
	p.unwindIfKilled()
}

// Kill is Shutdown for one process: at its next resumption (scheduled
// now if it is parked) it panics out through its blocking call, or never
// enters its body, and its goroutine exits. Fault injection uses it for
// a node whose software dies mid-run, with no cleanup at simulated times
// it would never have reached.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.reason != "" {
		p.eng.AtHandler(p.eng.now, p, p.gen)
	}
}

// IsKillPanic reports whether a recovered panic value is the engine's
// process-unwind signal (from Shutdown or Proc.Kill) rather than an
// application panic. Code that recovers around process bodies must
// either re-panic such values or treat them as cancellation — never as
// an application error.
func IsKillPanic(r any) bool {
	_, ok := r.(procKilled)
	return ok
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.holdsTurn("sleep")
	p.eng.AfterHandler(d, p, p.gen)
	p.yield("sleep")
}

// Gate is a broadcast condition: processes Wait on it; Fire wakes all
// current waiters (at the current simulated time). A gate may be held by
// value but not copied once a process has waited on it: waiters starts
// out backed by first, so a gate made per transfer parks its one waiter
// without allocating.
type Gate struct {
	eng     *Engine
	waiters []gateWaiter
	first   [1]gateWaiter
	gen     uint64 // stamps timed waits; see WaitUntil
}

// gateWaiter is one parked process and the run it parked in. gen is
// nonzero for timed waits: the deadline event identifies its waiter by
// generation, so a Fire (which clears the list) or an earlier deadline
// leaves nothing for a stale deadline event to find.
type gateWaiter struct {
	p        *Proc
	run, gen uint64
}

// NewGate creates a gate on the engine.
func NewGate(e *Engine) *Gate { return &Gate{eng: e} }

// Wait suspends p until the next Fire. The process must live on the
// gate's engine: blocking is shard-local state, and a cross-shard wait
// would let one shard's Fire mutate another shard's parked process.
func (g *Gate) Wait(p *Proc, what string) {
	if p.eng != g.eng {
		panic("event: Gate.Wait across engines (shard boundary)")
	}
	p.holdsTurn(what)
	g.park(gateWaiter{p: p, run: p.gen})
	p.yield(what)
}

// WaitUntil suspends p until the next Fire or until the deadline,
// whichever comes first, reporting whether the gate fired (false means
// the deadline passed). A deadline at or before the current time returns
// false without parking. This is the primitive under every recovery
// timeout: the deadline is a simulated-clock event, so timed waits are
// as deterministic as untimed ones.
func (g *Gate) WaitUntil(p *Proc, what string, deadline Time) bool {
	if p.eng != g.eng {
		panic("event: Gate.WaitUntil across engines (shard boundary)")
	}
	p.holdsTurn(what)
	if deadline <= g.eng.now {
		return false
	}
	g.gen++
	g.park(gateWaiter{p: p, run: p.gen, gen: g.gen})
	g.eng.AtHandler(deadline, g, g.gen)
	p.yield(what)
	timedOut := p.timedOut
	p.timedOut = false
	return !timedOut
}

func (g *Gate) park(w gateWaiter) {
	if g.waiters == nil {
		g.waiters = g.first[:0]
	}
	g.waiters = append(g.waiters, w)
}

// HandleEvent is a timed wait's deadline: if the waiter of generation
// gen is still parked, it leaves the gate and, if its process is still in
// the run that parked, wakes timed out. It implements Handler and is not
// meant to be called directly.
func (g *Gate) HandleEvent(gen uint64) {
	for i, w := range g.waiters {
		if w.gen == gen {
			g.waiters = slices.Delete(g.waiters, i, i+1)
			if w.run == w.p.gen {
				w.p.timedOut = true
				w.p.wake()
			}
			return
		}
	}
}

// Fire wakes every process currently waiting on the gate. The wake-ups
// are events, so nothing re-enters the gate before the list is emptied;
// its storage stays for the next round of waiters.
func (g *Gate) Fire() {
	for _, w := range g.waiters {
		g.eng.AtHandler(g.eng.now, w.p, w.run)
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0]
}

// Waiting reports the number of processes parked on the gate.
func (g *Gate) Waiting() int { return len(g.waiters) }

// Queue is an unbounded FIFO of items, a mailbox a process blocks on.
// The items live in a ring that grows only when full, and a popped slot
// is zeroed: a queue in steady state allocates nothing and keeps nothing
// it has handed out reachable.
type Queue[T any] struct {
	eng     *Engine
	reason  string // "recv <name>", what a process parked in Get is waiting for
	ring    []T
	head, n int // the oldest item's index, and the item count
	gate    Gate
}

// NewQueue creates a queue on the engine.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: e, reason: "recv " + name, gate: Gate{eng: e}}
}

// Put makes item available immediately.
func (q *Queue[T]) Put(item T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(4, 2*len(q.ring)))
		copy(grown, q.ring[q.head:])
		copy(grown[len(q.ring)-q.head:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = item
	q.n++
	q.gate.Fire()
}

// TryGet removes and returns the head item if one is available now.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	item := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return item, true
}

// Get blocks the process until an item is available, then removes and
// returns it. If several processes wait, wake order follows wait order.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if item, ok := q.TryGet(); ok {
			return item
		}
		q.gate.Wait(p, q.reason)
	}
}

// GetTimeout is Get with a deadline d from now: it returns the next item
// and true, or the zero value and false once the deadline passes with the
// queue still empty. A final poll after the deadline catches an item
// delivered by an event at exactly the deadline timestamp.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (T, bool) {
	deadline := q.eng.now + d
	for {
		if item, ok := q.TryGet(); ok {
			return item, true
		}
		if !q.gate.WaitUntil(p, q.reason, deadline) {
			return q.TryGet()
		}
	}
}

// Len reports how many items are currently available.
func (q *Queue[T]) Len() int { return q.n }
