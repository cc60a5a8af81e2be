package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The queue contract: whatever container an event sits in, events leave
// in (at, seq) order. A correct engine's dispatch log is therefore its
// push log sorted by (at, seq), and after Run(until) exactly the pushes
// at or before the horizon have left. qprog drives an engine through its
// scheduling calls, logging both sides. A Timer pushes only when it has
// no firing queued at or before the new deadline, and again when that
// firing moves on to a later one (under the sequence number the Arm
// took); syncTimers reads both off the timers' own state.

type qkey struct {
	at  Time
	seq uint64
}

type qprog struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	timers []*Timer
	firing []uint64 // per timer, the last queued firing logged
	pushes []qkey   // every event stored in the queue
	got    []qkey   // every dispatched event, in dispatch order
	budget int      // events the random steps may still schedule
	delays []Time   // what a random step draws its delays from
	stopAt int      // len(got) when a step called Stop, else -1
	npay   int      // payloads accepted
	lane   int      // where the full scan puts the push note logged
}

func newQprog(t *testing.T, seed int64, budget int, delays ...Time) *qprog {
	p := &qprog{t: t, e: New(), rng: rand.New(rand.NewSource(seed)), budget: budget, delays: delays, stopAt: -1}
	p.e.SetTracer(func(at Time) {
		p.syncTimers() // the previous event may have been a firing moving on
		p.got = append(p.got, qkey{at, p.e.lastSeq})
	})
	for i := 0; i < 3; i++ {
		p.timers = append(p.timers, p.e.NewTimer(p.step))
		p.firing = append(p.firing, 0)
	}
	return p
}

// note logs the push the next scheduling call is about to make.
func (p *qprog) note(at Time) {
	if at < p.e.now {
		at = p.e.now
	}
	p.pushes = append(p.pushes, qkey{at, p.e.seq + 1})
	p.lane = fullScanFit(&p.e.events, at)
}

// fullScanFit is the lane best fit over all lanes at once, the lowest
// index on a tie, or srcNone. enqueue scans the live lanes before the
// drained ones; a live lane's tail is at least now and a drained lane's
// at most now, so the two must pick the same lane.
func fullScanFit(q *eventQueue, at Time) int {
	best, gap := srcNone, uint64(1)<<63
	for i, tail := range q.tails {
		if g := uint64(at - tail); g < gap {
			best, gap = i, g
		}
	}
	return best
}

// placed checks that the push note logged went where fullScanFit said.
func (p *qprog) placed() {
	got := srcNone
	for i := range p.e.events.lanes {
		if l := &p.e.events.lanes[i]; l.n > 0 && l.buf[(l.head+l.n-1)&(len(l.buf)-1)].seq == p.e.seq {
			got = i
		}
	}
	if got != p.lane {
		p.t.Fatalf("event (%d, %d) went to lane %d, the full scan picks %d", p.e.now, p.e.seq, got, p.lane)
	}
}

func (p *qprog) at(at Time)      { p.note(at); p.e.At(at, p.step); p.placed() }
func (p *qprog) handler(at Time) { p.note(at); p.e.AtHandler(at, p, 0); p.placed() }
func (p *qprog) payload(at Time) {
	p.note(at)
	had := p.npay
	p.e.CrossPayload(p.e, at, p, 0, Payload{})
	if p.npay != had+1 {
		p.t.Fatal("CrossPayload on one engine did not hand over the payload")
	}
	p.placed()
}
func (p *qprog) arm(i int, d Time) {
	p.timers[i].Arm(d)
	p.syncTimers()
}

// syncTimers logs the queued firing of every timer that has a new one.
func (p *qprog) syncTimers() {
	for i, tm := range p.timers {
		if tm.qAt >= 0 && tm.qSeq != p.firing[i] {
			p.firing[i] = tm.qSeq
			p.pushes = append(p.pushes, qkey{tm.qAt, tm.qSeq})
		}
	}
}

func (p *qprog) HandleEvent(uint64)    { p.step() }
func (p *qprog) AcceptPayload(Payload) { p.npay++ }

// step is what every event of a random program does when it fires:
// schedule up to three more events through a random call form, at a
// random delay from the program's set (zero-delay reschedules included),
// now and then stopping a timer or the engine.
func (p *qprog) step() {
	for k := p.rng.Intn(4); k > 0 && p.budget > 0; k-- {
		p.budget--
		d := p.delays[p.rng.Intn(len(p.delays))]
		switch p.rng.Intn(8) {
		case 0, 1:
			p.at(p.e.now + d)
		case 2, 3:
			p.handler(p.e.now + d)
		case 4:
			p.payload(p.e.now + d)
		case 5, 6:
			p.arm(p.rng.Intn(len(p.timers)), d)
		case 7:
			p.timers[p.rng.Intn(len(p.timers))].Stop()
			if p.rng.Intn(16) == 0 {
				p.e.Stop()
				p.stopAt = len(p.got) // Run returns once this event completes
			}
			p.at(p.e.now - 5) // a time in the past is clamped to now
		}
	}
}

// run runs the engine to the horizon and checks what left against the
// push log; at Forever the queue must have drained completely.
func (p *qprog) run(until Time) {
	p.t.Helper()
	p.stopAt = -1
	if err := p.e.Run(until); err != nil {
		p.t.Fatal(err)
	}
	p.syncTimers()
	want := append([]qkey(nil), p.pushes...)
	sort.Slice(want, func(i, j int) bool {
		return want[i].at < want[j].at || (want[i].at == want[j].at && want[i].seq < want[j].seq)
	})
	if n := len(p.got); n > len(want) || !reflect.DeepEqual(p.got, want[:n]) {
		p.t.Fatalf("dispatched %d events out of (at, seq) order:\n got %v\nwant %v", n, p.got, want)
	}
	if pend := len(want) - len(p.got); p.e.Pending() != pend || p.e.Executed() != uint64(len(p.got)) {
		p.t.Fatalf("Pending %d Executed %d, want %d and %d", p.e.Pending(), p.e.Executed(), pend, len(p.got))
	}
	if p.stopAt >= 0 {
		if len(p.got) != p.stopAt {
			p.t.Fatalf("Stop during event %d, but Run returned after event %d", p.stopAt, len(p.got))
		}
		p.run(until) // resume after the Stop
		return
	}
	due := sort.Search(len(want), func(i int) bool { return want[i].at > until })
	if len(p.got) != due {
		p.t.Fatalf("Run(%d) dispatched %d events, %d were due", until, len(p.got), due)
	}
	if len(p.got) < len(want) && p.e.Now() != until { // a drained engine stays at its last event
		p.t.Fatalf("Run(%d) left the clock at %d", until, p.e.Now())
	}
}

// mixed is the delay set of the machine model: same-time reschedules,
// wire stages, the 50 us ack timeout, a Compute sleep.
func mixed() []Time {
	return []Time{0, 0, 1, 144 * Nanosecond, 150 * Nanosecond, 600 * Nanosecond, 50 * Microsecond, 842 * Microsecond}
}

// randomProgram seeds a few events, then runs through two horizons (the
// first chosen to fall inside the program's busy span) and to the end.
func randomProgram(t *testing.T, seed int64, budget int, delays []Time) *qprog {
	p := newQprog(t, seed, budget, delays...)
	for i := 0; i < 4; i++ {
		p.handler(Time(p.rng.Intn(1000)))
	}
	p.run(Time(p.rng.Int63n(int64(200 * Microsecond))))
	p.at(p.e.now + 7) // scheduling from outside Run, between horizons
	p.run(p.e.now + Time(p.rng.Int63n(int64(2*Millisecond))))
	p.run(Forever)
	return p
}

func TestQueueOrderRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := randomProgram(t, seed, 3000, mixed())
		if st := p.e.QueueStats(); st.LaneAppends+st.HeapFallbacks != uint64(len(p.pushes)) {
			t.Fatalf("seed %d: %+v does not add up to %d pushes", seed, st, len(p.pushes))
		}
	}
}

// TestQueueOrderAdversarial names the shapes that stress one part of
// the lane machinery each.
func TestQueueOrderAdversarial(t *testing.T) {
	t.Run("all-equal times", func(t *testing.T) {
		p := newQprog(t, 1, 2000, 0)
		for i := 0; i < 50; i++ {
			p.at(1000)
			p.handler(1000)
			p.payload(1000)
		}
		p.run(Forever)
		if p.e.Now() != 1000 {
			t.Fatalf("clock at %d, want 1000", p.e.Now())
		}
	})
	// (The name predates the one queue: a payload event now ties in the heap too.)
	t.Run("equal times in a lane, the heap and the payload heap", func(t *testing.T) {
		p := newQprog(t, 1, 0, 0)
		p.at(100)
		p.at(1000) // lane 0: head 100, tail 1000
		for i := 1; i < numLanes; i++ {
			p.at(1000 - Time(i)) // a lane each
		}
		p.at(100) // behind every tail: the heap, tying with lane 0's head
		p.payload(100)
		p.at(100)
		if st := p.e.QueueStats(); st.HeapFallbacks != 3 {
			t.Fatalf("%+v, want 3 heap fallbacks", st)
		}
		p.run(Forever)
	})
	t.Run("strictly decreasing times", func(t *testing.T) {
		// Each event precedes every tail, so after one per lane nothing fits.
		p := newQprog(t, 2, 0, 0)
		const n = 500
		for i := 0; i < n; i++ {
			p.at(Time(10 * (n - i)))
		}
		if st := p.e.QueueStats(); st.LaneAppends != numLanes || st.HeapFallbacks != n-numLanes {
			t.Fatalf("%+v, want %d lane appends and the rest in the heap", st, numLanes)
		}
		p.run(2500)
		p.run(Forever)
	})
	t.Run("one Forever event per lane", func(t *testing.T) {
		// Every lane's tail is beyond any real time: a pure heap remains.
		p := newQprog(t, 3, 2000, mixed()...)
		for i := 0; i < numLanes; i++ {
			p.at(Forever - Time(i))
		}
		before := p.e.QueueStats()
		for i := 0; i < 4; i++ {
			p.handler(Time(i))
		}
		p.run(3 * Millisecond)
		p.run(Forever - numLanes)
		if st := p.e.QueueStats(); st.LaneAppends != before.LaneAppends || st.HeapFallbacks == 0 {
			t.Fatalf("%+v: events reached a captured lane (before: %+v)", st, before)
		}
		p.run(Forever)
	})
	t.Run("ring growth across wrap-around", func(t *testing.T) {
		// One lane: fill most of the 64-slot ring, pop half so the head
		// is mid-ring, then append past the wrap and past the capacity.
		p := newQprog(t, 4, 0, 0)
		for i := 0; i < 60; i++ {
			p.handler(Time(10 * i))
		}
		p.run(295)
		for i := 0; i < 300; i++ {
			p.handler(Time(1000 + i/2))
		}
		l := &p.e.events.lanes[0]
		if l.n != 330 || len(l.buf) != 512 || p.e.QueueStats().HeapFallbacks != 0 {
			t.Fatalf("lane 0 holds %d of %d, want 330 of 512 and no fallback", l.n, len(l.buf))
		}
		p.run(1100)
		p.run(Forever)
	})
	t.Run("a live and a drained lane tie on tail", func(t *testing.T) {
		// Unused lanes keep tail 0, so lane 1, live at tail 0, ties with
		// lanes 2.. on the push at 300: both scans pick lane 1.
		p := newQprog(t, 6, 0, 0)
		p.at(500) // lane 0
		p.at(0)   // lane 1
		p.at(300) // lane 1, tying with the drained lanes
		p.at(100) // fits no live lane: lane 2
		if l := &p.e.events.lanes; l[0].n != 1 || l[1].n != 2 || l[2].n != 1 {
			t.Fatalf("lanes hold %d, %d, %d events, want 1, 2, 1", l[0].n, l[1].n, l[2].n)
		}
		p.run(Forever)
	})
	t.Run("horizon between two lanes' heads", func(t *testing.T) {
		p := newQprog(t, 5, 0, 0)
		p.at(300) // lane 0
		p.at(100) // precedes lane 0's tail: lane 1
		p.run(200)
		p.at(250) // behind lane 1's drained tail
		p.at(220) // fits neither tail: a third lane
		p.run(230)
		p.run(299)
		p.run(Forever)
	})
}

// FuzzQueueOrder lets the fuzzer pick the program: its seed, its size
// and which delays it draws from.
func FuzzQueueOrder(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0xff))
	f.Add(int64(2), uint16(3000), uint8(0x01))  // zero delays only
	f.Add(int64(3), uint16(100), uint8(0xc0))   // far timers only
	f.Add(int64(583), uint16(800), uint8(0xff)) // a lane at time 0 ties the unused lanes
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, mask uint8) {
		var delays []Time
		for i, d := range mixed() {
			if mask&(1<<i) != 0 {
				delays = append(delays, d)
			}
		}
		if len(delays) == 0 {
			delays = mixed()
		}
		randomProgram(t, seed, int(budget), delays)
	})
}

// The cluster differential. A program of nodes, each a deterministic
// function of what it has handled so far, runs on the serial engine and
// on clusters of several shapes; every node must handle the same events
// at the same times in the same order everywhere. Shard count moves
// sequence numbers (a mailbox message is numbered at the barrier, a
// local event when scheduled), so the program keeps ties between a
// node's local events (times = 0 mod 32) and its arrivals from node s
// (times = 1+s mod 32) from arising. A node's arrivals come from many
// senders at unrelated delays, so — as PayloadHandler asks — it pairs
// each accepted payload with its event itself, through a key in the arg.

const clusterLook = 96 // lookahead, a multiple of 32

type cnode struct {
	id    int
	eng   *Engine
	peers []*cnode
	timer *Timer
	inbox map[uint64]Payload // accepted, not yet handled, by xkey
	log   []string
	state uint64 // splitmix64 stream, advanced once per draw
	left  int    // events this node may still schedule
}

func (n *cnode) draw(m int) int {
	n.state += 0x9e3779b97f4a7c15
	z := n.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(m))
}

// xkey marks an arrival's arg and names its payload: sender and the
// sender's countdown, which together are unique.
func xkey(sender int, left uint64) uint64 { return 1<<63 | uint64(sender)<<32 | left }

func (n *cnode) AcceptPayload(p Payload) { n.inbox[xkey(int(p[0]), p[1])] = p }

func (n *cnode) HandleEvent(arg uint64) {
	if arg>>63 == 0 {
		n.handle(fmt.Sprintf("h%d", arg))
		return
	}
	p, ok := n.inbox[arg]
	if !ok {
		panic(fmt.Sprintf("node %d: event %#x ran before its payload was accepted", n.id, arg))
	}
	delete(n.inbox, arg)
	n.handle(fmt.Sprintf("x%d from %d", p[1], p[0]))
}

func (n *cnode) handle(what string) {
	now := n.eng.Now()
	n.log = append(n.log, fmt.Sprintf("%d %s", now, what))
	base := (now + 31) &^ 31 // the next local slot, now itself if it is one
	for k := 1 + n.draw(2); k > 0 && n.left > 0; k-- {
		n.left--
		d := Time([]int{0, 1, 5, 40, 1600}[n.draw(5)]) * 32
		arg := uint64(n.left)
		switch n.draw(5) {
		case 0:
			n.eng.At(base+d, func() { n.handle(fmt.Sprintf("f%d", arg)) })
		case 1:
			n.eng.AtHandler(base+d, n, arg)
		case 2:
			n.timer.ArmAt(base + d)
		default:
			dst := n.peers[n.draw(len(n.peers))]
			n.eng.CrossPayload(dst.eng, base+clusterLook+d+Time(1+n.id), dst, xkey(n.id, arg), Payload{uint64(n.id), arg})
		}
	}
}

// runNodes builds 14 nodes over the given engines (node i on engine
// i mod len), runs to a horizon and then to the end, and returns the
// per-node logs and the total number of events executed.
func runNodes(t *testing.T, seed uint64, host *Engine, engs []*Engine) ([][]string, uint64) {
	t.Helper()
	nodes := make([]*cnode, 14)
	for i := range nodes {
		n := &cnode{id: i, eng: engs[i%len(engs)], inbox: map[uint64]Payload{}, state: seed<<8 | uint64(i), left: 400}
		n.timer = n.eng.NewTimer(func() { n.handle("t") })
		nodes[i] = n
	}
	for _, n := range nodes {
		n.peers = nodes
		n.eng.AtHandler(Time(32*(n.id%3)), n, 0)
	}
	if err := host.Run(40 * 32); err != nil {
		t.Fatal(err)
	}
	if host.Now() != 40*32 {
		t.Fatalf("Run(%d) left the host clock at %d", 40*32, host.Now())
	}
	if err := host.RunAll(); err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, len(nodes))
	var executed uint64
	for i, n := range nodes {
		logs[i] = n.log
	}
	for _, e := range engs {
		executed += e.Executed()
		if e.Pending() != 0 {
			t.Fatalf("shard %d still holds %d events", e.ShardID(), e.Pending())
		}
	}
	host.Shutdown()
	return logs, executed
}

func TestClusterMatchesSerialEngine(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		serial := New()
		want, wantN := runNodes(t, seed, serial, []*Engine{serial})
		if wantN < 2000 {
			t.Fatalf("seed %d: the program ran only %d events", seed, wantN)
		}
		for _, shards := range []int{1, 2, 7} {
			for _, workers := range []int{1, 3} {
				host := New()
				c := Clusterize(host, shards, workers, clusterLook)
				// Per shard, the merged dispatch must itself be in (at, seq) order.
				for i := 0; i < shards; i++ {
					e, last := c.Shard(i), qkey{}
					e.SetTracer(func(at Time) {
						if k := (qkey{at, e.lastSeq}); k.at < last.at || (k.at == last.at && k.seq <= last.seq) {
							t.Errorf("shard %d dispatched %v after %v", e.shard, k, last)
						} else {
							last = k
						}
					})
				}
				got, gotN := runNodes(t, seed, host, c.shards)
				if gotN != wantN {
					t.Fatalf("seed %d shards %d workers %d: executed %d events, serial engine %d", seed, shards, workers, gotN, wantN)
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("seed %d shards %d workers %d: node %d diverged from the serial engine\n got %v\nwant %v",
							seed, shards, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
