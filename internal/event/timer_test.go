package event

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTimerFiresOnce(t *testing.T) {
	eng := New()
	fires := 0
	tm := eng.NewTimer(func() { fires++ })
	tm.Arm(5 * Microsecond)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if eng.Now() != 5*Microsecond {
		t.Fatalf("fired at %v", eng.Now())
	}
}

func TestTimerRearmCancelsEarlier(t *testing.T) {
	eng := New()
	var firedAt []Time
	tm := eng.NewTimer(func() { firedAt = append(firedAt, eng.Now()) })
	tm.Arm(5 * Microsecond)
	eng.After(2*Microsecond, func() { tm.Arm(10 * Microsecond) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(firedAt) != 1 || firedAt[0] != 12*Microsecond {
		t.Fatalf("firedAt = %v, want [12us]", firedAt)
	}
}

func TestTimerStop(t *testing.T) {
	eng := New()
	fires := 0
	tm := eng.NewTimer(func() { fires++ })
	tm.Arm(5 * Microsecond)
	eng.After(1*Microsecond, tm.Stop)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 0 {
		t.Fatalf("fires = %d after Stop", fires)
	}
	// A stopped timer re-arms cleanly.
	tm.Arm(3 * Microsecond)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("fires = %d after re-arm", fires)
	}
}

// TestTimerDispatchAllocFree pins the zero-allocation contract of the
// pooled timer and the handler-based event path: once a timer exists and
// the event heap has reached its high-water mark, arming, dispatching,
// and re-arming allocate nothing. This is the per-word cost of the SCU's
// acknowledgement-timeout registers, of which a large machine has tens
// of thousands.
func TestTimerDispatchAllocFree(t *testing.T) {
	eng := New()
	fires := 0
	var tm *Timer
	tm = eng.NewTimer(func() {
		fires++
		tm.Arm(Microsecond) // periodic: each firing re-arms
	})
	tm.Arm(Microsecond)
	// Warm up: let the event heap grow to steady state.
	if err := eng.Run(10 * Microsecond); err != nil {
		t.Fatal(err)
	}
	before := fires
	avg := testing.AllocsPerRun(100, func() {
		if err := eng.Run(eng.Now() + 10*Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if fires == before {
		t.Fatal("timer did not fire during measurement")
	}
	if avg != 0 {
		t.Errorf("timer arm/dispatch allocates: %.2f allocs per 10-firing window", avg)
	}
}

// eagerTimer is the reference model of a Timer: every Arm queues its own
// firing and bumps a generation that orphans the earlier ones. Timer must
// run its callback whenever, and in the same order as, this one would.
type eagerTimer struct {
	eng *Engine
	fn  func()
	gen uint64
}

func (t *eagerTimer) Arm(d Time)    { t.gen++; t.eng.AfterHandler(d, t, t.gen) }
func (t *eagerTimer) ArmAt(at Time) { t.gen++; t.eng.AtHandler(at, t, t.gen) }
func (t *eagerTimer) Stop()         { t.gen++ }
func (t *eagerTimer) HandleEvent(gen uint64) {
	if t.gen == gen {
		t.fn()
	}
}

type timerAPI interface {
	Arm(Time)
	ArmAt(Time)
	Stop()
}

// timerRun is one callback run: a timer's (who >= 0) or an unrelated
// event's (who = -1).
type timerRun struct {
	at  Time
	who int
}

// timerProg drives three timers and a stream of unrelated events through
// a seeded random program. Every callback logs itself and then makes up
// to three more calls drawn from the program's generator, so two engines
// produce the same log only if they ran every callback at the same time
// and in the same order. A monotone program re-arms each timer with its
// own fixed period only — the ack clock and the heartbeat — so a deadline
// never moves backwards, and a Timer (eager = false) must then never hold
// more than one event in the queue.
type timerProg struct {
	t        *testing.T
	e        *Engine
	rng      *rand.Rand
	timers   []timerAPI
	log      []timerRun
	budget   int
	live     int // unrelated events queued
	monotone bool
	eager    bool
	delays   []Time
}

func runTimerProg(t *testing.T, seed int64, budget int, monotone, eager bool, delays []Time) []timerRun {
	t.Helper()
	p := &timerProg{t: t, e: New(), rng: rand.New(rand.NewSource(seed)), budget: budget, monotone: monotone, eager: eager, delays: delays}
	for i := 0; i < 3; i++ {
		fn := func() {
			if p.rng.Intn(2) == 0 { // the heartbeat: re-arm from inside the callback
				p.arm(i)
			}
			p.step(i)
		}
		if eager {
			p.timers = append(p.timers, &eagerTimer{eng: p.e, fn: fn})
		} else {
			p.timers = append(p.timers, p.e.NewTimer(fn))
		}
	}
	for i := range p.timers {
		p.arm(i)
	}
	p.unrelated(Time(p.rng.Intn(1000)))
	// A far event keeps the queue from draining before a horizon: the
	// clock of a drained engine rests on its last event, which for the
	// eager reference may be an orphaned firing.
	p.unrelated(10 * Millisecond)
	for _, until := range []Time{Time(p.rng.Int63n(int64(200 * Microsecond))), 3 * Millisecond} {
		if err := p.e.Run(until); err != nil {
			t.Fatal(err)
		}
		p.step(-2) // calls from outside Run, between horizons
	}
	if err := p.e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if p.e.Pending() != 0 {
		t.Fatalf("seed %d: %d events left after RunAll", seed, p.e.Pending())
	}
	return p.log
}

func (p *timerProg) delay() Time { return p.delays[p.rng.Intn(len(p.delays))] }

func (p *timerProg) unrelated(at Time) {
	p.live++
	p.e.At(at, func() {
		p.live--
		p.step(-1)
	})
}

// arm re-arms timer i: by its period in a monotone program, else by Arm
// or ArmAt at a random delay (earlier or later than whatever is pending)
// or at a time already past.
func (p *timerProg) arm(i int) {
	tm := p.timers[i]
	if p.monotone {
		tm.Arm(p.delays[i%len(p.delays)])
		return
	}
	switch p.rng.Intn(5) {
	case 0, 1:
		tm.Arm(p.delay())
	case 2, 3:
		tm.ArmAt(p.e.Now() + p.delay())
	case 4:
		tm.ArmAt(p.e.Now() - 3)
	}
}

func (p *timerProg) step(who int) {
	p.log = append(p.log, timerRun{p.e.Now(), who})
	if p.monotone && !p.eager && p.e.Pending() > p.live+len(p.timers) {
		p.t.Fatalf("%d events pending at %v with %d live and %d timers: a re-arm queued a second firing",
			p.e.Pending(), p.e.Now(), p.live, len(p.timers))
	}
	for k := p.rng.Intn(4); k > 0 && p.budget > 0; k-- {
		p.budget--
		switch p.rng.Intn(8) {
		case 0, 1, 2:
			p.unrelated(p.e.Now() + p.delay())
		case 3, 4, 5, 6:
			p.arm(p.rng.Intn(len(p.timers)))
		case 7:
			p.timers[p.rng.Intn(len(p.timers))].Stop()
		}
	}
}

// checkTimerAgainstEager runs one program on a Timer and on the eager
// reference and demands the same log.
func checkTimerAgainstEager(t *testing.T, seed int64, budget int, monotone bool, delays []Time) {
	t.Helper()
	got := runTimerProg(t, seed, budget, monotone, false, delays)
	want := runTimerProg(t, seed, budget, monotone, true, delays)
	if !reflect.DeepEqual(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("seed %d monotone %v: Timer ran %d callbacks, the eager reference %d; first difference at run %d:\n got %v\nwant %v",
			seed, monotone, len(got), len(want), n, got[n:min(n+4, len(got))], want[n:min(n+4, len(want))])
	}
}

func TestLazyTimerMatchesEagerReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		checkTimerAgainstEager(t, seed, 2000, false, mixed())
		checkTimerAgainstEager(t, seed, 2000, true, []Time{50 * Microsecond, 600 * Nanosecond, 842 * Microsecond})
	}
}

// FuzzLazyTimer lets the fuzzer pick the program, as FuzzQueueOrder does.
func FuzzLazyTimer(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0xff), false)
	f.Add(int64(2), uint16(2000), uint8(0x03), false) // zero delays only
	f.Add(int64(3), uint16(1000), uint8(0xc0), true)  // far timers only
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, mask uint8, monotone bool) {
		var delays []Time
		for i, d := range mixed() {
			if mask&(1<<i) != 0 {
				delays = append(delays, d)
			}
		}
		if len(delays) == 0 {
			delays = mixed()
		}
		checkTimerAgainstEager(t, seed, int(budget), monotone, delays)
	})
}
