// Fixture for the contsafe analyzer: blocking coroutine APIs are
// flagged inside continuation-tier callbacks (Engine.At/After closures,
// Engine.NewTimer callbacks, HandleEvent methods, and everything they call in-package); coroutine
// bodies may block freely, and //qcdoclint:blocking-ok waives a call.
package a

import "event"

func literals(eng *event.Engine, g *event.Gate, p *event.Proc) {
	eng.At(0, func() {
		g.Wait(p) // want `calls blocking Gate.Wait`
	})
	eng.After(10, func() {
		p.Sleep(5) // want `calls blocking Proc.Sleep`
	})
}

func queue(eng *event.Engine, q *event.Queue, p *event.Proc) {
	eng.After(5, func() {
		_ = q.Get(p) // want `calls blocking Queue.Get`
	})
}

func timer(eng *event.Engine, p *event.Proc) {
	t := eng.NewTimer(func() {
		p.Sleep(9) // want `calls blocking Proc.Sleep`
	})
	t.Arm(4)
}

// Blocking reached through a same-package static call chain: the
// context propagates from the registration through step to leaf.
func chain(eng *event.Engine) {
	eng.At(0, step)
}

func step() {
	leaf()
}

func leaf() {
	var g event.Gate
	var p *event.Proc
	g.Wait(p) // want `calls blocking Gate.Wait`
}

// A HandleEvent method with the event.Handler shape is continuation
// context by construction.
type pump struct {
	q *event.Queue
	p *event.Proc
}

func (u *pump) HandleEvent(uint64) {
	_ = u.q.Get(u.p) // want `calls blocking Queue.Get`
}

// Passing the coroutine token onward from a continuation is flagged
// even when the blocking call is out of static reach.
func smuggle(eng *event.Engine, p *event.Proc) {
	eng.At(0, func() {
		helper(p) // want `passes the coroutine token \*event.Proc`
	})
}

func helper(p *event.Proc) {}

// Coroutine-tier code blocks legitimately: nothing registers these
// bodies on the continuation tier.
func coroutineBody(p *event.Proc, g *event.Gate, q *event.Queue) int {
	g.Wait(p)
	p.Sleep(3)
	return q.Get(p)
}

// Spawning is not registering: the spawned body runs on the coroutine
// tier and may block.
func spawns(eng *event.Engine, g *event.Gate) {
	eng.Spawn("worker", func(p *event.Proc) {
		g.Wait(p)
	})
}

// An explicit waiver records that this callback runs before the engine
// starts, where the "blocking" call cannot actually yield.
func waived(eng *event.Engine, g *event.Gate, p *event.Proc) {
	eng.At(0, func() {
		g.Wait(p) //qcdoclint:blocking-ok boot-time, engine not yet running
	})
}
