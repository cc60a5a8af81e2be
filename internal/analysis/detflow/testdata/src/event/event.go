// Package event is a minimal stand-in for qcdoc/internal/event: the
// analyzers match scheduler calls by (package tail, method name), so
// fixtures only need the shapes, not the engine.
package event

type Time int64

type Handler interface{ HandleEvent(arg uint64) }

type Engine struct{}

func (e *Engine) Now() Time                               { return 0 }
func (e *Engine) At(t Time, fn func())                    {}
func (e *Engine) After(d Time, fn func())                 {}
func (e *Engine) AtHandler(t Time, h Handler, arg uint64) {}
func (e *Engine) NewTimer(fn func()) *Timer               { return &Timer{} }
func (e *Engine) Run() bool                               { return false }
func (e *Engine) RunAll()                                 {}
func (e *Engine) Spawn(name string, fn func(*Proc))       {}

type Timer struct{}

func (t *Timer) Arm(d Time)    {}
func (t *Timer) ArmAt(at Time) {}
func (t *Timer) Stop()         {}

type Proc struct{}

func (p *Proc) Sleep(d Time) {}

type Gate struct{}

func (g *Gate) Wait(p *Proc) {}
func (g *Gate) Fire()        {}

type Queue struct{}

func (q *Queue) Get(p *Proc) int { return 0 }
func (q *Queue) Put(v int)       {}

type StateMachine struct{}

func (s *StateMachine) Goto(fn func()) {}

// Cross-shard surface, so fixtures can exercise the cross schedulers.
type Payload [4]uint64

type PayloadHandler interface {
	Handler
	AcceptPayload(p Payload)
}

func (e *Engine) CrossAt(dst *Engine, t Time, fn func())                                  {}
func (e *Engine) CrossPayload(dst *Engine, t Time, h PayloadHandler, a uint64, p Payload) {}
