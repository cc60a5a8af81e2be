// Package event is a minimal stand-in for qcdoc/internal/event: the
// analyzers match scheduler calls by (package tail, method name), so
// fixtures only need the shapes, not the engine.
package event

type Time int64

type Payload [4]uint64

type Handler interface{ HandleEvent(arg uint64) }

type PayloadHandler interface {
	Handler
	AcceptPayload(p Payload)
}

type Engine struct{}

func (e *Engine) Now() Time                                     { return 0 }
func (e *Engine) At(t Time, fn func())                          {}
func (e *Engine) After(d Time, fn func())                       {}
func (e *Engine) NewTimer(fn func()) *Timer                     { return &Timer{} }
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc       { return &Proc{} }
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc { return &Proc{} }
func (e *Engine) CrossAt(dst *Engine, t Time, fn func())        {}
func (e *Engine) CrossPayload(dst *Engine, t Time, h PayloadHandler, arg uint64, p Payload) {
}

type Cluster struct{}

func (c *Cluster) AtGlobal(t Time, fn func()) {}
func (c *Cluster) OnBarrier(fn func())        {}

type Timer struct{}

func (t *Timer) Arm(d Time) {}
func (t *Timer) Stop()      {}

type Proc struct{}

func (p *Proc) Sleep(d Time) {}
