// Package event is a minimal stand-in for qcdoc/internal/event: the
// crossalias checks match cross-shard schedulers by (package tail,
// method name), so fixtures only need the shapes, not the engine.
package event

type Time int64

type Payload [4]uint64

type PayloadHandler interface {
	HandleEvent(arg uint64)
	AcceptPayload(p Payload)
}

type Engine struct{}

func (e *Engine) Now() Time                                                               { return 0 }
func (e *Engine) At(t Time, fn func())                                                    {}
func (e *Engine) ShardID() int                                                            { return 0 }
func (e *Engine) CrossAt(dst *Engine, t Time, fn func())                                  {}
func (e *Engine) CrossPayload(dst *Engine, t Time, h PayloadHandler, a uint64, p Payload) {}

type Cluster struct{}

func (c *Cluster) Shard(i int) *Engine        { return nil }
func (c *Cluster) AtGlobal(t Time, fn func()) {}
func (c *Cluster) OnBarrier(fn func())        {}
