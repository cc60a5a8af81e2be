// Fixture for the shardsafe analyzer: shard-context code (At/After
// closures, timers, spawned bodies, HandleEvent methods, and everything
// they call in-package) must not index or element-range the machine-wide
// hardware collections; callbacks routed through
// CrossAt/AtGlobal/OnBarrier and AcceptPayload methods are exempt, and
// //qcdoclint:shard-ok waives a line.
package a

import (
	"event"
	"hssl"
	"node"
)

type machine struct {
	Nodes []*node.Node
	Wires []*hssl.Wire
}

func literals(eng *event.Engine, m *machine) {
	eng.At(0, func() {
		m.Nodes[3].Crash() // want `indexes the machine-wide \[\]\*node.Node`
	})
	eng.After(10, func() {
		for _, w := range m.Wires { // want `ranges over the machine-wide \[\]\*hssl.Wire`
			w.Kill()
		}
	})
}

func timer(eng *event.Engine, m *machine) {
	t := eng.NewTimer(func() {
		m.Wires[0].Kill() // want `indexes the machine-wide \[\]\*hssl.Wire`
	})
	t.Arm(4)
}

func spawned(eng *event.Engine, m *machine) {
	eng.SpawnDaemon("svc", func(p *event.Proc) {
		m.Nodes[1].TickHeartbeat() // want `indexes the machine-wide \[\]\*node.Node`
	})
}

// Shard context propagates through same-package static calls.
func chain(eng *event.Engine, m *machine) {
	eng.At(0, func() { step(m) })
}

func step(m *machine) {
	m.Nodes[0].Crash() // want `indexes the machine-wide \[\]\*node.Node`
}

// Dispatch methods are shard context by construction.
type svc struct{ m *machine }

func (s *svc) HandleEvent(uint64) {
	s.m.Nodes[2].Crash() // want `indexes the machine-wide \[\]\*node.Node`
}

// AcceptPayload runs at the barrier, serially, like an OnBarrier hook.
func (s *svc) AcceptPayload(p event.Payload) {
	s.m.Wires[1].Kill()
}

// Index-only ranges never touch elements: not flagged.
func indexOnly(eng *event.Engine, m *machine) {
	eng.At(0, func() {
		for r := range m.Nodes {
			_ = r
		}
	})
}

// The serialized tiers are the sanctioned escape hatches: CrossAt
// callbacks run on the owning shard, AtGlobal/OnBarrier callbacks run
// serially between windows.
func exemptLiterals(eng, dst *event.Engine, cl *event.Cluster, m *machine) {
	eng.At(0, func() {
		eng.CrossAt(dst, 5, func() {
			m.Nodes[4].Crash()
		})
	})
	cl.AtGlobal(7, func() {
		for _, n := range m.Nodes {
			n.TickHeartbeat()
		}
	})
	cl.OnBarrier(func() {
		m.Wires[2].Kill()
	})
}

// A method value handed to AtGlobal is exempt even when some other
// registration would otherwise drag it into shard context.
type sampler struct{ m *machine }

func (s *sampler) tickAll() {
	for _, n := range s.m.Nodes {
		n.TickHeartbeat()
	}
}

func (s *sampler) arm(cl *event.Cluster) {
	cl.AtGlobal(9, s.tickAll)
}

// Plain code outside any shard context may touch the collections: the
// machine builder and test harnesses run before the engine does.
func buildTime(m *machine) {
	for _, n := range m.Nodes {
		n.TickHeartbeat()
	}
	m.Wires[0].Kill()
}

// An explicit waiver records a rank-local access.
func waived(eng *event.Engine, m *machine, rank int) {
	eng.At(0, func() {
		m.Nodes[rank].TickHeartbeat() //qcdoclint:shard-ok own rank only
	})
}
