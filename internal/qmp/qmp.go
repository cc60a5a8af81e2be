// Package qmp is the user-level communications API of §3.3: a thin,
// hardware-shaped message-passing layer whose calls "directly reflect
// the underlying hardware features of our communications unit". A node
// program creates a Comm over a dimension fold of the machine and gets:
//
//   - block-strided zero-copy sends and receives along logical axes
//     (the SCU DMA engines; no temporal ordering between a send and the
//     matching receive is required);
//   - global sums and broadcasts riding the SCU's pass-through global
//     mode, including the "doubled" two-stream variant that halves the
//     hop count;
//   - a barrier built from the global sum.
//
// All reductions accumulate in canonical origin order, so every node —
// and any machine decomposition, including a single-node run — produces
// bit-identical results (experiment E10).
package qmp

import (
	"fmt"
	"math"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
	"qcdoc/internal/scu"
)

// Comm is one node's endpoint in a logical (folded) machine.
type Comm struct {
	n    *node.Node
	fold *geom.Fold
	lc   geom.Coord

	// Global-sum scratch, owned so that a sum builds nothing per axis:
	// the gathered words of the ring in hand (ringN nodes, this one at
	// ringMe), in ring up to 8 nodes (every axis of the 1024-node rack),
	// and the one-link Outs of the two streams.
	vals          []uint64
	ring          [8]uint64
	ringN, ringMe int
	outs          [2][1]geom.Link
}

// New builds the communicator for the node in ctx under the given fold
// of the physical machine.
func New(ctx *node.Ctx, fold *geom.Fold) *Comm {
	c := &Comm{n: ctx.N, fold: fold, lc: fold.ToLogical(ctx.N.Coord)}
	c.vals = c.ring[:]
	return c
}

// GlobalWord stores the k-th word of a gather's stream, which left the
// node k+1 places on (stream 1, from ahead) or back (stream 0, from
// behind; k+1 < ringN). It implements scu.WordSink.
func (c *Comm) GlobalWord(stream, k int, w uint64) {
	d := k + 1
	if stream == 0 {
		d = c.ringN - d
	}
	c.vals[(c.ringMe+d)%c.ringN] = w
}

// Shape returns the logical torus shape.
func (c *Comm) Shape() geom.Shape { return c.fold.Logical() }

// Coord returns this node's logical coordinate.
func (c *Comm) Coord() geom.Coord { return c.lc }

// Rank returns the logical lexicographic rank.
func (c *Comm) Rank() int { return c.fold.Logical().Rank(c.lc) }

// link resolves the physical link toward the (axis, dir) logical
// neighbour — a single hop, guaranteed by the fold.
func (c *Comm) link(axis int, dir geom.Dir) geom.Link {
	_, l, _ := c.fold.MachineLink(c.lc, axis, dir)
	return l
}

// StartSend begins a DMA send of the described local memory toward the
// (axis, dir) neighbour.
func (c *Comm) StartSend(axis int, dir geom.Dir, d scu.DMADesc) (scu.Transfer, error) {
	return c.n.SCU.StartSend(c.link(axis, dir), d)
}

// StartRecv begins a DMA receive of data sent by the (axis, dir)
// neighbour into the described local memory.
func (c *Comm) StartRecv(axis int, dir geom.Dir, d scu.DMADesc) (scu.Transfer, error) {
	return c.n.SCU.StartRecv(c.link(axis, dir), d)
}

// WaitAll blocks until every transfer completes.
func WaitAll(p *event.Proc, ts ...scu.Transfer) {
	for _, t := range ts {
		t.Wait(p)
	}
}

// GlobalSumFloat64 performs the §2.2 global sum: a dimension-by-
// dimension ring reduction through the SCU pass-through mode. Every node
// contributes x and receives the identical machine-wide total,
// accumulated in canonical coordinate order (bit-reproducible).
func (c *Comm) GlobalSumFloat64(p *event.Proc, x float64) float64 {
	return math.Float64frombits(c.globalSum(p, math.Float64bits(x), false, true))
}

// GlobalSumFloat64Doubled is the doubled-mode variant: both ring
// directions run concurrently on the SCU's two disjoint global streams,
// halving the hop count (Nx/2 + Ny/2 + ... instead of Nx + Ny + ... - 4).
func (c *Comm) GlobalSumFloat64Doubled(p *event.Proc, x float64) float64 {
	return math.Float64frombits(c.globalSum(p, math.Float64bits(x), true, true))
}

// GlobalSumUint64 sums unsigned words (useful for counters and votes).
func (c *Comm) GlobalSumUint64(p *event.Proc, x uint64) uint64 {
	return c.globalSum(p, x, false, false)
}

// globalSum is every global sum: one ring reduction per axis of extent
// > 1, single or doubled, whose words add as float64s or as integers in
// canonical order — by origin coordinate, identical on every node.
func (c *Comm) globalSum(p *event.Proc, x uint64, doubled, float bool) uint64 {
	c.noteGlobalSum()
	start, flow, prev := c.gsumBegin(p)
	shape := c.fold.Logical()
	for axis := 0; axis < geom.MaxDim; axis++ {
		if shape[axis] <= 1 {
			continue
		}
		vals := c.axisGather(p, axis, x, doubled)
		x = 0
		if float {
			sum := 0.0
			for _, w := range vals {
				sum += math.Float64frombits(w)
			}
			x = math.Float64bits(sum)
		} else {
			for _, w := range vals {
				x += w
			}
		}
	}
	c.gsumEnd(p, start, flow, prev)
	return x
}

// gsumBegin opens the observability envelope around one global sum: a
// fresh causal flow (so every wire event the reduction schedules — on
// this shard and, via the cluster mailboxes, on every shard it crosses
// — carries one trace ID), a span-begin mark, and the start time for
// the round-trip histogram. Pure trace metadata plus a clock read:
// nothing here schedules or reorders an event.
func (c *Comm) gsumBegin(p *event.Proc) (start event.Time, flow, prev uint64) {
	eng := p.Engine()
	flow = eng.NewFlow()
	prev = eng.SetFlow(flow)
	eng.MarkSpanBegin("gsum")
	return p.Now(), flow, prev
}

// gsumEnd closes the envelope: re-assert the flow (wake events may have
// switched it), drop the span-end mark, restore the caller's flow, and
// record the round trip into the node's histogram (nil-gated like every
// counter).
func (c *Comm) gsumEnd(p *event.Proc, start event.Time, flow, prev uint64) {
	eng := p.Engine()
	eng.SetFlow(flow)
	eng.MarkSpanEnd("gsum")
	eng.SetFlow(prev)
	if ctr := c.n.Counters(); ctr != nil {
		ctr.GsumTime.Record(uint64(p.Now() - start))
	}
}

// axisGather collects every node's word along an axis ring, indexed by
// the origin's coordinate on the axis. The result is the Comm's scratch:
// valid until the next gather.
func (c *Comm) axisGather(p *event.Proc, axis int, word uint64, doubled bool) []uint64 {
	n := c.fold.Logical()[axis]
	if cap(c.vals) < n {
		c.vals = make([]uint64, n)
	}
	vals := c.vals[:n] // every entry is overwritten: ours here, n-1 by GlobalWord
	c.vals, c.ringN, c.ringMe = vals, n, c.lc[axis]
	vals[c.ringMe] = word
	fwd := c.link(axis, geom.Fwd)
	bwd := c.link(axis, geom.Bwd)
	c.outs[0][0], c.outs[1][0] = fwd, bwd
	if !doubled {
		// Single ring: words travel +axis; we receive N-1 words from the
		// -axis side, forwarding all but the last.
		cfg := scu.GlobalConfig{
			In: bwd, HasIn: true, Outs: c.outs[0][:],
			Expect: n - 1, Forward: n - 2, OnWord: c,
		}
		must(c.n.SCU.ConfigureGlobal(0, cfg))
		must(c.n.SCU.GlobalInject(0, word))
		c.n.SCU.WaitGlobal(p, 0)
		c.n.SCU.DisableGlobal(0)
		return vals
	}
	// Doubled mode: stream 0 carries words moving +axis (received from
	// -axis, travelling at most ceil((n-1+1)/2) = n/2 hops), stream 1
	// carries words moving -axis.
	kf := n / 2
	kb := n - 1 - kf
	cfg0 := scu.GlobalConfig{
		In: bwd, HasIn: true, Outs: c.outs[0][:],
		Expect: kf, Forward: max(kf-1, 0), OnWord: c,
	}
	cfg1 := scu.GlobalConfig{
		In: fwd, HasIn: true, Outs: c.outs[1][:],
		Expect: kb, Forward: max(kb-1, 0), OnWord: c,
	}
	must(c.n.SCU.ConfigureGlobal(0, cfg0))
	if kb > 0 {
		must(c.n.SCU.ConfigureGlobal(1, cfg1))
	}
	must(c.n.SCU.GlobalInject(0, word))
	if kb > 0 {
		must(c.n.SCU.GlobalInject(1, word))
	}
	c.n.SCU.WaitGlobal(p, 0)
	c.n.SCU.DisableGlobal(0)
	if kb > 0 {
		c.n.SCU.WaitGlobal(p, 1)
		c.n.SCU.DisableGlobal(1)
	}
	return vals
}

// Broadcast distributes root's word to every node by dimension-order
// ring broadcasts through the SCU global mode ("the pattern of links is
// chosen to rapidly span the entire machine", §2.2). Every node passes
// the same root coordinate; the return value is the broadcast word.
func (c *Comm) Broadcast(p *event.Proc, root geom.Coord, word uint64) uint64 {
	if ctr := c.n.Counters(); ctr != nil {
		ctr.Broadcasts++
	}
	shape := c.fold.Logical()
	for axis := 0; axis < geom.MaxDim; axis++ {
		n := shape[axis]
		if n <= 1 {
			continue
		}
		// Participants this phase: coordinates matching root beyond this
		// axis.
		participating := true
		for j := axis + 1; j < geom.MaxDim; j++ {
			if c.lc[j] != root[j] {
				participating = false
				break
			}
		}
		if !participating {
			continue
		}
		fwd := c.link(axis, geom.Fwd)
		bwd := c.link(axis, geom.Bwd)
		if c.lc[axis] == root[axis] {
			// Source: inject and receive nothing.
			cfg := scu.GlobalConfig{Outs: []geom.Link{fwd}}
			must(c.n.SCU.ConfigureGlobal(0, cfg))
			must(c.n.SCU.GlobalInject(0, word))
			c.n.SCU.DisableGlobal(0)
			continue
		}
		dist := ((c.lc[axis]-root[axis])%n + n) % n
		forward := 0
		if dist < n-1 {
			forward = 1
		}
		var got uint64
		cfg := scu.GlobalConfig{
			In: bwd, HasIn: true, Outs: []geom.Link{fwd},
			Expect: 1, Forward: forward,
			OnWord: scu.WordFunc(func(_ int, w uint64) { got = w }),
		}
		must(c.n.SCU.ConfigureGlobal(0, cfg))
		c.n.SCU.WaitGlobal(p, 0)
		c.n.SCU.DisableGlobal(0)
		word = got
	}
	return word
}

// Barrier blocks until every node in the logical machine has entered it
// (a global sum of ones).
func (c *Comm) Barrier(p *event.Proc) {
	if ctr := c.n.Counters(); ctr != nil {
		ctr.Barriers++
	}
	total := c.GlobalSumUint64(p, 1)
	if total != uint64(c.fold.Logical().Volume()) {
		panic(fmt.Sprintf("qmp: barrier counted %d of %d nodes", total, c.fold.Logical().Volume()))
	}
}

// noteGlobalSum ticks the node's global-sum counter when telemetry is
// on; a barrier's internal sum counts too — it is one on the wire.
func (c *Comm) noteGlobalSum() {
	if ctr := c.n.Counters(); ctr != nil {
		ctr.GlobalSums++
	}
}

func must(err error) {
	if err != nil {
		panic("qmp: " + err.Error())
	}
}
