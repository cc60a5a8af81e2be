package qmp

import (
	"math"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/scu"
)

func booted(t *testing.T, shape geom.Shape) (*event.Engine, *machine.Machine) {
	t.Helper()
	eng := event.New()
	m := machine.Build(eng, machine.DefaultConfig(shape))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Shutdown() })
	return eng, m
}

func TestGlobalSumFloat64(t *testing.T) {
	_, m := booted(t, geom.MakeShape(4, 2, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	got := make([]float64, m.NumNodes())
	err := m.RunSPMD("gsum", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			got[rank] = c.GlobalSumFloat64(ctx.P, float64(rank)+0.25)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	want := float64(n*(n-1))/2 + 0.25*float64(n)
	for r, v := range got {
		if v != want { // bit-exact: all nodes sum in canonical order
			t.Fatalf("node %d sum = %v, want %v", r, v, want)
		}
	}
	if _, err := m.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalSumBitIdenticalAcrossNodes(t *testing.T) {
	// Floating-point addition is not associative; the canonical-order
	// reduction must still give every node the same bits, equal to the
	// single-node reference summing in coordinate order.
	_, m := booted(t, geom.MakeShape(4, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	vals := []float64{1e16, 1.0, -1e16, 3.125, 2.5e-7, -42.0, 7.75, 1e-3}
	got := make([]uint64, m.NumNodes())
	err := m.RunSPMD("gsum-bits", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			got[rank] = math.Float64bits(c.GlobalSumFloat64(ctx.P, vals[rank]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Single-node reference: canonical coordinate order is dimension-wise.
	// For the identity fold on 4x2, axis 0 then axis 1: first sum groups
	// of 4 along axis 0, then 2 along axis 1.
	shape := fold.Logical()
	axis0 := make([]float64, shape[1])
	for y := 0; y < shape[1]; y++ {
		s := 0.0
		for x := 0; x < shape[0]; x++ {
			s += vals[m.Cfg.Shape.Rank(geom.Coord{x, y})]
		}
		axis0[y] = s
	}
	ref := 0.0
	for _, s := range axis0 {
		ref += s
	}
	refBits := math.Float64bits(ref)
	for r, bits := range got {
		if bits != refBits {
			t.Fatalf("node %d bits %#x, reference %#x", r, bits, refBits)
		}
	}
}

func TestGlobalSumDoubled(t *testing.T) {
	_, m := booted(t, geom.MakeShape(4, 4))
	fold := geom.IdentityFold(m.Cfg.Shape)
	got := make([]float64, m.NumNodes())
	err := m.RunSPMD("gsum2", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			got[rank] = c.GlobalSumFloat64Doubled(ctx.P, float64(rank+1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	want := float64(n * (n + 1) / 2)
	for r, v := range got {
		if v != want {
			t.Fatalf("node %d sum = %v, want %v", r, v, want)
		}
	}
}

func TestDoubledModeHalvesLatency(t *testing.T) {
	// E5: the doubled global mode needs Nx/2 + ... hops instead of
	// Nx + ... - 4.
	elapsed := func(doubled bool) event.Time {
		eng := event.New()
		defer eng.Shutdown()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(8)))
		if err := m.Boot(); err != nil {
			t.Fatal(err)
		}
		fold := geom.IdentityFold(m.Cfg.Shape)
		start := eng.Now()
		var end event.Time
		err := m.RunSPMD("gsum", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				c := New(ctx, fold)
				if doubled {
					c.GlobalSumFloat64Doubled(ctx.P, 1)
				} else {
					c.GlobalSumFloat64(ctx.P, 1)
				}
				if ctx.P.Now() > end {
					end = ctx.P.Now()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end - start
	}
	single := elapsed(false)
	doubled := elapsed(true)
	// 8-ring: single needs 7 sequential hops, doubled 4. Expect a
	// speedup approaching 7/4; allow generous bounds for per-node
	// overheads.
	ratio := float64(single) / float64(doubled)
	if ratio < 1.3 {
		t.Fatalf("doubled mode speedup %.2fx (single %v, doubled %v), want > 1.3x", ratio, single, doubled)
	}
}

func TestGlobalSumUint64(t *testing.T) {
	_, m := booted(t, geom.MakeShape(2, 2, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	err := m.RunSPMD("usum", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			if got := c.GlobalSumUint64(ctx.P, uint64(rank)); got != 28 {
				panic("wrong integer sum")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	_, m := booted(t, geom.MakeShape(4, 2, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	root := geom.Coord{2, 1, 0, 0, 0, 0}
	rootRank := fold.Logical().Rank(root)
	got := make([]uint64, m.NumNodes())
	err := m.RunSPMD("bcast", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			word := uint64(0)
			if c.Rank() == rootRank {
				word = 0xFACEB00C
			}
			got[rank] = c.Broadcast(ctx.P, root, word)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		if v != 0xFACEB00C {
			t.Fatalf("node %d got %#x", r, v)
		}
	}
}

func TestBarrier(t *testing.T) {
	_, m := booted(t, geom.MakeShape(2, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	var after event.Time
	err := m.RunSPMD("barrier", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			// Stagger arrivals; the barrier must hold everyone until the
			// last (rank 3) arrives.
			ctx.P.Sleep(event.Time(rank) * event.Microsecond)
			c.Barrier(ctx.P)
			if after == 0 || ctx.P.Now() < after {
				after = ctx.P.Now()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after < 3*event.Microsecond {
		t.Fatalf("a node left the barrier at %v, before the last arrival", after)
	}
}

func TestFoldedGlobalSum(t *testing.T) {
	// A 16-node 4x2x2 machine folded to a 1-D ring of 16: the sum still
	// works over serpentine links.
	_, m := booted(t, geom.MakeShape(4, 2, 2))
	fold, err := geom.NewFold(m.Cfg.Shape, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunSPMD("folded", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			if c.Shape()[0] != 16 {
				panic("fold shape wrong")
			}
			if got := c.GlobalSumFloat64(ctx.P, 1); got != 16 {
				panic("folded sum wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestHaloExchangeUnderFold(t *testing.T) {
	// Logical-axis halo exchange on a folded machine: each node sends a
	// block-strided pattern to its +0 logical neighbour.
	_, m := booted(t, geom.MakeShape(2, 2, 2, 2))
	fold, err := geom.NewFold(m.Cfg.Shape, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	logical := fold.Logical()
	err = m.RunSPMD("halo", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := New(ctx, fold)
			n := ctx.N
			// Strided source: 4 blocks of 2 words, stride 5.
			src := n.AllocWords(20)
			dst := n.AllocWords(8)
			for i := 0; i < 20; i++ {
				n.Mem.WriteWord(src+8*uint64(i), uint64(c.Rank())<<16|uint64(i))
			}
			sdesc := scu.DMADesc{Base: src, BlockWords: 2, NumBlocks: 4, StrideWords: 5}
			rt, err := c.StartRecv(0, geom.Bwd, scu.Contiguous(dst, 8))
			if err != nil {
				panic(err)
			}
			if _, err := c.StartSend(0, geom.Fwd, sdesc); err != nil {
				panic(err)
			}
			rt.Wait(ctx.P)
			// Expect the -0 logical neighbour's gathered pattern.
			prev := c.Coord()
			prev[0] = (prev[0] - 1 + logical[0]) % logical[0]
			prevRank := logical.Rank(prev)
			k := 0
			for b := 0; b < 4; b++ {
				for wIdx := 0; wIdx < 2; wIdx++ {
					want := uint64(prevRank)<<16 | uint64(b*5+wIdx)
					if got := n.Mem.ReadWord(dst + 8*uint64(k)); got != want {
						panic("halo word wrong under fold")
					}
					k++
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGlobalSumSteadyStateAllocs: after a rank's first global sum, one
// more costs the host nothing — the Comm owns the gather scratch, the
// Outs slices and the OnWord callbacks, the SCU owns its two streams and
// their gates, and the wait reason is a constant. Measured as the
// difference between programs of 11 sums and of 1 on a 2x2x2 machine, per
// sum per rank. Before: 30 (ten per axis: the gathered slice, two Outs
// slices, two OnWord closures, the stream and its gate, the formatted
// wait reason, the waiter list and the wake closure); now 0.
func TestGlobalSumSteadyStateAllocs(t *testing.T) {
	_, m := booted(t, geom.MakeShape(2, 2, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	run := func(sums int) func() {
		return func() {
			err := m.RunSPMD("gsum", func(rank int) node.Program {
				return func(ctx *node.Ctx) {
					c := New(ctx, fold)
					for i := 0; i < sums; i++ {
						if got := c.GlobalSumFloat64Doubled(ctx.P, float64(rank)); got != 28 {
							panic("wrong sum")
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	run(11)() // one-time growth: inject queues, gate storage, the event queue
	one, eleven := testing.AllocsPerRun(5, run(1)), testing.AllocsPerRun(5, run(11))
	if perSum := (eleven - one) / float64(10*m.NumNodes()); perSum != 0 {
		t.Errorf("a steady-state global sum allocates %.2f objects per rank (programs of 1 and 11 sums: %.0f and %.0f), want 0",
			perSum, one, eleven)
	}
}

// TestHaloExchangeSteadyStateAllocs: after a rank's first halo exchange
// — on a 2x2x2x2 machine, a receive and a send each way along each of
// the four axes, then a wait on all sixteen — one more costs the host
// nothing: each SCU takes its transfer records back off its free list,
// the handles are values, and the link queues keep their storage.
// Measured as the difference between programs of 11 exchanges and of 1,
// per exchange per rank. Before: 16, one record per transfer.
func TestHaloExchangeSteadyStateAllocs(t *testing.T) {
	_, m := booted(t, geom.MakeShape(2, 2, 2, 2))
	fold := geom.IdentityFold(m.Cfg.Shape)
	const axes, words = 4, 24
	bufs := make([]uint64, m.NumNodes()) // each rank's face buffers, allocated once
	run := func(exchanges int) func() {
		return func() {
			err := m.RunSPMD("halo", func(rank int) node.Program {
				return func(ctx *node.Ctx) {
					c := New(ctx, fold)
					if bufs[rank] == 0 {
						bufs[rank] = ctx.N.AllocWords(4 * axes * words)
					}
					buf := func(axis, i int) scu.DMADesc {
						return scu.Contiguous(bufs[rank]+8*uint64((4*axis+i)*words), words)
					}
					var ts [4 * axes]scu.Transfer
					for x := 0; x < exchanges; x++ {
						for axis := 0; axis < axes; axis++ {
							var err [4]error
							ts[4*axis], err[0] = c.StartRecv(axis, geom.Fwd, buf(axis, 0))
							ts[4*axis+1], err[1] = c.StartRecv(axis, geom.Bwd, buf(axis, 1))
							ts[4*axis+2], err[2] = c.StartSend(axis, geom.Bwd, buf(axis, 2))
							ts[4*axis+3], err[3] = c.StartSend(axis, geom.Fwd, buf(axis, 3))
							for _, e := range err {
								if e != nil {
									panic(e)
								}
							}
						}
						WaitAll(ctx.P, ts[:]...)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	run(11)() // one-time growth: the records, wire rings, the event queue
	one, eleven := testing.AllocsPerRun(5, run(1)), testing.AllocsPerRun(5, run(11))
	if perExchange := (eleven - one) / float64(10*m.NumNodes()); perExchange != 0 {
		t.Errorf("a steady-state halo exchange allocates %.2f objects per rank (programs of 1 and 11 exchanges: %.0f and %.0f), want 0",
			perExchange, one, eleven)
	}
}
