// partitioning demonstrates the software shape-shifting of §2.2/§3.1:
// the same 16-node machine is remapped — without moving a cable — to
// logical tori of dimensionality 1 through 4, and on each mapping the
// SCU global-operation hardware performs a machine-wide sum (single and
// doubled mode) and a broadcast. A partition interrupt is raised on one
// node and observed by every CPU after the global-clock sampling window.
package main

import (
	"fmt"
	"log"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
)

func main() {
	shape := geom.MakeShape(4, 2, 2)
	eng := event.New()
	defer eng.Shutdown()
	m := machine.Build(eng, machine.DefaultConfig(shape))
	if err := m.Boot(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %v (%d nodes), native dimensionality %d\n",
		shape, m.NumNodes(), shape.Dims())

	for dims := 1; dims <= 4; dims++ {
		fold, err := geom.FoldToDims(shape, dims)
		if err != nil {
			log.Fatal(err)
		}
		sums := make([]float64, m.NumNodes())
		err = m.RunSPMD("gsum", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				c := qmp.New(ctx, fold)
				sums[rank] = c.GlobalSumFloat64Doubled(ctx.P, float64(rank))
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("remapped to %d-D logical torus %v: global sum = %v on every node\n",
			dims, fold.Logical(), sums[0])
	}

	// Broadcast from an arbitrary root through the SCU pass-through mode.
	fold := geom.IdentityFold(shape)
	root := geom.Coord{2, 1, 0, 0, 0, 0}
	got := make([]uint64, m.NumNodes())
	err := m.RunSPMD("bcast", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			c := qmp.New(ctx, fold)
			word := uint64(0)
			if c.Coord() == root {
				word = 0xC0FFEE
			}
			got[rank] = c.Broadcast(ctx.P, root, word)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast from %v: node 0 received %#x\n", root, got[0])

	// Partition interrupt: one node raises, every CPU sees it at the next
	// global-clock sampling window (§2.2).
	seen := 0
	for _, n := range m.Nodes {
		n.SCU.OnPartIRQ(func(mask uint8) { seen++ })
	}
	m.Nodes[7].SCU.RaisePartIRQ(0x01)
	if err := eng.RunAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition interrupt raised on node 7: %d of %d CPUs interrupted (window %v)\n",
		seen, m.NumNodes(), m.WindowPeriod())

	if _, err := m.VerifyChecksums(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("link checksum audit passed")
}
