package machine

import (
	"fmt"
	"runtime"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

func buildBooted(t *testing.T, shape geom.Shape) (*event.Engine, *Machine) {
	t.Helper()
	eng := event.New()
	m := Build(eng, DefaultConfig(shape))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Shutdown() })
	return eng, m
}

func TestBuildAndBoot(t *testing.T) {
	_, m := buildBooted(t, geom.MakeShape(2, 2, 2))
	if m.NumNodes() != 8 {
		t.Fatalf("nodes = %d", m.NumNodes())
	}
	for _, n := range m.Nodes {
		if n.State() != node.RunKernel {
			t.Fatalf("%s in state %v after boot", n, n.State())
		}
		if n.BootWords() == 0 {
			t.Fatal("node booted without loading code (no PROMs!)")
		}
	}
}

// TestWireNamesMatchFmt: a wire's name is formatted on demand, without
// fmt, and is byte-identical to the fmt.Sprintf("w%d%v") form Build
// once stored.
func TestWireNamesMatchFmt(t *testing.T) {
	m := Build(event.New(), DefaultConfig(geom.MakeShape(2, 2, 2)))
	for r := range m.Nodes {
		for _, l := range geom.AllLinks() {
			if got, want := m.Wire(r, l).Name(), fmt.Sprintf("w%d%v", r, l); got != want {
				t.Errorf("wire name %q, want %q", got, want)
			}
		}
	}
}

// buildBootAllocsPerNode bounds the heap objects Build plus Boot
// allocate per node. Every node, with its memory, its SCU (link units,
// their timers and queues, its first two transfer records) and its
// application thread inside, is one element of a per-machine slab; the
// boot word is counted, not stored. The wires and their in-flight rings
// come from two slabs per machine, are named on demand, and train
// through their own events; telemetry registers only when enabled.
// Measured at 10 and 11 objects per machine at 16 and 64 nodes, none per
// node; before, 4 per node (plus 10), about 12, and 125 before that.
const buildBootAllocsPerNode = 0

// TestBuildBootAllocsPerNode holds Build plus Boot to
// buildBootAllocsPerNode objects per node, plus a constant, on machines
// of 16 and 64 nodes.
func TestBuildBootAllocsPerNode(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MakeShape(2, 2, 2, 2), geom.MakeShape(4, 4, 2, 2)} {
		allocs := testing.AllocsPerRun(3, func() {
			eng := event.New()
			if err := Build(eng, DefaultConfig(shape)).Boot(); err != nil {
				t.Fatal(err)
			}
			eng.Shutdown()
		})
		if limit := float64(buildBootAllocsPerNode*shape.Volume() + 64); allocs > limit {
			t.Errorf("%v: Build+Boot allocate %.0f objects (%.1f per node), want at most %.0f",
				shape, allocs, allocs/float64(shape.Volume()), limit)
		}
	}
}

// rackAllocsPerNode and rackAllocsPerShard bound the heap objects of a
// whole rack-shaped run: Build, Boot, a program of halo rounds and
// doubled global sums, and Shutdown. Beyond Build and Boot a node spends
// its application thread's goroutine and channel (the process, its
// context and its name live in the node), the program's closure, its
// Comm and a memory page; a shard its engine, queue lanes and mailboxes.
// Measured on 64 nodes at 338 objects serial and 1 197 on 32 shards (4.8
// per node, 27.7 more per shard); before, 797 and 1 708, and 2 487 and
// 3 396 before that.
const rackAllocsPerNode, rackAllocsPerShard = 5, 32

// TestRackProgramAllocsPerNode holds a rack-shaped run (the benchmark's
// rack loop at 64 nodes: 24 halo rounds of 16 words, one per dimension
// in turn, a doubled global sum before every sixth and one at the end)
// to rackAllocsPerNode objects per node plus rackAllocsPerShard per
// shard, serial and sharded.
func TestRackProgramAllocsPerNode(t *testing.T) {
	const rounds, words = 24, 16
	shape := geom.MakeShape(2, 2, 2, 2, 2, 2)
	fold := geom.IdentityFold(shape)
	v := shape.Volume()
	want := float64(v * (v + 1) / 2)
	bad := make([]bool, v)
	for _, shards := range []bool{false, ShardAuto} {
		numShards := 1
		allocs := testing.AllocsPerRun(2, func() {
			eng := event.New()
			cfg := DefaultConfig(shape)
			cfg.Shards, cfg.Workers = shards, 2
			m := Build(eng, cfg)
			if c := m.Cluster(); c != nil {
				numShards = c.NumShards()
			}
			err := m.Boot()
			if err == nil {
				err = m.RunSPMD("rack", func(rank int) node.Program {
					return func(ctx *node.Ctx) {
						n := ctx.N
						send, recv := n.AllocWords(words), n.AllocWords(words)
						comm := qmp.New(ctx, fold)
						for round := 0; round <= rounds; round++ {
							if round%6 == 5 || round == rounds {
								if comm.GlobalSumFloat64Doubled(ctx.P, float64(rank+1)) != want {
									bad[rank] = true
								}
							}
							if round == rounds {
								break
							}
							out := geom.Link{Dim: round % geom.MaxDim, Dir: geom.Fwd}
							rt, err := n.SCU.StartRecv(out.Opposite(), scu.Contiguous(recv, words))
							if err != nil {
								panic(err)
							}
							st, err := n.SCU.StartSend(out, scu.Contiguous(send, words))
							if err != nil {
								panic(err)
							}
							st.Wait(ctx.P)
							rt.Wait(ctx.P)
						}
					}
				})
			}
			eng.Shutdown()
			if err != nil {
				t.Fatal(err)
			}
		})
		for rank, b := range bad {
			if b {
				t.Fatalf("%d shards: rank %d got a wrong global sum", numShards, rank)
			}
		}
		if limit := float64(rackAllocsPerNode*v + rackAllocsPerShard*numShards); allocs > limit {
			t.Errorf("%d shards: a rack run allocates %.0f objects (%.1f per node), want at most %.0f",
				numShards, allocs, allocs/float64(v), limit)
		}
	}
}

func TestNeighborTransferAcrossMachine(t *testing.T) {
	// Every node sends its rank (as 8 words) to its +0 neighbour; all
	// transfers run concurrently over the real wiring.
	_, m := buildBooted(t, geom.MakeShape(4, 2))
	shape := m.Cfg.Shape
	err := m.RunSPMD("ring", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			sendAddr := n.AllocWords(8)
			recvAddr := n.AllocWords(8)
			for i := 0; i < 8; i++ {
				n.Mem.WriteWord(sendAddr+8*uint64(i), uint64(rank*100+i))
			}
			rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(recvAddr, 8))
			if err != nil {
				panic(err)
			}
			st, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(sendAddr, 8))
			if err != nil {
				panic(err)
			}
			st.Wait(ctx.P)
			rt.Wait(ctx.P)
			// Verify data from the -0 neighbour.
			prev := shape.Rank(shape.Neighbor(n.Coord, 0, geom.Bwd))
			for i := 0; i < 8; i++ {
				got := n.Mem.ReadWord(recvAddr + 8*uint64(i))
				want := uint64(prev*100 + i)
				if got != want {
					panic("wrong halo word")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := m.VerifyChecksums()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 8*geom.NumLinks {
		t.Fatalf("checked %d links", checked)
	}
	st := m.Stats()
	if st.WordsSent != 8*8 || st.WordsReceived != 8*8 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPartitionInterruptMachineWide(t *testing.T) {
	eng, m := buildBooted(t, geom.MakeShape(4, 2, 2))
	seen := make([]uint8, m.NumNodes())
	for r, n := range m.Nodes {
		r := r
		n.SCU.OnPartIRQ(func(mask uint8) { seen[r] = mask })
	}
	// One node raises; after the sampling window every node's CPU must
	// have been interrupted.
	m.Nodes[5].SCU.RaisePartIRQ(0x02)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if seen[r] != 0x02 {
			t.Fatalf("node %d saw %#x", r, seen[r])
		}
		if m.Nodes[r].SCU.PartIRQStatus() != 0x02 {
			t.Fatalf("node %d status %#x", r, m.Nodes[r].SCU.PartIRQStatus())
		}
	}
	// The engine quiesced: the sampling clock stopped rescheduling.
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending", eng.Pending())
	}
}

func TestRunSPMDCollectsPanics(t *testing.T) {
	_, m := buildBooted(t, geom.MakeShape(2))
	err := m.RunSPMD("boom", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			if rank == 1 {
				panic("deliberate")
			}
		}
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestBootStateMachine(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	n := node.New(eng, 0, geom.Coord{}, 500*event.MHz)
	// Cannot run an app or the run kernel from reset.
	if err := n.StartRunKernel(); err == nil {
		t.Fatal("run kernel started from reset")
	}
	if err := n.RunProgram("x", func(*node.Ctx) {}); err == nil {
		t.Fatal("app started from reset")
	}
	// Cannot start the boot kernel with no code loaded.
	if err := n.StartBootKernel(); err == nil {
		t.Fatal("boot kernel started with no code")
	}
	n.LoadBootWord(0, 1)
	if err := n.StartBootKernel(); err != nil {
		t.Fatal(err)
	}
	if err := n.StartRunKernel(); err != nil {
		t.Fatal(err)
	}
	if n.State() != node.RunKernel {
		t.Fatalf("state = %v", n.State())
	}
}

func TestPackaging1024(t *testing.T) {
	// E7: a 1024-node water-cooled rack is 1 Tflops peak and under 10 kW
	// (§2.4, Figure 5).
	p := PackagingFor(1024, 500*event.MHz)
	if p.Racks != 1 || p.Crates != 2 || p.Motherboards != 16 || p.Daughterboards != 512 {
		t.Fatalf("packaging: %+v", p)
	}
	if p.PeakTeraflops != 1.024 {
		t.Fatalf("peak = %v Tflops", p.PeakTeraflops)
	}
	if p.PowerWatts >= 10000 {
		t.Fatalf("rack power %v W, paper says < 10 kW", p.PowerWatts)
	}
}

func TestPackaging12288(t *testing.T) {
	// E7: the 12,288-node machines are 12 racks; ~60 ft^2 footprint and
	// 10+ Tflops peak at 420+ MHz.
	p := PackagingFor(12288, 450*event.MHz)
	if p.Racks != 12 {
		t.Fatalf("racks = %d", p.Racks)
	}
	if p.FootprintSqFt < 55 || p.FootprintSqFt > 65 {
		t.Fatalf("footprint = %v ft^2, paper says ~60", p.FootprintSqFt)
	}
	if p.PeakTeraflops < 10 {
		t.Fatalf("peak = %v Tflops, paper says 10+", p.PeakTeraflops)
	}
	if Machine12288Shape().Volume() != 12288 {
		t.Fatal("12288 shape volume wrong")
	}
}

func TestMachineShapes(t *testing.T) {
	if Machine1024Shape().Volume() != 1024 {
		t.Fatal("1024 shape")
	}
	if Machine4096Shape().Volume() != 4096 {
		t.Fatal("4096 shape")
	}
	if MotherboardShape().Volume() != 64 {
		t.Fatal("motherboard shape")
	}
	for _, n := range []int{1, 2, 64, 128, 512, 1024, 4096, 12288} {
		if GuessShape(n).Volume() != n {
			t.Fatalf("GuessShape(%d) volume wrong", n)
		}
	}
}

// TestE14Wiring audits the network schematic of Figure 2 functionally:
// on a full 2^6 motherboard hypercube, every node sends a tagged word on
// all 12 links and must receive, on each link, exactly the word the
// correct neighbour sent toward it.
func TestE14Wiring(t *testing.T) {
	_, m := buildBooted(t, MotherboardShape())
	shape := m.Cfg.Shape
	for _, n := range m.Nodes {
		for _, l := range geom.AllLinks() {
			if !n.SCU.Attached(l) {
				t.Fatalf("%s link %v not attached", n, l)
			}
		}
	}
	err := m.RunSPMD("wiring-audit", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			var recvs [geom.NumLinks]scu.Transfer
			addrs := make([]uint64, geom.NumLinks)
			for i, l := range geom.AllLinks() {
				addrs[i] = n.AllocWords(1)
				rt, err := n.SCU.StartRecv(l, scu.Contiguous(addrs[i], 1))
				if err != nil {
					panic(err)
				}
				recvs[i] = rt
			}
			for i, l := range geom.AllLinks() {
				sendAddr := n.AllocWords(1)
				// Tag: sender rank and the link it transmits on.
				n.Mem.WriteWord(sendAddr, uint64(rank)<<8|uint64(i))
				if _, err := n.SCU.StartSend(l, scu.Contiguous(sendAddr, 1)); err != nil {
					panic(err)
				}
			}
			for i, l := range geom.AllLinks() {
				recvs[i].Wait(ctx.P)
				got := n.Mem.ReadWord(addrs[i])
				// Data arriving on my link l was sent by the (dim,dir)
				// neighbour on its opposite link.
				nb := shape.Rank(shape.Neighbor(n.Coord, l.Dim, l.Dir))
				want := uint64(nb)<<8 | uint64(geom.LinkIndex(l.Opposite()))
				if got != want {
					panic("miswired link")
				}
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

// TestNodeHostFootprint: what one simulated node costs the host for a
// whole small run — build, boot, one 16-word neighbour exchange — is its
// structures and the two pages it touches, not the address its allocator
// starts at. Before the paged NodeMemory: 553 980 bytes per node (a
// zeroed 512 KB slice to hold the first word at 256 KB); now 38 351, most
// of it the twelve links' wires, timers and state machines.
func TestNodeHostFootprint(t *testing.T) {
	const words = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng, m := buildBooted(t, geom.MakeShape(2, 2, 2))
	err := m.RunSPMD("halo", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			send, recv := n.AllocWords(words), n.AllocWords(words)
			for i := 0; i < words; i++ {
				n.Mem.WriteWord(send+8*uint64(i), uint64(rank<<8|i))
			}
			rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(recv, words))
			if err != nil {
				panic(err)
			}
			st, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(send, words))
			if err != nil {
				panic(err)
			}
			st.Wait(ctx.P)
			rt.Wait(ctx.P)
			if n.Mem.ReadWord(recv+8*(words-1))&0xff != words-1 {
				panic("wrong halo word")
			}
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNode := (after.TotalAlloc - before.TotalAlloc) / uint64(m.NumNodes())
	t.Logf("build + boot + one %d-word exchange: %d bytes per node at %v", words, perNode, eng.Now())
	if perNode > 64<<10 {
		t.Fatalf("a node costs the host %d bytes, want <= 64 KB", perNode)
	}
}
