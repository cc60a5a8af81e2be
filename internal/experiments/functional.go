package experiments

import (
	"fmt"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/hmc"
	"qcdoc/internal/hssl"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qdaemon"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

// E1Functional measures solver efficiency on the functional simulator: a
// 16-node machine (2x2x2x2 grid) with the paper's 4^4 local volume, all
// four operators, real halo traffic and global sums. Slower than the
// model (every packet simulated) but independent of it.
func E1Functional() (Table, error) {
	global := lattice.Shape4{8, 8, 8, 8}
	shape := geom.MakeShape(2, 2, 2, 2)
	t := Table{
		ID:     "E1f",
		Title:  "Functional-simulator CG efficiency, 16 nodes, 4^4 local volume",
		Header: []string{"operator", "iterations", "sim time", "Mflops/node", "efficiency", "link errors"},
		Notes: []string{
			"measured by running the distributed solver on the packet-level machine simulation",
			"16 nodes instead of the paper's 128 keeps host time reasonable; per-node behaviour is identical",
		},
	}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(1001)

	spinors := func(seed uint64) *lattice.FermionField {
		b := lattice.NewFermionField(global)
		b.Gaussian(seed)
		return b
	}
	const ls = 4 // short fifth dimension to bound host time
	rows := []struct {
		name  string
		solve func(*core.Session) (core.SolveMetrics, error)
	}{
		{"wilson", func(s *core.Session) (core.SolveMetrics, error) {
			_, met, err := s.SolveWilson(gauge, spinors(1002), 0.5, fermion.Double, 1e-4, 300)
			return met, err
		}},
		{"clover", func(s *core.Session) (core.SolveMetrics, error) {
			_, met, err := s.SolveClover(fermion.NewClover(gauge, 0.5, 1.0), spinors(1003), fermion.Double, 1e-4, 300)
			return met, err
		}},
		{"asqtad", func(s *core.Session) (core.SolveMetrics, error) {
			b := lattice.NewColorField(global)
			b.Gaussian(1004)
			_, met, err := s.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), b, fermion.Double, 1e-4, 600)
			return met, err
		}},
		{fmt.Sprintf("dwf (Ls=%d)", ls), func(s *core.Session) (core.SolveMetrics, error) {
			b := fermion.NewField5(global, ls)
			b.Gaussian(1005)
			_, met, err := s.SolveDWF(gauge, b, 1.8, 0.1, ls, fermion.Double, 1e-3, 600)
			return met, err
		}},
	}
	for _, r := range rows {
		sess, err := core.NewSession(shape, global)
		if err != nil {
			return t, err
		}
		met, err := r.solve(sess)
		st := sess.M.Stats()
		sess.Close()
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			r.name, fmt.Sprint(met.Iterations), met.SimTime.String(),
			fmt.Sprintf("%.1f", met.SustainedPerNode/1e6), pct(met.Efficiency),
			fmt.Sprint(st.ParityErrors + st.HeaderErrors),
		})
	}
	return t, nil
}

// E4Functional measures the nearest-neighbour latency on the simulated
// hardware: one word and 24 words, memory to memory.
func E4Functional() (Table, error) {
	t := Table{
		ID:     "E4f",
		Title:  "Functional-simulator nearest-neighbour latency",
		Header: []string{"transfer", "measured", "paper"},
	}
	eng := event.New()
	defer eng.Shutdown()
	m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2)))
	if err := m.Boot(); err != nil {
		return t, err
	}
	measure := func(words int) (event.Time, error) {
		var lat event.Time
		start := eng.Now()
		err := m.RunSPMD("lat", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				n := ctx.N
				if rank == 0 {
					addr := n.AllocWords(words)
					for i := 0; i < words; i++ {
						n.Mem.WriteWord(addr+8*uint64(i), uint64(i))
					}
					if _, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(addr, words)); err != nil {
						panic(err)
					}
				} else {
					addr := n.AllocWords(words)
					rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(addr, words))
					if err != nil {
						panic(err)
					}
					rt.Wait(ctx.P)
					lat = rt.Finished() - start
				}
			}
		})
		return lat, err
	}
	one, err := measure(1)
	if err != nil {
		return t, err
	}
	twentyFour, err := measure(24)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"1 word", one.String(), "~600ns"},
		[]string{"24 words", twentyFour.String(), "600ns + 3.3us"},
	)
	return t, nil
}

// E5Functional measures global-sum completion time on the simulated
// machine, single vs doubled mode, on an 8-node ring.
func E5Functional() (Table, error) {
	t := Table{
		ID:     "E5f",
		Title:  "Functional-simulator global sum, 8-node ring",
		Header: []string{"mode", "measured", "hops"},
		Notes:  []string{"the simulator forwards whole 72-bit frames; real hardware cuts through after 8 bits (see E5)"},
	}
	measure := func(doubled bool) (event.Time, error) {
		eng := event.New()
		defer eng.Shutdown()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(8)))
		if err := m.Boot(); err != nil {
			return 0, err
		}
		fold := geom.IdentityFold(m.Cfg.Shape)
		start := eng.Now()
		var end event.Time
		err := m.RunSPMD("gsum", func(rank int) node.Program {
			return func(ctx *node.Ctx) {
				c := qmp.New(ctx, fold)
				if doubled {
					c.GlobalSumFloat64Doubled(ctx.P, float64(rank))
				} else {
					c.GlobalSumFloat64(ctx.P, float64(rank))
				}
				if ctx.P.Now() > end {
					end = ctx.P.Now()
				}
			}
		})
		return end - start, err
	}
	single, err := measure(false)
	if err != nil {
		return t, err
	}
	doubled, err := measure(true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"single ring", single.String(), "7"},
		[]string{"doubled", doubled.String(), "4"},
	)
	return t, nil
}

// E10 is the reproducibility verification of §4: the same job run twice
// must produce bit-identical results, with no link errors and matching
// end-of-link checksums — here as (a) a distributed CG solve on the
// machine and (b) a heatbath gauge evolution.
func E10() (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "Bit-identical re-run verification (§4)",
		Header: []string{"workload", "run 1 CRC", "run 2 CRC", "identical", "link errors", "checksums"},
	}
	// (a) Distributed solve.
	solveCRC := func() (uint32, uint64, bool, error) {
		global := lattice.Shape4{4, 4, 4, 4}
		sess, err := core.NewSession(geom.MakeShape(2, 2), global)
		if err != nil {
			return 0, 0, false, err
		}
		defer sess.Close()
		gauge := lattice.NewGaugeField(global)
		gauge.Randomize(2001)
		b := lattice.NewFermionField(global)
		b.Gaussian(2002)
		x, _, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-9, 500)
		if err != nil {
			return 0, 0, false, err
		}
		st := sess.M.Stats()
		_, csErr := sess.M.VerifyChecksums()
		return checkpoint.FermionCRC(x), st.ParityErrors + st.HeaderErrors, csErr == nil, nil
	}
	c1, e1, ok1, err := solveCRC()
	if err != nil {
		return t, err
	}
	c2, e2, ok2, err := solveCRC()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"distributed Wilson CG (4 nodes)",
		fmt.Sprintf("%#x", c1), fmt.Sprintf("%#x", c2),
		fmt.Sprint(c1 == c2), fmt.Sprint(e1 + e2), fmt.Sprint(ok1 && ok2),
	})
	// (b) Gauge evolution.
	evolve := func() uint32 {
		g := lattice.NewGaugeField(lattice.Shape4{4, 4, 4, 4})
		h := &hmc.Heatbath{Beta: 5.6, Seed: 2003}
		for i := 0; i < 5; i++ {
			h.Sweep(g)
		}
		return checkpoint.GaugeCRC(g)
	}
	g1, g2 := evolve(), evolve()
	t.Rows = append(t.Rows, []string{
		"heatbath evolution (5 sweeps)",
		fmt.Sprintf("%#x", g1), fmt.Sprintf("%#x", g2),
		fmt.Sprint(g1 == g2), "0", "n/a",
	})
	return t, nil
}

// E12 injects single-bit errors into mesh wires during a distributed
// solve: parity detection, automatic hardware resend, a still-correct
// answer, and matching checksums (§2.2).
func E12() (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "Single-bit link errors: detect, resend, survive (§2.2)",
		Header: []string{"quantity", "clean run", "faulty run"},
	}
	run := func(inject bool) (uint32, uint64, uint64, bool, error) {
		global := lattice.Shape4{4, 4, 4, 4}
		sess, err := core.NewSession(geom.MakeShape(2, 2), global)
		if err != nil {
			return 0, 0, 0, false, err
		}
		defer sess.Close()
		if inject {
			// Corrupt every 97th frame on a handful of wires.
			for rank := 0; rank < sess.M.NumNodes(); rank++ {
				sess.M.Wire(rank, geom.Link{Dim: 0, Dir: geom.Fwd}).SetFault(hssl.FlipBitEvery(97))
			}
		}
		gauge := lattice.NewGaugeField(global)
		gauge.Randomize(3001)
		b := lattice.NewFermionField(global)
		b.Gaussian(3002)
		x, _, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-9, 500)
		if err != nil {
			return 0, 0, 0, false, err
		}
		st := sess.M.Stats()
		_, csErr := sess.M.VerifyChecksums()
		return checkpoint.FermionCRC(x), st.ParityErrors + st.HeaderErrors, st.Resends, csErr == nil, nil
	}
	cleanCRC, cleanErrs, cleanResends, cleanOK, err := run(false)
	if err != nil {
		return t, err
	}
	faultCRC, faultErrs, faultResends, faultOK, err := run(true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"solution CRC", fmt.Sprintf("%#x", cleanCRC), fmt.Sprintf("%#x", faultCRC)},
		[]string{"parity/header errors detected", fmt.Sprint(cleanErrs), fmt.Sprint(faultErrs)},
		[]string{"hardware resends", fmt.Sprint(cleanResends), fmt.Sprint(faultResends)},
		[]string{"checksum audit passed", fmt.Sprint(cleanOK), fmt.Sprint(faultOK)},
		[]string{"answers identical", "-", fmt.Sprint(cleanCRC == faultCRC)},
	)
	if cleanCRC != faultCRC {
		t.Notes = append(t.Notes, "ERROR: corrupted run diverged!")
	}
	return t, nil
}

// E13 boots a machine through the full qdaemon packet protocol and
// reports the per-node packet counts of §3.1.
func E13() (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "Boot protocol packet counts (§3.1)",
		Header: []string{"stage", "packets/node", "paper"},
	}
	eng := event.New()
	defer eng.Shutdown()
	m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2, 2)))
	if err := m.TrainLinks(); err != nil {
		return t, err
	}
	d := qdaemon.New(eng, m)
	var bootErr error
	eng.Spawn("control", func(p *event.Proc) { bootErr = d.BootAll(p) })
	if err := eng.RunAll(); err != nil {
		return t, err
	}
	if bootErr != nil {
		return t, bootErr
	}
	t.Rows = append(t.Rows,
		[]string{"boot kernel via Ethernet/JTAG", fmt.Sprint(m.Nodes[0].BootWords()), "~100"},
		[]string{"run kernel via standard Ethernet", fmt.Sprint(d.Kernels[0].KernelPackets()), "~100"},
	)
	return t, nil
}

// E14 audits the wiring of a full 64-node motherboard hypercube: every
// node exchanges a tagged word on all 12 links.
func E14() (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "Network wiring audit: 2^6 motherboard hypercube (Figure 2/4)",
		Header: []string{"quantity", "value"},
	}
	eng := event.New()
	defer eng.Shutdown()
	m := machine.Build(eng, machine.DefaultConfig(machine.MotherboardShape()))
	if err := m.Boot(); err != nil {
		return t, err
	}
	shape := m.Cfg.Shape
	bad := 0
	err := m.RunSPMD("audit", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			addrs := make([]uint64, geom.NumLinks)
			recvs := make([]interface{ Wait(*event.Proc) }, 0, geom.NumLinks)
			for i, l := range geom.AllLinks() {
				addrs[i] = n.AllocWords(1)
				rt, err := n.SCU.StartRecv(l, scu.Contiguous(addrs[i], 1))
				if err != nil {
					panic(err)
				}
				recvs = append(recvs, rt)
			}
			for i, l := range geom.AllLinks() {
				a := n.AllocWords(1)
				n.Mem.WriteWord(a, uint64(rank)<<8|uint64(i))
				if _, err := n.SCU.StartSend(l, scu.Contiguous(a, 1)); err != nil {
					panic(err)
				}
			}
			for i, l := range geom.AllLinks() {
				recvs[i].Wait(ctx.P)
				nb := shape.Rank(shape.Neighbor(n.Coord, l.Dim, l.Dir))
				want := uint64(nb)<<8 | uint64(geom.LinkIndex(l.Opposite()))
				if n.Mem.ReadWord(addrs[i]) != want {
					bad++
				}
			}
		}
	})
	if err != nil {
		return t, err
	}
	links, csErr := m.VerifyChecksums()
	t.Rows = append(t.Rows,
		[]string{"nodes", fmt.Sprint(m.NumNodes())},
		[]string{"uni-directional connections audited", fmt.Sprint(links)},
		[]string{"miswired", fmt.Sprint(bad)},
		[]string{"checksum audit", fmt.Sprint(csErr == nil)},
	)
	return t, nil
}
