package core

import (
	"errors"
	"math"
	"math/cmplx"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/solver"
	"qcdoc/internal/team"
)

func TestFoldTo4D(t *testing.T) {
	cases := []struct {
		shape geom.Shape
		grid  lattice.Shape4
	}{
		{geom.MakeShape(2, 2, 2, 2), lattice.Shape4{2, 2, 2, 2}},
		{geom.MakeShape(8, 4, 4, 2, 2, 2), lattice.Shape4{16, 8, 4, 2}}, // 2s fold into the big axes
		{geom.MakeShape(4, 2), lattice.Shape4{4, 2, 1, 1}},
		{geom.MakeShape(1), lattice.Shape4{1, 1, 1, 1}},
	}
	for _, c := range cases {
		f, err := geom.FoldToDims(c.shape, 4)
		if err != nil {
			t.Fatalf("%v: %v", c.shape, err)
		}
		ls := f.Logical()
		got := lattice.Shape4{ls[0], ls[1], ls[2], ls[3]}
		if got.Volume() != c.shape.Volume() {
			t.Fatalf("%v: grid %v loses nodes", c.shape, got)
		}
		if got != c.grid {
			t.Fatalf("%v: grid %v, want %v", c.shape, got, c.grid)
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	global := lattice.Shape4{4, 4, 4, 4}
	dec, err := lattice.NewDecomp(global, lattice.Shape4{2, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := lattice.NewFermionField(global)
	f.Gaussian(1)
	out := lattice.NewFermionField(global)
	for gx := 0; gx < 2; gx++ {
		for gy := 0; gy < 2; gy++ {
			gc := lattice.Site{gx, gy, 0, 0}
			local := ScatterFermion(f, dec, gc)
			GatherFermion(out, dec, gc, local)
		}
	}
	for i := range f.S {
		if out.S[i] != f.S[i] {
			t.Fatalf("site %d lost in scatter/gather", i)
		}
	}
	// Gauge scatter picks the right links.
	g := lattice.NewGaugeField(global)
	g.Randomize(2)
	lg := ScatterGauge(g, dec, lattice.Site{1, 0, 0, 0})
	site := lattice.Site{1, 1, 3, 2} // local (local shape is 2x2x4x4)
	gsite := lattice.Site{2 + 1, 1, 3, 2}
	if lg.Link(site, 2) != g.Link(gsite, 2) {
		t.Fatal("gauge scatter misaligned")
	}
}

// applyOnce runs one distributed application of pr's operator to pr.b
// (D, or D† with dag) on a freshly booted machine, gathers the result
// into a global field and audits the link checksums.
func applyOnce[F solver.Field[F]](t *testing.T, shape geom.Shape, global lattice.Shape4, pr problem[F], dag bool) F {
	t.Helper()
	sess, err := NewSession(shape, global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dec := sess.Lay.Dec
	if err := pr.validate(dec); err != nil {
		t.Fatal(err)
	}
	got := pr.newField(global)
	geo := newGeometry(dec, pr.reach)
	err = sess.M.RunSPMD("apply-once", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			var tm team.Team
			defer tm.Close()
			comm := qmp.New(ctx, sess.Lay.Fold)
			gc := GridCoord(comm.Coord())
			op := pr.newOperator(ctx, comm, &tm, geo)
			dst := pr.newField(dec.Local)
			if dag {
				op.ApplyDag(dst, pr.scatter(pr.b, dec, gc))
			} else {
				op.Apply(dst, pr.scatter(pr.b, dec, gc))
			}
			pr.gather(got, dec, gc, dst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.M.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkReference compares the distributed operator mk builds against the
// single-node reference ref: D v and D† u exactly, plus γ5-hermiticity
// <u,Dv> = <D†u,v>. Every operator runs the
// reference's own site kernel on every site, ghost or not, so the
// relative |diff|² must be 0: the paper's bit-identical reproducibility
// (§4, E10) across decompositions.
func checkReference[F solver.Field[F]](t *testing.T, shape geom.Shape, global lattice.Shape4,
	mk func(b F) problem[F], ref distOperator[F], u, v F) {
	t.Helper()
	pr := mk(v)
	deviation := func(got F, refApply solver.Op[F], src F) float64 {
		want := pr.newField(global)
		refApply(want, src)
		got.AXPY(-1, want)
		return got.Norm2() / want.Norm2()
	}
	dv := applyOnce(t, shape, global, pr, false)
	uDv := u.Dot(dv)
	if rel := deviation(dv, ref.Apply, v); rel != 0 {
		t.Fatalf("distributed D deviates from reference: relative |diff|^2 = %g", rel)
	}
	du := applyOnce(t, shape, global, mk(u), true)
	duV := du.Dot(v)
	if rel := deviation(du, ref.ApplyDag, u); rel != 0 {
		t.Fatalf("distributed D† deviates from reference: relative |diff|^2 = %g", rel)
	}
	if d := cmplx.Abs(uDv - duV); d > 1e-10*cmplx.Abs(uDv) {
		t.Fatalf("<u,Dv> = %v but <D†u,v> = %v", uDv, duV)
	}
}

// rankTables is the site geometry each rank used to build for itself,
// kept as the oracle of the shared one: the Wilson hop's face lists
// and distance-1 table (reach 1), ASQTAD's three layers per face and
// distance-1 and -3 tables (reach 3), ghost slots written as the
// operators wrote them. It reads the decomposition and not the rank's
// grid coordinate, so one call stands for every rank.
func rankTables(dec lattice.Decomp, reach int) (lo, hi [lattice.Ndim][naikReach][]int, nb1, nbR lattice.Neighbors) {
	l := dec.Local
	nb1, nbR = l.Neighbors(1), l.Neighbors(reach)
	for mu := 0; mu < lattice.Ndim; mu++ {
		if dec.Grid[mu] == 1 {
			continue
		}
		fv := lattice.FaceVolume(l, mu)
		if reach == 1 {
			lo[mu][0] = lattice.LayerSites(l, mu, 0)
			hi[mu][0] = lattice.LayerSites(l, mu, l[mu]-1)
			for slot, idx := range lo[mu][0] {
				nb1[idx][lattice.Ndim+mu] = ^int32(slot)
			}
			for slot, idx := range hi[mu][0] {
				nb1[idx][mu] = ^int32(slot)
			}
			continue
		}
		for k := 0; k < naikReach; k++ {
			lo[mu][k] = lattice.LayerSites(l, mu, k)
			hi[mu][k] = lattice.LayerSites(l, mu, l[mu]-naikReach+k)
			for i, idx := range lo[mu][k] {
				nbR[idx][lattice.Ndim+mu] = ^int32(k*fv + i)
				if k == 0 {
					nb1[idx][lattice.Ndim+mu] = ^int32(i)
				}
			}
			for i, idx := range hi[mu][k] {
				nbR[idx][mu] = ^int32(k*fv + i)
				if k == naikReach-1 {
					nb1[idx][mu] = ^int32(i)
				}
			}
		}
	}
	if reach == 1 {
		nbR = nb1
	}
	return lo, hi, nb1, nbR
}

// TestGeometryMatchesRankTables holds the one geometry a launch builds
// to the tables every rank used to build for itself, on machines split
// in one to four directions, local extents 1 to 4 (at an extent equal
// to the reach the low and high layers are the same sites), at the
// Wilson reach and at ASQTAD's.
func TestGeometryMatchesRankTables(t *testing.T) {
	for _, c := range []struct {
		shape  geom.Shape
		global lattice.Shape4
	}{
		{geom.MakeShape(2), lattice.Shape4{8, 4, 2, 2}},
		{geom.MakeShape(2, 2), lattice.Shape4{6, 4, 4, 2}},
		{geom.MakeShape(2, 2, 2, 2), lattice.Shape4{8, 8, 8, 8}},
		{geom.MakeShape(2, 2, 2, 2), lattice.Shape4{6, 6, 2, 8}},
		{geom.MakeShape(2, 2, 2, 2), lattice.Shape4{6, 6, 6, 6}},
		{geom.MakeShape(4, 2), lattice.Shape4{4, 6, 2, 2}},
	} {
		lay, err := NewLayout(c.shape, c.global)
		if err != nil {
			t.Fatal(err)
		}
		dec := lay.Dec
		for _, reach := range []int{1, naikReach} {
			fits := true
			for mu := 0; mu < lattice.Ndim; mu++ {
				fits = fits && (dec.Grid[mu] == 1 || dec.Local[mu] >= reach)
			}
			if !fits {
				continue
			}
			g := newGeometry(dec, reach)
			lo, hi, nb1, nbR := rankTables(dec, reach)
			if !reflect.DeepEqual(g.lo, lo) || !reflect.DeepEqual(g.hi, hi) {
				t.Fatalf("%v on %v, reach %d: layers differ", c.global, dec.Grid, reach)
			}
			if !slices.Equal(g.nb1, nb1) || !slices.Equal(g.nbR, nbR) {
				t.Fatalf("%v on %v, reach %d: neighbour tables differ", c.global, dec.Grid, reach)
			}
		}
	}
}

// TestDistMatchesReference is the heart of the functional validation:
// every distributed operator, on machines that split one, two, four and
// a mixed pair of lattice directions, must reproduce its single-node
// reference. Local extents are 3 in every split direction — the smallest
// ASQTAD's three-layer halo allows, where its high layers are its low
// layers — and DWF runs at Ls 1 (the Wilson hop plus the 5-D mass terms)
// and Ls 4.
func TestDistMatchesReference(t *testing.T) {
	machines := []struct {
		name   string
		shape  geom.Shape
		global lattice.Shape4
	}{
		{"2", geom.MakeShape(2), lattice.Shape4{6, 4, 2, 2}},
		{"2x2", geom.MakeShape(2, 2), lattice.Shape4{6, 6, 2, 2}},
		{"2x2x2x2", geom.MakeShape(2, 2, 2, 2), lattice.Shape4{6, 6, 6, 6}},
		{"4x2", geom.MakeShape(4, 2), lattice.Shape4{12, 6, 2, 2}},
		// 3072 local sites: every ranged kernel forks three ways, and the
		// serial reference must still be matched bit for bit.
		{"2-forked", geom.MakeShape(2), lattice.Shape4{16, 8, 8, 6}},
	}
	// A source is Gaussian noise from seed or, with point set, exact
	// zeros everywhere but one component of one site — the input on which
	// the ghost path and the local path could differ in a zero.
	spinors := func(l lattice.Shape4, seed uint64, point bool) *lattice.FermionField {
		f := lattice.NewFermionField(l)
		if point {
			f.S[len(f.S)/3][2][1] = 1
		} else {
			f.Gaussian(seed)
		}
		return f
	}
	dwf := func(ls int) func(*testing.T, geom.Shape, *lattice.GaugeField, bool) {
		return func(t *testing.T, shape geom.Shape, g *lattice.GaugeField, point bool) {
			u, v := fermion.NewField5(g.L, ls), fermion.NewField5(g.L, ls)
			if point {
				u.S[len(u.S)/3][1][0], v.S[len(v.S)/3][2][1] = 1i, 1
			} else {
				u.Gaussian(9)
				v.Gaussian(8)
			}
			checkReference(t, shape, g.L, func(b *fermion.Field5) problem[*fermion.Field5] {
				return dwfProblem(g, b, 1.8, 0.05, ls, fermion.Double, 1, 1)
			}, fermion.NewDWF(g, 1.8, 0.05, ls), u, v)
		}
	}
	operators := []struct {
		name string
		run  func(t *testing.T, shape geom.Shape, g *lattice.GaugeField, point bool)
	}{
		{"wilson", func(t *testing.T, shape geom.Shape, g *lattice.GaugeField, point bool) {
			checkReference(t, shape, g.L, func(b *lattice.FermionField) problem[*lattice.FermionField] {
				return wilsonProblem(g, nil, b, 0.3, fermion.Double, 1, 1)
			}, fermion.NewWilson(g, 0.3), spinors(g.L, 9, point), spinors(g.L, 8, point))
		}},
		{"clover", func(t *testing.T, shape geom.Shape, g *lattice.GaugeField, point bool) {
			ref := fermion.NewClover(g, 0.2, 1.3)
			checkReference(t, shape, g.L, func(b *lattice.FermionField) problem[*lattice.FermionField] {
				return wilsonProblem(g, ref, b, ref.Mass, fermion.Double, 1, 1)
			}, ref, spinors(g.L, 9, point), spinors(g.L, 8, point))
		}},
		{"asqtad", func(t *testing.T, shape geom.Shape, g *lattice.GaugeField, point bool) {
			ref := fermion.NewASQTAD(g, 0.25)
			u, v := lattice.NewColorField(g.L), lattice.NewColorField(g.L)
			if point {
				u.V[len(u.V)/3][0], v.V[len(v.V)/3][1] = 1i, 1
			} else {
				u.Gaussian(9)
				v.Gaussian(8)
			}
			checkReference(t, shape, g.L, func(b *lattice.ColorField) problem[*lattice.ColorField] {
				return asqtadProblem(ref, b, fermion.Double, 1, 1)
			}, ref, u, v)
		}},
		{"dwf-ls1", dwf(1)},
		{"dwf-ls4", dwf(4)},
	}
	// D, D† and hermiticity on every machine, of a Gaussian source and of
	// a point source on a configuration no other test uses.
	run := func(t *testing.T, op func(*testing.T, geom.Shape, *lattice.GaugeField, bool), m int, seed uint64, point bool) {
		if machines[m].name == "2-forked" {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
		}
		gauge := lattice.NewGaugeField(machines[m].global)
		gauge.Randomize(seed)
		op(t, machines[m].shape, gauge, point)
	}
	for _, op := range operators {
		t.Run(op.name, func(t *testing.T) {
			for i, m := range machines {
				t.Run(m.name, func(t *testing.T) { run(t, op.run, i, 7, false) })
			}
			t.Run("point-source", func(t *testing.T) {
				for i := range machines {
					run(t, op.run, i, 40961, true)
				}
			})
		})
	}
}

// TestHopKernelAllocFree guards what the pointer kernels bought: after
// the first call (D† scratch, the team's helpers) an application of the
// reference Wilson, domain-wall and ASQTAD operators allocates nothing,
// one AXPY, Scale, R γ5 or fifth-dimension pass allocates nothing, a
// distributed Wilson D plus D† allocates exactly what its two halo
// exchanges do and a distributed ASQTAD D what its one does (the SCU
// model's transfers and gates, a fixed count per exchange whatever the
// volume). A by-value slip that makes a spinor escape to the heap fails
// here, and so does a fork that makes a kernel or a closure per call:
// every leg runs serially on 6x4x2x2 and forked on a local volume of two
// grains with a second core. Every leg reads 0 on both; the same fork
// written with a closure, a go statement and a WaitGroup reads 4 per
// call two chunks wide.
func TestHopKernelAllocFree(t *testing.T) {
	t.Run("serial", func(t *testing.T) { hopKernelAllocs(t, lattice.Shape4{6, 4, 2, 2}, nil) })
	t.Run("forked", func(t *testing.T) {
		if runtime.GOMAXPROCS(0) < 2 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		global := lattice.Shape4{16, 8, 8, 4}
		if v := global.Volume() / 2; v < 2*team.Grain {
			t.Fatalf("local volume %d does not fork", v)
		}
		var tm team.Team
		defer tm.Close()
		hopKernelAllocs(t, global, &tm)
	})
}

// hopKernelAllocs runs the legs of TestHopKernelAllocFree on one lattice;
// tm is the team of the node-local legs, nil for none (each rank of the
// distributed leg makes its own).
func hopKernelAllocs(t *testing.T, global lattice.Shape4, tm *team.Team) {
	const runs = 5
	forked := tm != nil
	leg := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, f); n != 0 {
			t.Errorf("%s: %v allocs per call", name, n)
		}
	}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(7)
	src, dst := lattice.NewFermionField(global), lattice.NewFermionField(global)
	src.Gaussian(8)
	wilson := fermion.NewWilson(gauge, 0.3)
	wilson.Team = tm
	leg("fermion.Wilson.Apply", func() { wilson.Apply(dst, src) })
	dwf := fermion.NewDWF(gauge, 1.8, 0.05, 2)
	dwf.Team = tm
	src5, dst5 := fermion.NewField5(global, 2), fermion.NewField5(global, 2)
	src5.Gaussian(9)
	leg("fermion.DWF.Apply", func() { dwf.Apply(dst5, src5) })
	leg("fermion.DWF.ApplyDag", func() { dwf.ApplyDag(dst5, src5) })
	update := new(blas[*lattice.FermionField])
	leg("AXPY", func() {
		*update = blas[*lattice.FermionField]{y: dst, x: src, a: 0.5, axpy: true}
		tm.Run(len(dst.S), update)
	})
	leg("Scale", func() {
		*update = blas[*lattice.FermionField]{y: dst, a: 0.5}
		tm.Run(len(dst.S), update)
	})
	fifth := new(fermion.FifthDimKernel)
	leg("AddFifthDimHops", func() { fifth.Run(tm, dst5.S, src5.S, 2, 0.05, -1) })
	asqtad := fermion.NewASQTAD(gauge, 0.3)
	csrc, cdst := lattice.NewColorField(global), lattice.NewColorField(global)
	csrc.Gaussian(10)
	leg("fermion.ASQTAD.Apply", func() { asqtad.Apply(cdst, csrc) })

	sess, err := NewSession(geom.MakeShape(2), global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dec := sess.Lay.Dec
	hopGeo, stagGeo := newGeometry(dec, 1), newGeometry(dec, naikReach)
	var exchanges, applies, stagExchange, stagApply float64
	err = sess.M.RunSPMD("alloc-free", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			var tm *team.Team
			if forked {
				tm = new(team.Team)
				defer tm.Close()
			}
			comm := qmp.New(ctx, sess.Lay.Fold)
			op := newDistWilson(ctx, comm, tm, hopGeo, gauge, nil, 0.3, fermion.Double)
			in := ScatterFermion(src, dec, GridCoord(comm.Coord()))
			stag := newDistASQTAD(ctx, comm, tm, stagGeo, asqtad, fermion.Double)
			cin, cout := ScatterColor(csrc, dec, GridCoord(comm.Coord())), lattice.NewColorField(dec.Local)
			mid, out := lattice.NewFermionField(dec.Local), lattice.NewFermionField(dec.Local)
			twoExchanges := func() {
				op.exchange()
				op.exchange()
			}
			dAndDdag := func() {
				op.Apply(mid, in)
				op.ApplyDag(out, mid)
			}
			// An exchange needs both ranks in step: rank 0 measures (one
			// warm-up call, then runs), rank 1 keeps it company.
			stagExchanges := func() { stag.exchange() }
			stagD := func() { stag.Apply(cout, cin) }
			if rank == 0 {
				exchanges = testing.AllocsPerRun(runs, twoExchanges)
				applies = testing.AllocsPerRun(runs, dAndDdag)
				stagExchange = testing.AllocsPerRun(runs, stagExchanges)
				stagApply = testing.AllocsPerRun(runs, stagD)
				return
			}
			for _, f := range []func(){twoExchanges, dAndDdag, stagExchanges, stagD} {
				for i := 0; i <= runs; i++ {
					f()
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if applies != exchanges {
		t.Errorf("DistWilson.Apply + ApplyDag: %v allocs per pair, its two halo exchanges alone %v", applies, exchanges)
	}
	if stagApply != stagExchange {
		t.Errorf("DistASQTAD.Apply: %v allocs per call, its halo exchange alone %v", stagApply, stagExchange)
	}
}

// solveAllocsPerRankCeiling bounds the heap objects a warm distributed
// Wilson solve allocates per rank (TestSolveAllocsPerRank): its
// operator, halo, scattered fields, solver vectors and vector space.
// The site geometry is one per solve, the space one value, and a halo
// exchange or a cost descriptor takes no object. Measured: 47–48 per
// rank at GOMAXPROCS 1, 2 and 8 and under -race; 61 with the space as
// closures, 86 with per-rank neighbour and face tables, a growing
// transfer slice and formatted kernel names as well.
const solveAllocsPerRankCeiling = 60

// TestSolveAllocsPerRank runs the bench's Wilson solve (2x2x2x2
// machine, 8^4 lattice) twice on one session and fails if the second,
// warm, solve allocates more heap objects per rank than
// solveAllocsPerRankCeiling.
func TestSolveAllocsPerRank(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16-node solve")
	}
	global := lattice.Shape4{8, 8, 8, 8}
	sess, err := NewSession(geom.MakeShape(2, 2, 2, 2), global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(1)
	b := lattice.NewFermionField(global)
	b.Gaussian(2)
	solve := func() {
		if _, _, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-4, 1000); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	perRank := float64(after.Mallocs-before.Mallocs) / float64(sess.M.NumNodes())
	t.Logf("%.1f heap objects per rank", perRank)
	if perRank > solveAllocsPerRankCeiling {
		t.Fatalf("a warm solve allocates %.1f heap objects per rank, ceiling %d", perRank, solveAllocsPerRankCeiling)
	}
}

func TestDistWilsonDagAdjoint(t *testing.T) {
	global := lattice.Shape4{4, 4, 2, 2}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(9)
	ref := lattice.NewFermionField(global)
	src := lattice.NewFermionField(global)
	src.Gaussian(10)
	fermion.NewWilson(gauge, 0.2).ApplyDag(ref, src)
	got := applyOnce(t, geom.MakeShape(2, 2), global, wilsonProblem(gauge, nil, src, 0.2, fermion.Double, 1, 1), true)
	got.AXPY(-1, ref)
	if got.Norm2() != 0 {
		t.Fatal("distributed D† deviates from reference")
	}
}

// TestSolveWilsonEndToEnd: full distributed CG on a 16-node machine,
// verified against the true solution and the single-node solver.
func TestSolveWilsonEndToEnd(t *testing.T) {
	global := lattice.Shape4{4, 4, 4, 4}
	sess, err := NewSession(geom.MakeShape(2, 2, 2, 2), global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(11)
	b := lattice.NewFermionField(global)
	b.Gaussian(12)
	mass := 0.5
	x, met, err := sess.SolveWilson(gauge, b, mass, fermion.Double, 1e-8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Verify D x = b directly with the reference operator.
	check := lattice.NewFermionField(global)
	fermion.NewWilson(gauge, mass).Apply(check, x)
	check.AXPY(-1, b)
	rel := math.Sqrt(check.Norm2() / b.Norm2())
	if rel > 1e-7 {
		t.Fatalf("distributed solution residual %g", rel)
	}
	if met.Iterations == 0 || met.SimTime <= 0 {
		t.Fatalf("metrics: %+v", met)
	}
	// The machine moved real halo data.
	if met.WordsSent == 0 {
		t.Fatal("no network traffic recorded")
	}
	// Efficiency should be in a physical range (comm-heavy at 2^4 local
	// volume, so below the 4^4 anchor but nonzero).
	if met.Efficiency <= 0.01 || met.Efficiency > 0.6 {
		t.Fatalf("efficiency = %v", met.Efficiency)
	}
	t.Logf("16-node Wilson CG: %d iters, simulated %v, %.1f Mflops/node (%.1f%% of peak)",
		met.Iterations, met.SimTime, met.SustainedPerNode/1e6, 100*met.Efficiency)

	// Cross-check: the single-node solver converges to the same solution.
	xRef := lattice.NewFermionField(global)
	if _, err := solver.SolveDirac(fermion.NewWilson(gauge, mass), xRef, b, 1e-8, 1000); err != nil {
		t.Fatal(err)
	}
	xRef.AXPY(-1, x)
	if xRef.Norm2()/x.Norm2() > 1e-12 {
		t.Fatalf("distributed and reference solutions differ: %g", xRef.Norm2()/x.Norm2())
	}
}

// TestSolveWilsonDeterministic re-runs a solve and requires identical
// bits — the machine-level half of experiment E10.
func TestSolveWilsonDeterministic(t *testing.T) {
	global := lattice.Shape4{4, 4, 2, 2}
	run := func() ([]byte, uint64) {
		sess, err := NewSession(geom.MakeShape(2, 2), global)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		gauge := lattice.NewGaugeField(global)
		gauge.Randomize(21)
		b := lattice.NewFermionField(global)
		b.Gaussian(22)
		x, met, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-10, 1000)
		if err != nil {
			t.Fatal(err)
		}
		// The solve's events must ride the queue's sorted-run lanes: a
		// scheduling pattern that defeats them would cost the host 2x
		// without changing a single simulated result.
		q := sess.Eng.QueueStats()
		if hit := float64(q.LaneAppends) / float64(q.LaneAppends+q.HeapFallbacks); hit < 0.99 {
			t.Fatalf("lane-hit ratio %.4f < 0.99 (%+v)", hit, q)
		}
		t.Logf("event queue: %+v", q)
		// Serialize solution bits.
		buf := make([]byte, 0, len(x.S)*192)
		w := make([]uint64, 24)
		for i := range x.S {
			latmath.PackSpinor(x.S[i], w)
			for _, v := range w {
				buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
					byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
			}
		}
		return buf, met.WordsSent
	}
	a, wordsA := run()
	b, wordsB := run()
	if len(a) != len(b) {
		t.Fatal("solution sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("solutions differ at byte %d: re-run not bit-identical", i)
		}
	}
	if wordsA != wordsB {
		t.Fatalf("network word counts differ (%d vs %d): schedule not deterministic", wordsA, wordsB)
	}
}

// TestSolveAllOperatorsEndToEnd runs small distributed CG solves for
// clover, ASQTAD and DWF, verifying residuals with the reference
// operators.
func TestSolveAllOperatorsEndToEnd(t *testing.T) {
	global := lattice.Shape4{4, 4, 4, 4}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(61)

	// Clover.
	{
		sess, err := NewSession(geom.MakeShape(2, 2), global)
		if err != nil {
			t.Fatal(err)
		}
		ref := fermion.NewClover(gauge, 0.5, 1.0)
		b := lattice.NewFermionField(global)
		b.Gaussian(62)
		x, met, err := sess.SolveClover(ref, b, fermion.Double, 1e-8, 1000)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		chk := lattice.NewFermionField(global)
		ref.Apply(chk, x)
		chk.AXPY(-1, b)
		if r := math.Sqrt(chk.Norm2() / b.Norm2()); r > 1e-7 {
			t.Fatalf("clover residual %g", r)
		}
		if met.Efficiency <= 0 {
			t.Fatal("no clover efficiency recorded")
		}
	}
	// ASQTAD (larger global lattice: the Naik term needs local extent >= 3).
	{
		globalA := lattice.Shape4{8, 8, 4, 4}
		gaugeA := lattice.NewGaugeField(globalA)
		gaugeA.Randomize(61)
		sess, err := NewSession(geom.MakeShape(2, 2), globalA)
		if err != nil {
			t.Fatal(err)
		}
		ref := fermion.NewASQTAD(gaugeA, 0.5)
		b := lattice.NewColorField(globalA)
		b.Gaussian(63)
		x, met, err := sess.SolveASQTAD(ref, b, fermion.Double, 1e-8, 2000)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		chk := lattice.NewColorField(globalA)
		ref.Apply(chk, x)
		chk.AXPY(-1, b)
		if r := math.Sqrt(chk.Norm2() / b.Norm2()); r > 1e-7 {
			t.Fatalf("asqtad residual %g", r)
		}
		if met.Iterations == 0 {
			t.Fatal("no asqtad iterations")
		}
	}
	// DWF.
	{
		const ls = 4
		sess, err := NewSession(geom.MakeShape(2, 2), global)
		if err != nil {
			t.Fatal(err)
		}
		ref := fermion.NewDWF(gauge, 1.8, 0.1, ls)
		b := fermion.NewField5(global, ls)
		b.Gaussian(64)
		x, met, err := sess.SolveDWF(gauge, b, 1.8, 0.1, ls, fermion.Double, 1e-8, 3000)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		chk := fermion.NewField5(global, ls)
		ref.Apply(chk, x)
		chk.AXPY(-1, b)
		if r := math.Sqrt(chk.Norm2() / b.Norm2()); r > 1e-7 {
			t.Fatalf("dwf residual %g", r)
		}
		if met.Efficiency <= 0 {
			t.Fatal("no dwf efficiency recorded")
		}
	}
}

// TestSolveValidatesBeforeLaunch: a solve the layout cannot run returns
// a typed error before anything is launched — no rank ever panics — and
// leaves the session fit for the next, valid solve.
func TestSolveValidatesBeforeLaunch(t *testing.T) {
	global := lattice.Shape4{4, 4, 4, 4}
	sess, err := NewSession(geom.MakeShape(2, 2), global) // local 2x2x4x4
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(71)
	b := lattice.NewFermionField(global)
	b.Gaussian(72)

	_, _, err = sess.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), lattice.NewColorField(global), fermion.Double, 1e-8, 100)
	if !errors.Is(err, ErrLocalExtent) {
		t.Fatalf("ASQTAD on local extent 2: %v, want ErrLocalExtent", err)
	}
	_, _, err = sess.SolveWilson(gauge, lattice.NewFermionField(lattice.Shape4{4, 4, 4, 2}), 0.5, fermion.Double, 1e-8, 100)
	if !errors.Is(err, ErrShape) {
		t.Fatalf("source of the wrong shape: %v, want ErrShape", err)
	}
	_, _, err = sess.SolveDWF(gauge, fermion.NewField5(global, 2), 1.8, 0.1, 4, fermion.Double, 1e-8, 100)
	if !errors.Is(err, ErrShape) {
		t.Fatalf("source of the wrong Ls: %v, want ErrShape", err)
	}
	_, _, err = sess.SolveWilson(gauge, b, 0.5, fermion.Double, -1, 100)
	if !errors.Is(err, ErrSolveParams) {
		t.Fatalf("negative tolerance: %v, want ErrSolveParams", err)
	}
	_, _, err = sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-8, 0)
	if !errors.Is(err, ErrSolveParams) {
		t.Fatalf("iteration limit 0: %v, want ErrSolveParams", err)
	}
	if _, met, err := sess.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-8, 1000); err != nil || met.Iterations == 0 {
		t.Fatalf("valid solve after rejected ones: %v, %+v", err, met)
	}
}

// TestEventsPerWord is the host-cost budget of the word path. Frame by
// frame (a no-op fault hook on every wire keeps it there), a data word
// is two events: its arrival, which stores it and sends the ack, and the
// ack's arrival, which pops the window and pumps the next word. Clean,
// quiet link pairs fast-forward and a word costs at most half an event.
// Either way a link's recovery timers hold one queued event each however
// often they are re-armed. A per-word deferral or a per-arm timer firing
// creeping back shows here as 3 events per word or a queue tens of
// thousands deep.
func TestEventsPerWord(t *testing.T) {
	for _, leg := range []struct {
		hooked bool
		budget float64
	}{{false, 0.5}, {true, 2.1}} {
		sess, err := NewSession(geom.MakeShape(2, 2), goldenGlobal)
		if err != nil {
			t.Fatal(err)
		}
		if leg.hooked {
			for r := 0; r < sess.M.NumNodes(); r++ {
				for _, l := range geom.AllLinks() {
					sess.M.Wire(r, l).SetFault(func(*hssl.Frame) bool { return false })
				}
			}
		}
		events, words := sess.Eng.Executed(), sess.M.Stats().WordsSent
		if _, err := goldenCases()[0].solve(sess); err != nil { // the golden Wilson solve
			t.Fatal(err)
		}
		events, words = sess.Eng.Executed()-events, sess.M.Stats().WordsSent-words
		perWord := float64(events) / float64(words)
		highWater := sess.Eng.QueueStats().HighWater
		sess.Close()
		t.Logf("hooked %v: %d events for %d words: %.3f per word; queue high-water %d", leg.hooked, events, words, perWord, highWater)
		if perWord > leg.budget {
			t.Errorf("hooked %v: %.3f events per data word, budget %v", leg.hooked, perWord, leg.budget)
		}
		if highWater > 2000 {
			t.Errorf("hooked %v: event queue high-water %d, budget 2000", leg.hooked, highWater)
		}
	}
}
