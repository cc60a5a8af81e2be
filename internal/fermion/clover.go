package fermion

import (
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/team"
)

// Clover is the clover-improved (Sheikholeslami-Wohlert) Wilson
// operator: the Wilson operator plus a site-diagonal term built from the
// clover-leaf field strength,
//
//	D_clover = D_wilson - (c_sw/2) Σ_{mu<nu} σ_{mu nu} ⊗ i F̂_{mu nu}(x),
//
// which removes the O(a) discretization error. The term is Hermitian and
// commutes with γ5 (σ is block diagonal in the chiral basis), so the full
// operator keeps γ5-hermiticity.
type Clover struct {
	Wilson
	Csw  float64
	term *CloverTerm
}

// CloverTerm is the site-diagonal clover term as spin-indexed color
// blocks: Site[idx][a][b] couples spin b to spin a at site idx. The
// reference operator builds it on the global configuration; a
// distributed operator wraps the sites it was scattered.
type CloverTerm struct {
	Site [][4][4]latmath.Mat3
	// live marks the spin blocks that are non-zero on some site. In the
	// chiral basis the term is block diagonal, so 8 of the 16 never are
	// and AddTo skips them without looking.
	live [4][4]bool

	dst, src []latmath.Spinor // AddTo's arguments, for Range
}

// NewCloverTerm wraps the given sites, scanning them once for the blocks
// that are zero everywhere.
func NewCloverTerm(site [][4][4]latmath.Mat3) *CloverTerm {
	t := &CloverTerm{Site: site}
	for idx := range site {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if site[idx][a][b] != latmath.Zero3() {
					t.live[a][b] = true
				}
			}
		}
	}
	return t
}

// AddTo computes dst += term·src site by site on tm, summing each row's
// live blocks in ascending b.
func (t *CloverTerm) AddTo(tm *team.Team, dst, src []latmath.Spinor) {
	t.dst, t.src = dst, src
	tm.Run(len(t.Site), t)
}

// Range is AddTo's site loop: the term is its own kernel.
func (t *CloverTerm) Range(lo, hi int) {
	for idx := lo; idx < hi; idx++ {
		blocks, psi := &t.Site[idx], &t.src[idx]
		var extra latmath.Spinor
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if !t.live[a][b] {
					continue
				}
				var v latmath.Vec3
				v.MulMat(&blocks[a][b], &psi[b])
				extra[a].AddVec(&v)
			}
		}
		t.dst[idx].AddSpinor(&extra)
	}
}

// NewClover builds the operator, precomputing the clover term on the
// given gauge field (as production code does once per configuration).
func NewClover(g *lattice.GaugeField, mass, csw float64) *Clover {
	c := &Clover{Wilson: *NewWilson(g, mass), Csw: csw}
	c.buildTerm()
	return c
}

// Name implements DiracOperator.
func (c *Clover) Name() string { return "clover" }

// cloverLeafField returns the clover-leaf field strength
// F̂_{mu nu}(x) = traceless-antihermitian part of (1/4) Σ_{4 leaves},
// i.e. (1/8)(Q - Q†) with the trace removed.
func cloverLeafField(g *lattice.GaugeField, x lattice.Site, mu, nu int) latmath.Mat3 {
	leaves := [][]pathStep{
		{{mu, +1}, {nu, +1}, {mu, -1}, {nu, -1}},
		{{nu, +1}, {mu, -1}, {nu, -1}, {mu, +1}},
		{{mu, -1}, {nu, -1}, {mu, +1}, {nu, +1}},
		{{nu, -1}, {mu, +1}, {nu, +1}, {mu, -1}},
	}
	q := latmath.Zero3()
	for _, leaf := range leaves {
		q = q.Add(pathProduct(g, x, leaf))
	}
	return q.Scale(0.25).TracelessAntiHermitian()
}

func (c *Clover) buildTerm() {
	l := c.G.L
	v := l.Volume()
	term := make([][4][4]latmath.Mat3, v)
	coeff := complex(-c.Csw/2, 0)
	for idx := 0; idx < v; idx++ {
		x := l.SiteOf(idx)
		for mu := 0; mu < lattice.Ndim; mu++ {
			for nu := mu + 1; nu < lattice.Ndim; nu++ {
				f := cloverLeafField(c.G, x, mu, nu)
				iF := f.Scale(1i) // Hermitian
				sigma := latmath.Sigma(mu, nu)
				for a := 0; a < 4; a++ {
					for b := 0; b < 4; b++ {
						s := sigma[a][b]
						if s == 0 {
							continue
						}
						term[idx][a][b] = term[idx][a][b].Add(iF.Scale(coeff * s))
					}
				}
			}
		}
	}
	c.term = NewCloverTerm(term)
}

// Apply computes dst = D_clover src.
func (c *Clover) Apply(dst, src *lattice.FermionField) {
	c.Wilson.Apply(dst, src)
	c.term.AddTo(c.Team, dst.S, src.S)
}

// ApplyDag computes dst = D† src: the Wilson D† plus the clover term,
// which is its own adjoint (Hermitian, and block diagonal in the chiral
// basis, so it commutes with γ5).
func (c *Clover) ApplyDag(dst, src *lattice.FermionField) {
	c.Wilson.ApplyDag(dst, src)
	c.term.AddTo(c.Team, dst.S, src.S)
}

// SpinBlockDiagonal reports whether the clover term at site idx is block
// diagonal in spin (upper 2x2 and lower 2x2 blocks only) — true in the
// chiral basis, where the hardware-friendly representation is two 6x6
// Hermitian matrices (the layout behind the cost model's flop counts).
func (c *Clover) SpinBlockDiagonal(idx int, tol float64) bool {
	for a := 0; a < 2; a++ {
		for b := 2; b < 4; b++ {
			if c.term.Site[idx][a][b].FrobeniusDistance(latmath.Zero3()) > tol ||
				c.term.Site[idx][b][a].FrobeniusDistance(latmath.Zero3()) > tol {
				return false
			}
		}
	}
	return true
}

// TermAt exposes the precomputed clover term of one site (spin-indexed
// color blocks), so a distributed operator can scatter the term built on
// the global configuration.
func (c *Clover) TermAt(idx int) [4][4]latmath.Mat3 { return c.term.Site[idx] }
