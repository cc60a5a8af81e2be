package fermion

import (
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/team"
)

// StaggeredKernel is the site loop of every ASQTAD operator, reference
// and distributed:
//
//	dst(x) = m src(x) + Σ_mu ½η_mu(x) (hop - bwd),
//	hop = F_mu(x) src(x+mu) + c_N L_mu(x) src(x+3mu),
//	bwd = F†_mu(x-mu) src(x-mu) + c_N L†_mu(x-3mu) src(x-3mu),
//
// summed in that order at every site, with c_N applied to the product
// (L v)·c_N. That is the order the distributed exchange ships at a face,
// so a site next to a node boundary rounds as it does in the interior,
// and distributed equals reference bit for bit. dst and src must not
// overlap.
type StaggeredKernel struct {
	Fat, Long *lattice.GaugeField
	// Nb1 and Nb3 are the neighbour tables at distances 1 and 3. Where a
	// hop leaves a node's volume they hold ^slot of the ghost Ghosts
	// serves.
	Nb1, Nb3 lattice.Neighbors
	// Eta holds η per site: bit mu is set where η_mu(x) = -1.
	Eta []uint8
	// Ghosts serves the hops that leave a node's volume; nil on a
	// periodic volume.
	Ghosts StaggeredGhosts

	dst, src   []latmath.Vec3
	mass, naik complex128
}

// StaggeredGhosts returns the colour vector the (mu, end) neighbour
// packed for ghost slot slot. A forward (end 1) ghost is the plain
// source vector; a backward (end 0) one has the sender's links and c_N
// applied: for a site on the low face it is the whole of bwd, else its
// Naik term.
type StaggeredGhosts interface {
	Vec(mu, end, slot int) latmath.Vec3
}

// StaggeredPhases builds the Kogut-Susskind phases η_mu(x) =
// (-1)^(x_0+...+x_{mu-1}) of the sites of l, in Eta's bit layout, for a
// volume whose site 0 sits at global coordinate origin: a node's phases
// follow its global position, or they break at node boundaries.
func StaggeredPhases(l lattice.Shape4, origin lattice.Site) []uint8 {
	eta := make([]uint8, l.Volume())
	for idx := range eta {
		x := l.SiteOf(idx)
		s := 0
		for mu := 1; mu < lattice.Ndim; mu++ {
			s += origin[mu-1] + x[mu-1]
			eta[idx] |= uint8(s&1) << mu
		}
	}
	return eta
}

// Run sets the arguments and runs the kernel over both fields on t.
func (k *StaggeredKernel) Run(t *team.Team, dst, src []latmath.Vec3, mass, naik float64) {
	k.dst, k.src, k.mass, k.naik = dst, src, complex(mass, 0), complex(naik, 0)
	t.Run(len(dst), k)
}

// at is src at table entry i, or the (mu, end) ghost it names.
func (k *StaggeredKernel) at(i int32, mu, end int) latmath.Vec3 {
	if i >= 0 {
		return k.src[i]
	}
	return k.Ghosts.Vec(mu, end, int(^i))
}

func (k *StaggeredKernel) Range(lo, hi int) {
	var hop, bwd, t, x latmath.Vec3
	for idx := lo; idx < hi; idx++ {
		acc := k.src[idx].Scale(k.mass)
		nb1, nb3 := &k.Nb1[idx], &k.Nb3[idx]
		for mu := 0; mu < lattice.Ndim; mu++ {
			x = k.at(nb1[mu], mu, 1)
			hop.MulMat(&k.Fat.U[lattice.Ndim*idx+mu], &x)
			x = k.at(nb3[mu], mu, 1)
			t.MulMat(&k.Long.U[lattice.Ndim*idx+mu], &x)
			hop = hop.Add(t.Scale(k.naik))
			if dn := nb1[lattice.Ndim+mu]; dn < 0 {
				bwd = k.Ghosts.Vec(mu, 0, int(^dn))
			} else {
				bwd.DagMulMat(&k.Fat.U[lattice.Ndim*int(dn)+mu], &k.src[dn])
				if dn3 := nb3[lattice.Ndim+mu]; dn3 < 0 {
					t = k.Ghosts.Vec(mu, 0, int(^dn3))
				} else {
					t.DagMulMat(&k.Long.U[lattice.Ndim*int(dn3)+mu], &k.src[dn3])
					t = t.Scale(k.naik)
				}
				bwd = bwd.Add(t)
			}
			e := 0.5
			if k.Eta[idx]>>mu&1 != 0 {
				e = -0.5
			}
			acc = acc.Add(hop.Sub(bwd).Scale(complex(e, 0)))
		}
		k.dst[idx] = acc
	}
}

// ASQTAD is the a²-tadpole-improved staggered operator the paper
// benchmarks: a fat-link one-hop term plus the Naik three-hop term with
// long links,
//
//	D = m + Σ_mu η_mu(x)/2 [ F_mu(x) T_{+mu} - F†_mu T_{-mu} ]
//	      + c_N Σ_mu η_mu(x)/2 [ L_mu(x) T_{+3mu} - L†_mu T_{-3mu} ],
//
// where F are fattened links and L_mu(x) = U_mu(x)U_mu(x+mu)U_mu(x+2mu).
//
// Substitution note: the full ASQTAD prescription fattens with 3-, 5-
// and 7-link staples plus a Lepage term; this implementation fattens
// with the 3-link staples only (coefficients normalized so a unit gauge
// field gives unit fat links). The machine-performance character —
// two link fields, sixteen matrix-vector products per site, first- and
// third-neighbour communication — is identical; only the physics
// improvement coefficients differ. See DESIGN.md.
//
// An operator value is not safe for concurrent use: its site loop runs
// as a kernel it keeps.
type ASQTAD struct {
	G    *lattice.GaugeField
	Fat  *lattice.GaugeField
	Long *lattice.GaugeField
	Mass float64
	Naik float64

	sites StaggeredKernel
}

// Standard-ish coefficients: fat = c1 U + c3 Σ_staples with c1+6*c3 = 1
// so cold links stay unit; Naik coefficient -1/24 removes the leading
// a² error of the derivative.
const (
	asqtadOneLink   = 5.0 / 8.0
	asqtadStaple    = 1.0 / 16.0
	asqtadNaikCoeff = -1.0 / 24.0
)

// NewASQTAD builds the operator, constructing fat and long links from g.
func NewASQTAD(g *lattice.GaugeField, mass float64) *ASQTAD {
	fat, long := BuildASQTADLinks(g)
	return &ASQTAD{G: g, Fat: fat, Long: long, Mass: mass, Naik: asqtadNaikCoeff,
		sites: StaggeredKernel{Fat: fat, Long: long, Nb1: g.L.Neighbors(1), Nb3: g.L.Neighbors(3),
			Eta: StaggeredPhases(g.L, lattice.Site{})}}
}

// BuildASQTADLinks constructs the fattened one-hop links and the
// three-hop Naik links.
func BuildASQTADLinks(g *lattice.GaugeField) (fat, long *lattice.GaugeField) {
	l := g.L
	fat = lattice.NewGaugeField(l)
	long = lattice.NewGaugeField(l)
	v := l.Volume()
	for idx := 0; idx < v; idx++ {
		x := l.SiteOf(idx)
		for mu := 0; mu < lattice.Ndim; mu++ {
			// Fat link: c1 U + c3 * sum of the six 3-link staples.
			sum := g.Link(x, mu).Scale(complex(asqtadOneLink, 0))
			for nu := 0; nu < lattice.Ndim; nu++ {
				if nu == mu {
					continue
				}
				up := pathProduct(g, x, []pathStep{{nu, +1}, {mu, +1}, {nu, -1}})
				dn := pathProduct(g, x, []pathStep{{nu, -1}, {mu, +1}, {nu, +1}})
				sum = sum.Add(up.Add(dn).Scale(complex(asqtadStaple, 0)))
			}
			fat.SetLink(x, mu, sum)
			// Long (Naik) link: straight three-hop product.
			long.SetLink(x, mu, pathProduct(g, x, []pathStep{{mu, +1}, {mu, +1}, {mu, +1}}))
		}
	}
	return fat, long
}

// Name implements StaggeredOperator.
func (a *ASQTAD) Name() string { return "asqtad" }

// Lattice implements StaggeredOperator.
func (a *ASQTAD) Lattice() lattice.Shape4 { return a.G.L }

// Apply computes dst = D src.
func (a *ASQTAD) Apply(dst, src *lattice.ColorField) {
	a.sites.Run(nil, dst.V, src.V, a.Mass, a.Naik)
}

// ApplyDag computes dst = D† src = (2m - D) src: both hopping terms are
// anti-Hermitian.
func (a *ASQTAD) ApplyDag(dst, src *lattice.ColorField) {
	a.Apply(dst, src)
	for i := range dst.V {
		dst.V[i] = src.V[i].Scale(complex(2*a.Mass, 0)).Sub(dst.V[i])
	}
}
