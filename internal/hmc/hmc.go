// Package hmc implements SU(3) gauge-field evolution: the importance
// sampling of the Feynman path integral that QCDOC runs for weeks at a
// time (§4's verification was "a five day simulation ... redone, with
// the requirement that the resulting QCD configuration be identical in
// all bits"). It provides one update algorithm for the quenched Wilson
// gauge action: the Cabibbo-Marinari pseudo-heatbath with
// Kennedy-Pendleton SU(2) sampling.
//
// All randomness flows through counter-based per-link streams keyed by
// (seed, sweep, link), so an evolution is bit-reproducible and
// independent of traversal bookkeeping — the property experiment E10
// verifies.
package hmc

import (
	"math"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/rng"
)

// Wilson gauge action: S = -(beta/3) Σ_plaquettes Re tr U_p.

// Heatbath performs Cabibbo-Marinari pseudo-heatbath sweeps.
type Heatbath struct {
	Beta float64
	Seed uint64
	// Sweeps counts completed sweeps; it keys the per-sweep random
	// streams.
	Sweeps int
}

// linkStream derives the random stream for one link update in one sweep.
func linkStream(seed uint64, sweep int, linkID uint64) *rng.Stream {
	return rng.New(seed, uint64(sweep)*0x100000001+linkID)
}

// Sweep updates every link once, sweeping the three SU(2) subgroups.
func (h *Heatbath) Sweep(g *lattice.GaugeField) {
	l := g.L
	v := l.Volume()
	for idx := 0; idx < v; idx++ {
		x := l.SiteOf(idx)
		for mu := 0; mu < lattice.Ndim; mu++ {
			st := linkStream(h.Seed, h.Sweeps, uint64(idx)*lattice.Ndim+uint64(mu))
			staple := g.Staple(x, mu)
			u := g.Link(x, mu)
			for sg := 0; sg < latmath.NumSU2Subgroups; sg++ {
				w := u.Mul(staple) // weight ∝ exp((β/3) Re tr [a U V])
				what, k := latmath.ExtractSU2(w, sg)
				if k == 0 {
					continue
				}
				b := kennedyPendleton(st, 2*h.Beta*k/3)
				a := b.Mul(what.Conj())
				u = latmath.EmbedSU2(a, sg).Mul(u)
			}
			g.SetLink(x, mu, u.Reunitarize())
		}
	}
	h.Sweeps++
}

// kennedyPendleton samples b in SU(2) with weight exp(alpha * b0) over
// the Haar measure (alpha = 2 beta k / 3), using the Kennedy-Pendleton
// rejection method, then a uniform direction for the vector part.
func kennedyPendleton(st *rng.Stream, alpha float64) latmath.SU2 {
	var x float64
	for {
		r1 := 1 - st.Float64() // in (0,1]
		r2 := st.Float64()
		r3 := 1 - st.Float64()
		c := math.Cos(2 * math.Pi * r2)
		x = -(math.Log(r1) + c*c*math.Log(r3)) / alpha
		r4 := st.Float64()
		if r4*r4 <= 1-x/2 {
			break
		}
	}
	b0 := 1 - x
	if b0 < -1 {
		b0 = -1
	}
	norm := math.Sqrt(max(0, 1-b0*b0))
	// Uniform direction on the sphere.
	cosT := 2*st.Float64() - 1
	sinT := math.Sqrt(max(0, 1-cosT*cosT))
	phi := 2 * math.Pi * st.Float64()
	return latmath.SU2{
		A0: b0,
		A1: norm * sinT * math.Cos(phi),
		A2: norm * sinT * math.Sin(phi),
		A3: norm * cosT,
	}
}
