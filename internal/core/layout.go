// Package core is the application layer that runs lattice QCD on the
// simulated QCDOC: it folds the six-dimensional machine onto the
// four-dimensional physics grid (§1: "each processor becomes responsible
// for the local variables associated with a space-time hypercube"),
// scatters global fields into per-node local fields, runs distributed
// Dirac operators whose halo exchanges and global sums travel through
// the functional SCU network, charges the per-node compute model for
// every kernel, and gathers results back for verification against the
// single-node reference implementations.
package core

import (
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
)

// Layout binds a global lattice to a machine: a fold of the 6-D torus
// into four logical axes and the resulting decomposition.
type Layout struct {
	Fold *geom.Fold
	Dec  lattice.Decomp
}

// NewLayout folds the machine to four dimensions (§2.2: "we chose to
// make the mesh network six dimensional, so we can make lower-
// dimensional partitions of the machine in software") and divides the
// global lattice over the logical grid.
func NewLayout(machineShape geom.Shape, global lattice.Shape4) (Layout, error) {
	fold, err := geom.FoldToDims(machineShape, 4)
	if err != nil {
		return Layout{}, err
	}
	ls := fold.Logical()
	grid := lattice.Shape4{ls[0], ls[1], ls[2], ls[3]}
	dec, err := lattice.NewDecomp(global, grid)
	if err != nil {
		return Layout{}, err
	}
	return Layout{Fold: fold, Dec: dec}, nil
}

// GridCoord extracts the 4-D grid coordinate of a logical coordinate.
func GridCoord(lc geom.Coord) lattice.Site {
	return lattice.Site{lc[0], lc[1], lc[2], lc[3]}
}

// forEachSite calls f with the local and the global lexicographic index
// of every site grid node gc owns, in ascending local order: the site map
// behind every scatter and gather.
func forEachSite(dec lattice.Decomp, gc lattice.Site, f func(local, global int)) {
	v := dec.Local.Volume()
	for idx := 0; idx < v; idx++ {
		f(idx, dec.Global.Index(dec.GlobalOf(gc, dec.Local.SiteOf(idx))))
	}
}

// ScatterGauge extracts the local gauge field owned by grid node gc.
func ScatterGauge(global *lattice.GaugeField, dec lattice.Decomp, gc lattice.Site) *lattice.GaugeField {
	local := lattice.NewGaugeField(dec.Local)
	forEachSite(dec, gc, func(l, g int) {
		copy(local.U[lattice.Ndim*l:lattice.Ndim*(l+1)], global.U[lattice.Ndim*g:])
	})
	return local
}

// ScatterFermion extracts the local spinor field owned by grid node gc.
func ScatterFermion(global *lattice.FermionField, dec lattice.Decomp, gc lattice.Site) *lattice.FermionField {
	local := lattice.NewFermionField(dec.Local)
	forEachSite(dec, gc, func(l, g int) { local.S[l] = global.S[g] })
	return local
}

// GatherFermion writes a node's local spinor field into the global field.
func GatherFermion(global *lattice.FermionField, dec lattice.Decomp, gc lattice.Site, local *lattice.FermionField) {
	forEachSite(dec, gc, func(l, g int) { global.S[g] = local.S[l] })
}

// ScatterColor extracts the local staggered field owned by grid node gc.
func ScatterColor(global *lattice.ColorField, dec lattice.Decomp, gc lattice.Site) *lattice.ColorField {
	local := lattice.NewColorField(dec.Local)
	forEachSite(dec, gc, func(l, g int) { local.V[l] = global.V[g] })
	return local
}

// GatherColor writes a node's local staggered field into the global field.
func GatherColor(global *lattice.ColorField, dec lattice.Decomp, gc lattice.Site, local *lattice.ColorField) {
	forEachSite(dec, gc, func(l, g int) { global.V[g] = local.V[l] })
}
