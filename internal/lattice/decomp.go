package lattice

import "fmt"

// Decomp maps a global lattice onto a 4-D grid of processing nodes: the
// trivial, perfectly load-balanced decomposition the paper describes in
// §1 ("no load balancing is needed beyond the initial trivial mapping of
// the physics coordinate grid to the machine mesh").
type Decomp struct {
	Global Shape4 // global lattice extents
	Grid   Shape4 // nodes per dimension (the folded machine's 4-D shape)
	Local  Shape4 // sites per node per dimension
}

// NewDecomp validates that the grid divides the global lattice evenly.
func NewDecomp(global, grid Shape4) (Decomp, error) {
	if !global.Valid() || !grid.Valid() {
		return Decomp{}, fmt.Errorf("lattice: invalid shapes %v / %v", global, grid)
	}
	var local Shape4
	for mu := 0; mu < Ndim; mu++ {
		if global[mu]%grid[mu] != 0 {
			return Decomp{}, fmt.Errorf("lattice: grid %v does not divide lattice %v in dimension %d",
				grid, global, mu)
		}
		local[mu] = global[mu] / grid[mu]
	}
	return Decomp{Global: global, Grid: grid, Local: local}, nil
}

// Nodes is the number of processing nodes.
func (d Decomp) Nodes() int { return d.Grid.Volume() }

// LocalVolume is the number of sites per node.
func (d Decomp) LocalVolume() int { return d.Local.Volume() }

// NodeOf returns the grid coordinate owning a global site and the
// site's local coordinate on that node.
func (d Decomp) NodeOf(g Site) (node Site, local Site) {
	for mu := 0; mu < Ndim; mu++ {
		node[mu] = g[mu] / d.Local[mu]
		local[mu] = g[mu] % d.Local[mu]
	}
	return
}

// GlobalOf inverts NodeOf.
func (d Decomp) GlobalOf(node, local Site) Site {
	var g Site
	for mu := 0; mu < Ndim; mu++ {
		g[mu] = node[mu]*d.Local[mu] + local[mu]
	}
	return g
}

// FaceVolume is the number of sites on a face transverse to mu.
func FaceVolume(l Shape4, mu int) int { return l.Volume() / l[mu] }

// LayerSites lists the local lexicographic indices of the sites with
// x_mu == k, in ascending index order. Layers 0 and l[mu]-1 are the
// boundary faces whose payloads a halo exchange ships to the
// neighbouring node (ASQTAD's Naik term ships three layers per face);
// the order is the contract between the packing code and the receiver's
// ghost slots: the i-th site of a layer is slot i.
func LayerSites(l Shape4, mu, k int) []int {
	out := make([]int, 0, FaceVolume(l, mu))
	v := l.Volume()
	for idx := 0; idx < v; idx++ {
		if l.SiteOf(idx)[mu] == k {
			out = append(out, idx)
		}
	}
	return out
}
