package geom

import "fmt"

// Fold maps a logical torus of dimensionality 1..6 onto the physical
// six-dimensional machine torus so that logical nearest neighbours are
// also machine nearest neighbours. This is how QCDOC runs four- and
// five-dimensional physics problems on its six-dimensional network and
// how the qdaemon "remaps a partition to a dimensionality between one and
// six" (§3.1) purely in software, without moving cables.
//
// Each logical axis is assigned one or more machine dimensions, fastest
// first. An axis with a single machine dimension is the identity map. An
// axis built from several machine dimensions traverses them in a
// generalized serpentine (boustrophedon) order: whenever a slower index
// advances by one, the entire traversal of the faster dimensions reverses,
// so consecutive logical coordinates always differ by one step in exactly
// one machine dimension. The serpentine closes into a torus (the step
// from the last logical coordinate back to 0 is also a single machine
// hop) when the slowest machine dimension of the axis has even extent,
// which holds for all QCDOC machine shapes (powers of two).
type Fold struct {
	logical Shape
	axes    [][]int // machine dimensions composing each logical axis, fastest first
	machine Shape
}

// NewFold builds a fold of the machine shape onto a logical torus. axes
// lists, for each logical axis, the machine dimensions (indices into the
// machine shape) that compose it, fastest first. Every machine dimension
// with extent > 1 must appear in exactly one axis; machine dimensions of
// extent 1 may be omitted.
func NewFold(machine Shape, axes [][]int) (*Fold, error) {
	if len(axes) == 0 || len(axes) > MaxDim {
		return nil, fmt.Errorf("geom: fold needs 1..%d logical axes, got %d", MaxDim, len(axes))
	}
	used := [MaxDim]bool{}
	var logical Shape
	for d := range logical {
		logical[d] = 1
	}
	for a, dims := range axes {
		if len(dims) == 0 {
			return nil, fmt.Errorf("geom: logical axis %d has no machine dimensions", a)
		}
		ext := 1
		for _, d := range dims {
			if d < 0 || d >= MaxDim {
				return nil, fmt.Errorf("geom: axis %d uses invalid machine dimension %d", a, d)
			}
			if used[d] {
				return nil, fmt.Errorf("geom: machine dimension %d used twice", d)
			}
			used[d] = true
			ext *= machine[d]
		}
		if slowest := dims[len(dims)-1]; len(dims) > 1 && machine[slowest]%2 != 0 {
			return nil, fmt.Errorf("geom: axis %d: slowest machine dimension %d has odd extent %d; serpentine cannot close into a torus",
				a, slowest, machine[slowest])
		}
		logical[a] = ext
	}
	for d := 0; d < MaxDim; d++ {
		if machine[d] > 1 && !used[d] {
			return nil, fmt.Errorf("geom: machine dimension %d (extent %d) not assigned to any logical axis", d, machine[d])
		}
	}
	return &Fold{logical: logical, axes: axes, machine: machine}, nil
}

// IdentityFold returns the trivial fold where successive logical axes are
// the machine dimensions of extent > 1, in order.
func IdentityFold(machine Shape) *Fold {
	axes := make([][]int, 0, MaxDim)
	for d := 0; d < MaxDim; d++ {
		if machine[d] > 1 {
			axes = append(axes, []int{d})
		}
	}
	if len(axes) == 0 {
		axes = append(axes, []int{0}) // single-node machine
	}
	f, err := NewFold(machine, axes)
	if err != nil {
		panic("geom: identity fold invalid: " + err.Error())
	}
	return f
}

// FoldToDims folds a machine shape to a logical torus of dims axes
// (1..6): the largest machine dimensions become axes and the rest fold in
// round-robin, fastest first, so each axis's own dimension stays its
// slowest. A machine using fewer dimensions than dims is padded with its
// extent-1 dimensions (a single node folds to 1x1x...).
func FoldToDims(machine Shape, dims int) (*Fold, error) {
	if dims < 1 || dims > MaxDim {
		return nil, fmt.Errorf("geom: dimensionality %d out of range 1..%d", dims, MaxDim)
	}
	// Dimensions with extent > 1, largest first.
	type de struct{ dim, ext int }
	var ds []de
	for d := 0; d < MaxDim; d++ {
		if machine[d] > 1 {
			ds = append(ds, de{d, machine[d]})
		}
	}
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			if ds[j].ext > ds[i].ext {
				ds[i], ds[j] = ds[j], ds[i]
			}
		}
	}
	axes := make([][]int, 0, dims)
	var used [MaxDim]bool
	for i, e := range ds {
		if i < dims {
			axes = append(axes, []int{e.dim})
		} else {
			a := (i - dims) % len(axes)
			axes[a] = append([]int{e.dim}, axes[a]...)
		}
		used[e.dim] = true
	}
	for d := 0; d < MaxDim && len(axes) < dims; d++ {
		if !used[d] && machine[d] == 1 {
			axes = append(axes, []int{d})
		}
	}
	if len(axes) != dims {
		return nil, fmt.Errorf("geom: cannot fold %v to %d dimensions", machine, dims)
	}
	return NewFold(machine, axes)
}

// Logical returns the shape of the folded (logical) torus.
func (f *Fold) Logical() Shape { return f.logical }

// snake converts a linear index k along an axis into per-machine-dimension
// indices, applying the recursive boustrophedon reversal.
func (f *Fold) snake(k int, dims []int, out []int) {
	if len(dims) == 1 {
		out[0] = k
		return
	}
	low := 1
	for _, d := range dims[:len(dims)-1] {
		low *= f.machine[d]
	}
	hi, rem := k/low, k%low
	if hi%2 == 1 {
		rem = low - 1 - rem // odd layers traverse the sub-snake in reverse
	}
	out[len(dims)-1] = hi
	f.snake(rem, dims[:len(dims)-1], out[:len(dims)-1])
}

// unsnake inverts snake.
func (f *Fold) unsnake(dims []int, idx []int) int {
	if len(dims) == 1 {
		return idx[0]
	}
	low := 1
	for _, d := range dims[:len(dims)-1] {
		low *= f.machine[d]
	}
	hi := idx[len(dims)-1]
	rem := f.unsnake(dims[:len(dims)-1], idx[:len(dims)-1])
	if hi%2 == 1 {
		rem = low - 1 - rem
	}
	return hi*low + rem
}

// ToMachine maps a logical coordinate to the machine coordinate it runs on.
func (f *Fold) ToMachine(lc Coord) Coord {
	var mc Coord
	var idx [MaxDim]int
	for a, dims := range f.axes {
		f.snake(lc[a], dims, idx[:len(dims)])
		for i, d := range dims {
			mc[d] = idx[i]
		}
	}
	return mc
}

// ToLogical inverts ToMachine.
func (f *Fold) ToLogical(mc Coord) Coord {
	var lc Coord
	var idx [MaxDim]int
	for a, dims := range f.axes {
		for i, d := range dims {
			idx[i] = mc[d]
		}
		lc[a] = f.unsnake(dims, idx[:len(dims)])
	}
	return lc
}

// MachineLink returns the physical machine link that carries traffic
// from logical coordinate lc one step along logical axis in direction
// dir, and the machine coordinate of the destination. Because the fold
// preserves nearest-neighbourhood, this is always a single physical hop.
//
// The backward link is defined as the opposite of the upstream
// neighbour's forward link, so a sender's transmit link and the
// receiver's listen link always name the same wire — including on
// extent-2 machine dimensions, where a +1 and a -1 hop land on the same
// node but over different wires.
func (f *Fold) MachineLink(lc Coord, axis int, dir Dir) (from Coord, link Link, to Coord) {
	if dir == Bwd {
		prev := lc
		prev[axis] = wrap(lc[axis]-1, f.logical[axis])
		pFrom, pLink, _ := f.MachineLink(prev, axis, Fwd)
		return f.ToMachine(lc), pLink.Opposite(), pFrom
	}
	from = f.ToMachine(lc)
	nlc := lc
	nlc[axis] = wrap(lc[axis]+1, f.logical[axis])
	to = f.ToMachine(nlc)
	for d := 0; d < MaxDim; d++ {
		if from[d] == to[d] {
			continue
		}
		delta := to[d] - from[d]
		switch {
		case delta == 1 || delta == -(f.machine[d]-1):
			return from, Link{Dim: d, Dir: Fwd}, to
		case delta == -1 || delta == f.machine[d]-1:
			return from, Link{Dim: d, Dir: Bwd}, to
		}
	}
	// A fold that passed NewFold validation cannot reach here; a same-node
	// "hop" only occurs for logical extent 1, where the link is a self loop.
	return from, Link{Dim: 0, Dir: Fwd}, to
}
