// Package geom provides the six-dimensional torus geometry that underlies
// the QCDOC machine: coordinates, lexicographic ranking, nearest-neighbour
// link enumeration, and the software partitioning and dimension-folding
// rules of the paper's §2.2 and §3.1 (lower-dimensional machine partitions
// are carved from the native six-dimensional mesh without moving cables).
package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxDim is the dimensionality of the QCDOC mesh network. The paper fixes
// it at six: large enough to fold four- and five-dimensional physics
// problems onto, small enough to cable on a motherboard (12 neighbours).
const MaxDim = 6

// NumLinks is the number of uni-directional nearest-neighbour connections
// per node: 2 directions × MaxDim dimensions, each carrying concurrent
// sends and receives (24 independent connections in the SCU's terms; a
// "link" here is one (dim, dir) pair used for both a send and a receive
// channel).
const NumLinks = 2 * MaxDim

// Shape gives the extent of a torus in each of the six dimensions.
// Unused dimensions have extent 1.
type Shape [MaxDim]int

// Coord is a point on a six-dimensional torus. Each component c[d]
// satisfies 0 <= c[d] < shape[d].
type Coord [MaxDim]int

// Dir is a direction along a dimension: +1 (forward) or -1 (backward).
type Dir int

const (
	// Fwd is the positive direction along a dimension.
	Fwd Dir = +1
	// Bwd is the negative direction along a dimension.
	Bwd Dir = -1
)

// MakeShape builds a Shape from the given extents, padding the remaining
// dimensions with 1. It panics if more than MaxDim extents are given or
// any extent is < 1; shapes are almost always literals in configuration
// code, so this is an assembly-time error.
func MakeShape(extents ...int) Shape {
	if len(extents) > MaxDim {
		panic(fmt.Sprintf("geom: %d extents exceed %d dimensions", len(extents), MaxDim))
	}
	var s Shape
	for d := range s {
		s[d] = 1
	}
	for d, e := range extents {
		if e < 1 {
			panic(fmt.Sprintf("geom: extent %d in dimension %d", e, d))
		}
		s[d] = e
	}
	return s
}

// ParseShape reads a comma-separated list of one to MaxDim extents, each
// at least 1, as a command line gives it ("2,2,2"); MakeShape pads the
// rest.
func ParseShape(s string) (Shape, error) {
	fields := strings.Split(s, ",")
	if len(fields) > MaxDim {
		return Shape{}, fmt.Errorf("geom: shape %q has %d extents, at most %d", s, len(fields), MaxDim)
	}
	ext := make([]int, len(fields))
	for d, f := range fields {
		e, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || e < 1 {
			return Shape{}, fmt.Errorf("geom: shape %q: extent %q in dimension %d is not a whole number of at least 1", s, f, d)
		}
		ext[d] = e
	}
	return MakeShape(ext...), nil
}

// Volume is the number of sites (nodes) in the torus.
func (s Shape) Volume() int {
	v := 1
	for _, e := range s {
		v *= e
	}
	return v
}

// Dims reports the number of dimensions with extent > 1.
func (s Shape) Dims() int {
	n := 0
	for _, e := range s {
		if e > 1 {
			n++
		}
	}
	return n
}

// Valid reports whether every extent is at least 1.
func (s Shape) Valid() bool {
	for _, e := range s {
		if e < 1 {
			return false
		}
	}
	return true
}

// Contains reports whether c lies inside the shape.
func (s Shape) Contains(c Coord) bool {
	for d := 0; d < MaxDim; d++ {
		if c[d] < 0 || c[d] >= s[d] {
			return false
		}
	}
	return true
}

// Rank converts a coordinate to its lexicographic rank, with dimension 0
// fastest. Rank is the node identifier used throughout the simulator.
func (s Shape) Rank(c Coord) int {
	r := 0
	for d := MaxDim - 1; d >= 0; d-- {
		r = r*s[d] + c[d]
	}
	return r
}

// CoordOf inverts Rank.
func (s Shape) CoordOf(rank int) Coord {
	var c Coord
	for d := 0; d < MaxDim; d++ {
		c[d] = rank % s[d]
		rank /= s[d]
	}
	return c
}

// Neighbor returns the coordinate one step from c along dimension dim in
// direction dir, with periodic (torus) wrapping.
func (s Shape) Neighbor(c Coord, dim int, dir Dir) Coord {
	n := c
	n[dim] = wrap(c[dim]+int(dir), s[dim])
	return n
}

func wrap(x, n int) int {
	x %= n
	if x < 0 {
		x += n
	}
	return x
}

// Diameter returns the maximum hop distance between any two nodes,
// i.e. the sum over dimensions of floor(extent/2).
func (s Shape) Diameter() int {
	d := 0
	for _, e := range s {
		d += e / 2
	}
	return d
}

func (s Shape) String() string {
	out := ""
	for d, e := range s {
		if d > 0 {
			out += "x"
		}
		out += fmt.Sprint(e)
	}
	return out
}

// Link identifies one of the twelve nearest-neighbour connections of a
// node: a dimension and a direction. The SCU drives a concurrent send and
// a concurrent receive on each Link.
type Link struct {
	Dim int
	Dir Dir
}

// LinkIndex maps a Link to a dense index in [0, NumLinks): forward links
// first (dims 0..5), then backward links.
func LinkIndex(l Link) int {
	if l.Dir == Fwd {
		return l.Dim
	}
	return MaxDim + l.Dim
}

// LinkAt inverts LinkIndex.
func LinkAt(i int) Link {
	if i < MaxDim {
		return Link{Dim: i, Dir: Fwd}
	}
	return Link{Dim: i - MaxDim, Dir: Bwd}
}

// Opposite returns the link as seen from the neighbouring node: a packet
// leaving on (dim, +) arrives on the neighbour's (dim, -) receiver.
func (l Link) Opposite() Link {
	return Link{Dim: l.Dim, Dir: -l.Dir}
}

// String names the link "+d" or "-d" from a table of constants in
// LinkIndex order, so naming one formats nothing.
func (l Link) String() string {
	return [NumLinks]string{
		"+0", "+1", "+2", "+3", "+4", "+5",
		"-0", "-1", "-2", "-3", "-4", "-5",
	}[LinkIndex(l)]
}

// AllLinks enumerates the twelve links in LinkIndex order.
func AllLinks() []Link {
	ls := make([]Link, NumLinks)
	for i := range ls {
		ls[i] = LinkAt(i)
	}
	return ls
}
