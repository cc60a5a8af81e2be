package machine

import (
	"fmt"
	"slices"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
)

// Packaging constants from §2.4 and Figures 3-5.
const (
	// NodesPerDaughterboard: two ASICs plus two DDR DIMMs and a 5-port
	// Ethernet hub on a 3" x 6.5" 18-layer board.
	NodesPerDaughterboard = 2
	// WattsPerDaughterboard: the paper quotes "about 20 Watts for both
	// nodes, including the DRAMs" per daughterboard, but also that a
	// populated 512-daughterboard rack "consumes less than 10,000
	// watts"; both cannot be exact (512 x 20 = 10,240). We take the
	// rack-level figure as the measured one and back out an average of
	// 18.5 W per board, keeping the nominal 20 W for reference.
	WattsPerDaughterboard        = 18.5
	NominalWattsPerDaughterboard = 20.0
	// DaughterboardsPerMotherboard: 32 boards = 64 nodes as a 2^6
	// hypercube on a 14.5" x 27" motherboard.
	DaughterboardsPerMotherboard = 32
	NodesPerMotherboard          = NodesPerDaughterboard * DaughterboardsPerMotherboard
	// MotherboardsPerCrate: eight motherboards per crate, two crates per
	// water-cooled rack.
	MotherboardsPerCrate = 8
	CratesPerRack        = 2
	NodesPerCrate        = NodesPerMotherboard * MotherboardsPerCrate
	NodesPerRack         = NodesPerCrate * CratesPerRack // 1024
	// RackOverheadWatts covers DC-DC conversion, hubs, clock
	// distribution and pumps so a populated rack stays under the paper's
	// 10,000 W ("consumes less than 10,000 watts").
	RackOverheadWatts = 500.0
	// RackFootprintSqFt: the paper quotes ~60 ft^2 for a 10,000+-node
	// (12-rack) stacked installation.
	RackFootprintSqFt = 5.0
	// GlobalClockHz is the motherboard-distributed slow clock (§2.4,
	// "around 40 MHz").
	GlobalClockHz = 40 * event.MHz
	// MotherboardShape: the 64 nodes of a motherboard form a 2^6
	// hypercube (Figure 4).
	MotherboardDim = 6
)

// Packaging summarizes the physical build of an n-node machine.
type Packaging struct {
	Nodes          int
	Daughterboards int
	Motherboards   int
	Crates         int
	Racks          int
	PowerWatts     float64
	FootprintSqFt  float64
	PeakTeraflops  float64
}

// PackagingFor computes the packaging of an n-node machine at the given
// clock.
func PackagingFor(nodes int, clock event.Hz) Packaging {
	ceil := func(a, b int) int { return (a + b - 1) / b }
	racks := ceil(nodes, NodesPerRack)
	p := Packaging{
		Nodes:          nodes,
		Daughterboards: ceil(nodes, NodesPerDaughterboard),
		Motherboards:   ceil(nodes, NodesPerMotherboard),
		Crates:         ceil(nodes, NodesPerCrate),
		Racks:          racks,
		FootprintSqFt:  float64(racks) * RackFootprintSqFt,
	}
	p.PowerWatts = float64(p.Daughterboards)*WattsPerDaughterboard + float64(racks)*RackOverheadWatts
	// Peak: 2 flops/cycle/node.
	p.PeakTeraflops = 2 * float64(clock) * float64(nodes) / 1e12
	return p
}

func (p Packaging) String() string {
	return fmt.Sprintf("%d nodes: %d daughterboards, %d motherboards, %d crates, %d racks; %.1f kW, %.0f ft^2, %.2f Tflops peak",
		p.Nodes, p.Daughterboards, p.Motherboards, p.Crates, p.Racks,
		p.PowerWatts/1000, p.FootprintSqFt, p.PeakTeraflops)
}

// MotherboardShape returns the 2^6 hypercube of Figure 4.
func MotherboardShape() geom.Shape { return geom.MakeShape(2, 2, 2, 2, 2, 2) }

// Machine1024Shape is the assembled 1024-node machine of §4:
// 8 x 4 x 4 x 2 x 2 x 2.
func Machine1024Shape() geom.Shape { return geom.MakeShape(8, 4, 4, 2, 2, 2) }

// Machine4096Shape is a natural 4096-node shape (4 racks).
func Machine4096Shape() geom.Shape { return geom.MakeShape(8, 8, 4, 4, 2, 2) }

// Machine12288Shape is a 12,288-node production machine (12 racks):
// 12288 = 8 x 8 x 8 x 4 x 3 x 2... the machines were assembled from
// 1024-node racks; we use 16 x 8 x 8 x 4 x 3 with one odd extent carried
// by the rack dimension. For simulation purposes any factorization with
// the right volume serves; this one keeps five dimensions even so all
// folds close.
func Machine12288Shape() geom.Shape { return geom.MakeShape(16, 8, 8, 4, 3, 1) }

// GuessShape factors n nodes into a six-dimensional torus with extents
// as equal as possible (powers of two preferred), for experiment sweeps.
func GuessShape(n int) geom.Shape {
	if n < 1 {
		panic("machine: invalid node count")
	}
	var dims [geom.MaxDim]int
	for i := range dims {
		dims[i] = 1
	}
	// Peel factors from largest prime down, assigning to the smallest
	// dimension.
	rem := n
	for f := 2; rem > 1; {
		if rem%f == 0 {
			smallest := 0
			for d := 1; d < geom.MaxDim; d++ {
				if dims[d] < dims[smallest] {
					smallest = d
				}
			}
			dims[smallest] *= f
			rem /= f
		} else {
			f++
			if f*f > rem {
				f = rem
			}
		}
	}
	slices.SortFunc(dims[:], func(a, b int) int { return b - a }) // descending, as conventionally written
	return geom.MakeShape(dims[:]...)
}
