// Package cost reproduces the §4 cost accounting of the 4096-node
// QCDOC: the component purchase prices (Columbia University purchase
// orders), the R&D proration over the funded machines, and the
// price/performance figures at the three demonstrated clock speeds.
package cost

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/machine"
	"qcdoc/internal/perf"
)

// The paper's exact purchase figures (§4, in dollars).
const (
	Daughterboards4096   = 1_105_692.67 // 2048 boards; 128 MB DDR on half, 256 MB on half
	Motherboards4096     = 180_404.88   // 64 boards
	WaterCooledCabinets  = 187_296.00   // four cabinets
	MeshCables4096       = 71_040.00    // 768 cables
	HostAndStorage       = 64_300.00    // host computer, Ethernet switches, 6 TB RAID
	DesignAndPrototyping = 2_166_000.00 // R&D, excluding academic salaries
	RnDProration4096     = 99_159.00    // R&D share carried by the 4096-node machine
)

// Item is one line of the cost table.
type Item struct {
	Name   string
	Amount float64
}

// Breakdown4096 returns the §4 cost table for the 4096-node machine.
func Breakdown4096() []Item {
	return []Item{
		{"2048 daughterboards (128/256 MB DDR)", Daughterboards4096},
		{"64 motherboards", Motherboards4096},
		{"4 water-cooled cabinets", WaterCooledCabinets},
		{"768 mesh-network cables", MeshCables4096},
		{"host computer, Ethernet switches, 6 TB RAID", HostAndStorage},
	}
}

// The paper's quoted totals. Note a small internal inconsistency in the
// paper: the five listed items sum to $1,608,733.55, while the text
// quotes "a total machine cost of $1,610,442" ($1,708.45 more —
// presumably a line item absorbed into the prose; the host/storage
// figure was still "awaiting final accounting"). The price/performance
// numbers follow from the quoted totals exactly, so we keep both: the
// computed item sum (MachineCost4096) and the paper's canonical totals.
const (
	PaperMachineTotal = 1_610_442.00
	PaperTotalWithRnD = 1_709_601.00
)

// MachineCost4096 is the sum of the listed purchase items
// ($1,608,733.55 — see the note on PaperMachineTotal).
func MachineCost4096() float64 {
	total := 0.0
	for _, it := range Breakdown4096() {
		total += it.Amount
	}
	return total
}

// TotalWithRnD4096 is the paper's canonical total including the prorated
// R&D share: $1,709,601.
func TotalWithRnD4096() float64 {
	return PaperTotalWithRnD
}

// PricePerformance reports dollars per sustained Mflops for a machine
// at the given node count, clock, solver efficiency and total cost.
func PricePerformance(totalDollars float64, nodes int, clock event.Hz, efficiency float64) float64 {
	sustainedMflops := perf.SustainedMachine(nodes, clock, efficiency) * 1000 // Gflops -> Mflops
	return totalDollars / sustainedMflops
}

// Paper4096Points returns the paper's price/performance table: $1.29,
// $1.10 and $1.03 per sustained Mflops at 360, 420 and 450 MHz with 45%
// solver efficiency on the $1,709,601 machine.
type PricePoint struct {
	Clock     event.Hz
	Dollars   float64 // per sustained Mflops
	PaperSays float64
}

// Paper4096Points computes the three demonstrated clock points.
func Paper4096Points() []PricePoint {
	total := TotalWithRnD4096()
	pts := []PricePoint{
		{Clock: 360 * event.MHz, PaperSays: 1.29},
		{Clock: 420 * event.MHz, PaperSays: 1.10},
		{Clock: 450 * event.MHz, PaperSays: 1.03},
	}
	for i := range pts {
		pts[i].Dollars = PricePerformance(total, 4096, pts[i].Clock, 0.45)
	}
	return pts
}

// Target is the design goal from the abstract.
const TargetDollarsPerMflops = 1.00

// Twelve288Estimate extrapolates a 12,288-node machine at the given
// volume-discount factor on the per-node hardware cost (R&D already
// fully prorated across machines per the paper's accounting).
func Twelve288Estimate(clock event.Hz, discount float64) float64 {
	perNodeHW := MachineCost4096() / 4096
	total := perNodeHW * (1 - discount) * 12288
	return PricePerformance(total, 12288, clock, 0.45)
}

// PowerBudget ties cost to the packaging model: dollars per watt for the
// 4096-node machine.
func PowerBudget(clock event.Hz) (watts float64, dollarsPerWatt float64) {
	p := machine.PackagingFor(4096, clock)
	return p.PowerWatts, TotalWithRnD4096() / p.PowerWatts
}

// FormatTable renders the cost breakdown as text rows.
func FormatTable() string {
	out := ""
	for _, it := range Breakdown4096() {
		out += fmt.Sprintf("  %-45s $%12.2f\n", it.Name, it.Amount)
	}
	out += fmt.Sprintf("  %-45s $%12.2f\n", "items sum", MachineCost4096())
	out += fmt.Sprintf("  %-45s $%12.2f\n", "machine total (paper)", PaperMachineTotal)
	out += fmt.Sprintf("  %-45s $%12.2f\n", "prorated R&D", RnDProration4096)
	out += fmt.Sprintf("  %-45s $%12.2f\n", "grand total", TotalWithRnD4096())
	return out
}
