package cost

import (
	"math"
	"testing"

	"qcdoc/internal/event"
)

func TestE8CostTable(t *testing.T) {
	// §4's purchase items.
	items := Breakdown4096()
	if len(items) != 5 {
		t.Fatalf("%d items", len(items))
	}
	sum := MachineCost4096()
	if math.Abs(sum-1_608_733.55) > 0.01 {
		t.Fatalf("item sum = %.2f", sum)
	}
	// The paper's quoted totals.
	if math.Abs(PaperMachineTotal-1_610_442) > 0.001 {
		t.Fatal("machine total constant wrong")
	}
	if TotalWithRnD4096() != 1_709_601 {
		t.Fatalf("total with R&D = %v", TotalWithRnD4096())
	}
	// The quoted machine total plus prorated R&D reproduces the quoted
	// grand total exactly.
	if math.Abs(PaperMachineTotal+RnDProration4096-PaperTotalWithRnD) > 0.01 {
		t.Fatal("paper totals inconsistent")
	}
	// Item sum vs quoted total: the paper's $1,708.45 slack, documented.
	if d := PaperMachineTotal - sum; math.Abs(d-1708.45) > 0.01 {
		t.Fatalf("discrepancy = %.2f", d)
	}
}

func TestE9PricePerformance(t *testing.T) {
	// §4: $1.29, $1.10, $1.03 per sustained Mflops at 360/420/450 MHz
	// (4096 nodes, 45% efficiency, $1,709,601).
	pts := Paper4096Points()
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Dollars-p.PaperSays) > 0.005 {
			t.Errorf("%v MHz: $%.4f/Mflops, paper says $%.2f", int64(p.Clock)/1e6, p.Dollars, p.PaperSays)
		}
	}
	// The target: close to $1/Mflops at full scale with volume discounts.
	tgt := Twelve288Estimate(450*event.MHz, 0.10)
	if tgt > TargetDollarsPerMflops+0.02 {
		t.Errorf("12288-node estimate $%.3f/Mflops misses the $1 target", tgt)
	}
	if tgt < 0.5 {
		t.Errorf("12288-node estimate $%.3f implausibly low", tgt)
	}
}
