package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddressMap(t *testing.T) {
	if LevelOf(0) != EDRAM || LevelOf(EDRAMBytes-8) != EDRAM {
		t.Fatal("low addresses must be EDRAM")
	}
	if LevelOf(DDRBase) != DDR {
		t.Fatal("DDRBase must be DDR")
	}
	if DDRBase != EDRAMBytes {
		t.Fatal("DDR must start right after EDRAM")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewNodeMemory(0)
	addrs := []uint64{0, 8, EDRAMBytes - 8, DDRBase, DDRBase + 1024*8}
	for i, a := range addrs {
		m.WriteWord(a, uint64(i)+0xF00)
	}
	for i, a := range addrs {
		if got := m.ReadWord(a); got != uint64(i)+0xF00 {
			t.Fatalf("addr %#x = %#x", a, got)
		}
	}
	// Untouched memory reads as zero.
	if m.ReadWord(16) != 0 {
		t.Fatal("untouched word non-zero")
	}
}

func TestReadWriteQuick(t *testing.T) {
	m := NewNodeMemory(1 << 20)
	f := func(seed int64, vals []uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		written := map[uint64]uint64{}
		for _, v := range vals {
			a := uint64(rng.Intn(1<<18)) * 8 // within EDRAM
			m.WriteWord(a, v)
			written[a] = v
		}
		for a, v := range written {
			if m.ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := NewNodeMemory(0)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	m.ReadWord(3)
}

func TestBeyondDDRPanics(t *testing.T) {
	m := NewNodeMemory(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	m.WriteWord(DDRBase+(1<<20), 1)
}

func TestBadDDRSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized DDR accepted")
		}
	}()
	NewNodeMemory(MaxDDRBytes + 1)
}

func TestModelBandwidths(t *testing.T) {
	// E6: the paper's datapath numbers — 8 GB/s to EDRAM, 2.6 GB/s to DDR
	// at 500 MHz.
	m := DefaultModel()
	if bw := m.BusBandwidth(EDRAM); bw < 7.9e9 || bw > 8.1e9 {
		t.Fatalf("EDRAM bus = %.3g B/s, want 8e9", bw)
	}
	if bw := m.BusBandwidth(DDR); bw < 2.55e9 || bw > 2.65e9 {
		t.Fatalf("DDR bus = %.3g B/s, want 2.6e9", bw)
	}
}

func TestPrefetchStreamsAvoidPageMisses(t *testing.T) {
	// §2.1: a(x)*b(x) — two contiguous streams — runs at full bus speed;
	// more streams than the prefetcher covers pay page misses.
	m := DefaultModel()
	bytes := 1 << 16
	two := m.StreamCycles(EDRAM, bytes, 2)
	ideal := float64(bytes) / m.EDRAMBusBPC
	if two != ideal {
		t.Fatalf("2-stream cycles = %v, want bus-limited %v", two, ideal)
	}
	three := m.StreamCycles(EDRAM, bytes, 3)
	if three <= two {
		t.Fatal("3 streams should pay page misses")
	}
	// Penalty magnitude: one page-miss per 128-byte row.
	wantPenalty := float64(bytes) / EDRAMRowBytes * m.PageMissCycles
	if got := three - two; got != wantPenalty {
		t.Fatalf("penalty = %v, want %v", got, wantPenalty)
	}
}

func TestKernelSlowerThanBus(t *testing.T) {
	m := DefaultModel()
	for _, l := range []Level{EDRAM, DDR} {
		if m.KernelBPC(l) >= m.BusBPC(l) {
			t.Fatalf("%v kernel bandwidth must be below bus bandwidth", l)
		}
	}
	// DDR kernels are slower than EDRAM kernels: the basis of the ~30%
	// efficiency figure for spilled volumes (§4).
	if m.KernelBPC(DDR) >= m.KernelBPC(EDRAM) {
		t.Fatal("DDR kernel bandwidth must be below EDRAM")
	}
}

func TestFitsEDRAM(t *testing.T) {
	// §4: a 4^4 local volume fits easily; 6^4 still fits for most
	// formulations. Wilson DP working set per site ~ (gauge 288 + spinors
	// ~4x192) bytes ~ 1.1 KB/site.
	sitesFour := 4 * 4 * 4 * 4
	if !FitsEDRAM(sitesFour * 1100) {
		t.Fatal("4^4 should fit in EDRAM")
	}
	sitesSix := 6 * 6 * 6 * 6
	if !FitsEDRAM(sitesSix * 1100) {
		t.Fatal("6^4 should fit in EDRAM")
	}
	sitesEight := 8 * 8 * 8 * 8
	if FitsEDRAM(sitesEight * 1100) {
		t.Fatal("8^4 Wilson working set should spill to DDR")
	}
}
