package memsys

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"qcdoc/internal/event"
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
	m := new(NodeMemory)
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
	m := new(NodeMemory)
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

// mustPanic runs fn and demands a panic with exactly this message: the
// messages are what a user of a misprogrammed DMA descriptor sees.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	fn()
}

func TestUnalignedPanics(t *testing.T) {
	m := new(NodeMemory)
	mustPanic(t, "memsys: unaligned word access at 0x3", func() { m.ReadWord(3) })
	mustPanic(t, "memsys: unaligned word access at 0x400004", func() { m.WriteWord(DDRBase+4, 1) })
}

func TestBeyondDDRPanics(t *testing.T) {
	m := new(NodeMemory)
	mustPanic(t, "memsys: address 0x8400000 beyond installed DDR (134217728 bytes)", func() { m.WriteWord(DDRBase+DDRBytes, 1) })
	mustPanic(t, "memsys: address 0x8400000 beyond installed DDR (134217728 bytes)", func() { m.ReadWord(DDRBase + DDRBytes) })
}

// TestNodeMemoryMatchesReference runs seeded random read/write programs
// against a map: the paged store must be indistinguishable from a flat
// one. Addresses are weighted toward where a page table can go wrong —
// both sides of page boundaries, the last EDRAM word and the first DDR
// word, the last DDR word — and toward words never written, which must
// read zero without allocating anything.
func TestNodeMemoryMatchesReference(t *testing.T) {
	last := uint64(ddrEnd - 8)
	edges := []uint64{0, EDRAMBytes - 8, DDRBase, last, 256 << 10}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := new(NodeMemory), map[uint64]uint64{}
		addr := func() uint64 {
			switch rng.Intn(4) {
			case 0: // an edge, or its neighbour on either side
				a := edges[rng.Intn(len(edges))] + 8*uint64(rng.Intn(3)) - 8
				if a <= last {
					return a
				}
				return last
			case 1: // the words around a page boundary
				pg := uint64(rng.Intn(ddrEnd/pageBytes)) + 1
				return pg*pageBytes + 8*uint64(rng.Intn(4)) - 16
			case 2: // a few hot pages, so writes land on installed pages too
				return uint64(rng.Intn(4))*(EDRAMBytes/3)&^(pageBytes-1) + 8*uint64(rng.Intn(pageWords))
			default: // anywhere
				return uint64(rng.Int63n(int64(ddrEnd)/8)) * 8
			}
		}
		for step := 0; step < 4000; step++ {
			a := addr()
			if rng.Intn(3) == 0 {
				w := rng.Uint64()
				m.WriteWord(a, w)
				ref[a] = w
			} else if got := m.ReadWord(a); got != ref[a] {
				t.Fatalf("seed %d step %d: word at %#x = %#x, want %#x", seed, step, a, got, ref[a])
			}
		}
		for a, w := range ref {
			if got := m.ReadWord(a); got != w {
				t.Fatalf("seed %d: word at %#x = %#x, want %#x", seed, a, got, w)
			}
		}
	}

	m := new(NodeMemory)
	var sum uint64
	reads := testing.AllocsPerRun(10, func() {
		for _, a := range []uint64{0, 256 << 10, EDRAMBytes - 8, DDRBase, DDRBase + DDRBytes - 8} {
			sum += m.ReadWord(a)
		}
	})
	if reads != 0 || sum != 0 {
		t.Fatalf("reading never-written memory allocated %.0f objects and summed to %d, want 0 and 0", reads, sum)
	}
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFirstAppWordFootprint: a node's allocator starts above the 256 KB
// reserved for kernels, so the first word an application writes lands
// there. With the flat, doubling store that one write cost the host a
// zeroed 512 KB slice (524 288 bytes + the header); paged, it costs the
// resident EDRAM table and one page.
func TestFirstAppWordFootprint(t *testing.T) {
	var m *NodeMemory
	got := allocatedBytes(func() {
		m = new(NodeMemory)
		m.WriteWord(256<<10, 1)
	})
	if m.ReadWord(256<<10) != 1 {
		t.Fatal("the word did not land")
	}
	if got > 40<<10 {
		t.Fatalf("a fresh node memory plus one write at 256 KB allocated %d bytes, want <= 40 KB", got)
	}
	t.Logf("fresh NodeMemory + one write at 256 KB: %d bytes", got)
}

func TestModelBandwidths(t *testing.T) {
	// E6: the paper's datapath numbers — 8 GB/s to EDRAM, 2.6 GB/s to DDR
	// at 500 MHz.
	if bw := BusBandwidth(EDRAM, 500*event.MHz); bw < 7.9e9 || bw > 8.1e9 {
		t.Fatalf("EDRAM bus = %.3g B/s, want 8e9", bw)
	}
	if bw := BusBandwidth(DDR, 500*event.MHz); bw < 2.55e9 || bw > 2.65e9 {
		t.Fatalf("DDR bus = %.3g B/s, want 2.6e9", bw)
	}
}

func TestPrefetchStreamsAvoidPageMisses(t *testing.T) {
	// §2.1: a(x)*b(x) — two contiguous streams — runs at full bus speed;
	// more streams than the prefetcher covers pay page misses.
	bytes := 1 << 16
	two := StreamCycles(EDRAM, bytes, 2)
	ideal := float64(bytes) / EDRAMBusBPC
	if two != ideal {
		t.Fatalf("2-stream cycles = %v, want bus-limited %v", two, ideal)
	}
	three := StreamCycles(EDRAM, bytes, 3)
	if three <= two {
		t.Fatal("3 streams should pay page misses")
	}
	// Penalty magnitude: one page-miss per 128-byte row.
	wantPenalty := float64(bytes) / EDRAMRowBytes * PageMissCycles
	if got := three - two; got != wantPenalty {
		t.Fatalf("penalty = %v, want %v", got, wantPenalty)
	}
}

func TestKernelSlowerThanBus(t *testing.T) {
	for _, l := range []Level{EDRAM, DDR} {
		if KernelBPC(l) >= BusBPC(l) {
			t.Fatalf("%v kernel bandwidth must be below bus bandwidth", l)
		}
	}
	// DDR kernels are slower than EDRAM kernels: the basis of the ~30%
	// efficiency figure for spilled volumes (§4).
	if KernelBPC(DDR) >= KernelBPC(EDRAM) {
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

// TestBlockWordsMatchWordLoop holds ReadWords and WriteWords to the
// per-word loops they replace: runs that cross page boundaries, the
// EDRAM→DDR boundary and the end of DDR, on memories written word by
// word and block by block.
func TestBlockWordsMatchWordLoop(t *testing.T) {
	starts := []uint64{0, 8 * (pageWords - 3), EDRAMBytes - 8*5, DDRBase, DDRBase + pageBytes - 16, ddrEnd - 8*7}
	rng := rand.New(rand.NewSource(7))
	for _, start := range starts {
		for _, n := range []int{1, 3, 7, pageWords + 9} {
			if start+8*uint64(n) > ddrEnd {
				n = int((ddrEnd - start) / 8)
			}
			blk, ref := new(NodeMemory), new(NodeMemory)
			src := make([]uint64, n)
			for i := range src {
				src[i] = rng.Uint64()
			}
			blk.WriteWords(start, src)
			for i, w := range src {
				ref.WriteWord(start+8*uint64(i), w)
			}
			got, want := make([]uint64, n+4), make([]uint64, n+4)
			from := start - min(start, 16) // read a little either side
			if from+8*uint64(len(got)) > ddrEnd {
				got, want = got[:(ddrEnd-from)/8], want[:(ddrEnd-from)/8]
			}
			blk.ReadWords(from, got)
			for i := range want {
				want[i] = ref.ReadWord(from + 8*uint64(i))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("start %#x n %d: word %d at %#x = %#x, want %#x", start, n, i, from+8*uint64(i), got[i], want[i])
				}
			}
			if len(blk.ddr) != len(ref.ddr) {
				t.Fatalf("start %#x n %d: block writes installed a different DDR table", start, n)
			}
			for i := range ref.edram {
				if (blk.edram[i] == nil) != (ref.edram[i] == nil) {
					t.Fatalf("start %#x n %d: EDRAM page %d installed differently", start, n, i)
				}
			}
			for i := range ref.ddr {
				if (blk.ddr[i] == nil) != (ref.ddr[i] == nil) {
					t.Fatalf("start %#x n %d: DDR page %d installed differently", start, n, i)
				}
			}
		}
	}
}

func TestBlockReadOfUntouchedInstallsNothing(t *testing.T) {
	m := new(NodeMemory)
	dst := []uint64{1, 2, 3, 4}
	m.ReadWords(pageBytes-16, dst)
	m.ReadWords(DDRBase, dst[:2])
	if dst[0]|dst[1]|dst[2]|dst[3] != 0 {
		t.Fatalf("untouched memory read %v", dst)
	}
	for i, p := range m.edram {
		if p != nil {
			t.Fatalf("read installed EDRAM page %d", i)
		}
	}
	if m.ddr != nil {
		t.Fatal("read installed the DDR table")
	}
}

func TestBlockWordsPanicLikeWordLoop(t *testing.T) {
	m := new(NodeMemory)
	mustPanic(t, "memsys: unaligned word access at 0x3", func() { m.ReadWords(3, make([]uint64, 2)) })
	mustPanic(t, "memsys: unaligned word access at 0x400004", func() { m.WriteWords(DDRBase+4, []uint64{1}) })
	mustPanic(t, "memsys: address 0x8400000 beyond installed DDR (134217728 bytes)", func() { m.ReadWords(DDRBase+DDRBytes, make([]uint64, 1)) })
	end := DDRBase + DDRBytes - 16
	mustPanic(t, "memsys: address 0x8400000 beyond installed DDR (134217728 bytes)", func() { m.WriteWords(end, []uint64{7, 8, 9}) })
	if m.ReadWord(end) != 7 || m.ReadWord(end+8) != 8 {
		t.Fatal("words before the out-of-range one were not written, as the word loop writes them")
	}
}
