package fermion

import (
	"fmt"

	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
)

// Precision selects the arithmetic width of a benchmark kernel. The FPU
// is 64-bit either way (§2.1); single precision only halves the memory
// traffic — which is why the paper reports single precision as only
// "slightly higher" (§4).
type Precision int

const (
	// Double is 8-byte reals (the paper's headline numbers).
	Double Precision = iota
	// Single is 4-byte reals.
	Single
)

func (p Precision) String() string {
	if p == Single {
		return "single"
	}
	return "double"
}

// realBytes is the storage size of one real number.
func (p Precision) realBytes() float64 {
	if p == Single {
		return 4
	}
	return 8
}

// OpKind enumerates the benchmarked Dirac discretizations.
type OpKind int

const (
	WilsonKind OpKind = iota
	CloverKind
	AsqtadKind
	DWFKind
)

// Kinds lists all operator kinds in the paper's benchmark order.
func Kinds() []OpKind { return []OpKind{WilsonKind, AsqtadKind, CloverKind, DWFKind} }

func (k OpKind) String() string {
	switch k {
	case WilsonKind:
		return "wilson"
	case CloverKind:
		return "clover"
	case AsqtadKind:
		return "asqtad"
	case DWFKind:
		return "dwf"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// DefaultLs is the fifth-dimension extent assumed by the DWF cost
// descriptor.
const DefaultLs = 16

// Per-site operation counts, double precision, derived from the operator
// definitions (counts in reals; a complex multiply-add is four FPU
// fused-multiply-add slots):
//
//	Wilson: 8 directions x [spin project (12 adds) + SU(3) half-spinor
//	multiply (2 x 66 flops = 33 fma + ... ) + reconstruct] + final
//	accumulation = 1320 flops, ~840 FPU slots. Data: 8 links x 18 reals,
//	8 neighbour spinors x 24 reals in, 24 reals out.
//
//	Clover adds two 6x6 Hermitian color-spin blocks: 552 flops, ~300
//	slots, 72 reals of clover field per site.
//
//	ASQTAD: 16 SU(3) matrix-vector products (8 fat, 8 Naik) on color
//	vectors plus accumulations: 1146 flops, ~621 slots. Data: two link
//	fields (fat + long) and 16 neighbour vectors.
//
//	DWF (per 4-D site per s-slice): a Wilson hop plus the trivial
//	chiral-projector hops in s: 1416 flops, ~912 slots. The gauge field
//	is shared by all Ls slices, so its traffic is amortized by 1/Ls.
//
// PipelineFactor and MemoryFactor are the per-operator hand-tuned-
// assembly quality calibrations (relative to Wilson = 1.0); they are
// chosen once so the four operators land on the paper's measured
// anchors — Wilson 40%, ASQTAD 38%, clover 46.5%, DWF "expected to
// surpass clover" (§4) — and are *not* retuned per experiment. All
// other outputs of the model (DDR spill ~30%, single precision slightly
// above double, clock scaling, hard-scaling curves) are predictions.
// See EXPERIMENTS.md.
type opCounts struct {
	flops, fpuOps         float64
	loadReals, storeReals float64
	pipelineF, memoryF    float64
	commRealsPerFaceSite  float64 // per direction, per face site
	fieldRealsPerSite     float64 // CG working set (gauge + vectors)
}

func countsFor(kind OpKind, ls int) opCounts {
	switch kind {
	case WilsonKind:
		return opCounts{
			flops: 1320, fpuOps: 840,
			loadReals: 8*18 + 8*24, storeReals: 24,
			pipelineF: 1.0, memoryF: 1.0,
			commRealsPerFaceSite: 12, // one half spinor (6 complex)
			fieldRealsPerSite:    4*18 + 5*24,
		}
	case CloverKind:
		return opCounts{
			flops: 1872, fpuOps: 1140,
			loadReals: 8*18 + 8*24 + 72, storeReals: 24,
			pipelineF: 0.929, memoryF: 1.0,
			commRealsPerFaceSite: 12,
			fieldRealsPerSite:    4*18 + 5*24 + 72,
		}
	case AsqtadKind:
		return opCounts{
			flops: 1146, fpuOps: 621,
			loadReals: 2*8*18 + 16*6, storeReals: 6,
			pipelineF: 1.0, memoryF: 0.846,
			commRealsPerFaceSite: 3 * 6, // three boundary layers of color vectors (Naik)
			fieldRealsPerSite:    2*4*18 + 5*6,
		}
	case DWFKind:
		return opCounts{
			flops: 1416, fpuOps: 912,
			loadReals: 8*18/float64(ls) + 8*24 + 16, storeReals: 24,
			pipelineF: 0.851, memoryF: 1.0,
			commRealsPerFaceSite: 12, // per s-slice
			fieldRealsPerSite:    4*18/float64(ls) + 5*24,
		}
	default:
		panic(fmt.Sprintf("fermion: unknown operator kind %d", kind))
	}
}

// SiteCost returns the Dirac-operator cost per site (per s-slice for
// DWF, with DefaultLs) at the given precision and memory level.
func SiteCost(kind OpKind, prec Precision, level memsys.Level) ppc440.KernelCost {
	return siteCostLs(kind, prec, level, DefaultLs)
}

// DWFSiteCost returns the domain-wall cost per 4-D-site-per-slice for a
// specific Ls.
func DWFSiteCost(prec Precision, level memsys.Level, ls int) ppc440.KernelCost {
	return siteCostLs(DWFKind, prec, level, ls)
}

// kernelNames holds every dslash, axpy and dot name, formatted once.
var kernelNames = func() (n [DWFKind + 1][Single + 1][3]string) {
	for k := range n {
		for p := range n[k] {
			for i, what := range [3]string{"dslash", "axpy", "dot"} {
				n[k][p][i] = fmt.Sprintf("%s-%s-%s", OpKind(k), what, Precision(p))
			}
		}
	}
	return n
}()

func siteCostLs(kind OpKind, prec Precision, level memsys.Level, ls int) ppc440.KernelCost {
	c := countsFor(kind, ls)
	rb := prec.realBytes()
	return ppc440.KernelCost{
		Name:           kernelNames[kind][prec][0],
		Flops:          c.flops,
		FPUOps:         c.fpuOps,
		LoadBytes:      c.loadReals * rb,
		StoreBytes:     c.storeReals * rb,
		Streams:        9, // gauge + 8 neighbour gathers: gather regime
		Level:          level,
		PipelineFactor: c.pipelineF,
		MemoryFactor:   c.memoryF,
	}
}

// fieldReals is the length of the operator's fermion vector per site, in
// reals (spinor = 24, color vector = 6).
func fieldReals(kind OpKind) float64 {
	if kind == AsqtadKind {
		return 6
	}
	return 24
}

// AXPYCost is y += a*x on the operator's field type: an all-FMA
// streaming kernel the EDRAM prefetcher covers at bus bandwidth.
func AXPYCost(kind OpKind, prec Precision, level memsys.Level) ppc440.KernelCost {
	n := fieldReals(kind)
	rb := prec.realBytes()
	return ppc440.KernelCost{
		Name:       kernelNames[kind][prec][1],
		Flops:      2 * n,
		FPUOps:     n,
		LoadBytes:  2 * n * rb,
		StoreBytes: n * rb,
		Streams:    2,
		Level:      level,
	}
}

// DotCost is the local part of an inner product <x,y>.
func DotCost(kind OpKind, prec Precision, level memsys.Level) ppc440.KernelCost {
	n := fieldReals(kind)
	rb := prec.realBytes()
	return ppc440.KernelCost{
		Name:      kernelNames[kind][prec][2],
		Flops:     2 * n,
		FPUOps:    n,
		LoadBytes: 2 * n * rb,
		Streams:   2,
		Level:     level,
	}
}

// CGIterationCycles is the modelled per-site cost of one conjugate-
// gradient iteration on the normal equations: two operator applications
// (D and D†) plus the Krylov linear algebra (three axpy-class updates
// and two inner products). The phases run back to back, each in its own
// memory regime — the dslash gathers, the linalg streams through the
// prefetcher — so their cycle counts add.
func CGIterationCycles(cpu ppc440.CPU, kind OpKind, prec Precision, level memsys.Level) float64 {
	dslash := cpu.KernelCycles(SiteCost(kind, prec, level))
	axpy := cpu.KernelCycles(AXPYCost(kind, prec, level))
	dot := cpu.KernelCycles(DotCost(kind, prec, level))
	return 2*dslash + 3*axpy + 2*dot
}

// CGIterationFlopsPerSite is the useful flops of one CG iteration per
// site.
func CGIterationFlopsPerSite(kind OpKind) float64 {
	n := fieldReals(kind)
	return 2*FlopsPerSite(kind) + 3*(2*n) + 2*(2*n)
}

// CommBytesPerFaceSite is the data shipped to one neighbour per boundary
// site per operator application: a spin-projected half spinor for
// Wilson-type operators (12 complex numbers, §1's nearest-neighbour
// communication), three boundary layers of color vectors for ASQTAD
// (the third-nearest-neighbour Naik term the paper mentions), per
// s-slice for DWF.
func CommBytesPerFaceSite(kind OpKind, prec Precision) float64 {
	return countsFor(kind, DefaultLs).commRealsPerFaceSite * prec.realBytes()
}

// FieldBytesPerSite is the CG working set per site (gauge field plus
// solver vectors): what must fit in the 4 MB EDRAM for the high-
// efficiency numbers, and what pushes large local volumes into DDR (§4).
// For DWF this is per 4-D-site-per-slice.
func FieldBytesPerSite(kind OpKind, prec Precision) float64 {
	return countsFor(kind, DefaultLs).fieldRealsPerSite * prec.realBytes()
}

// WorkingSetLevel reports where a local volume's working set lives.
func WorkingSetLevel(kind OpKind, prec Precision, localSites int) memsys.Level {
	if memsys.FitsEDRAM(int(FieldBytesPerSite(kind, prec) * float64(localSites))) {
		return memsys.EDRAM
	}
	return memsys.DDR
}

// FlopsPerSite returns the useful flops of one operator application per
// site (per s-slice for DWF) — the numerator of every efficiency number
// in §4.
func FlopsPerSite(kind OpKind) float64 { return countsFor(kind, DefaultLs).flops }

// FieldReals is the per-site length of the operator's fermion vector in
// reals: 24 for spinors, 6 for staggered color vectors.
func FieldReals(kind OpKind) float64 { return fieldReals(kind) }
