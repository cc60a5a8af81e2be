// Package qcdoc is a full-system reproduction of "QCDOC: A 10 Teraflops
// Computer for Tightly-coupled Calculations" (Boyle et al., SC 2004) as
// a Go library: a packet-level simulator of the QCDOC machine — the
// custom ASIC (PPC 440 compute model, prefetching EDRAM controller, DDR
// controller), the six-dimensional serial-link torus driven by the
// Serial Communications Unit, the Ethernet/JTAG management plane, the
// qdaemon/qos software stack — together with a real lattice-QCD
// application layer (SU(3) algebra, Wilson / clover / ASQTAD staggered /
// domain-wall Dirac operators, conjugate-gradient solvers, gauge
// evolution) that runs distributed on the simulated machine.
//
// Layout:
//
//	internal/geom        six-dimensional torus geometry, folds, partitions
//	internal/event       discrete-event simulation core
//	internal/hssl        bit-serial link model (training, faults)
//	internal/scupkt      SCU wire format (error-robust headers, checksums)
//	internal/scu         the Serial Communications Unit (§2.2)
//	internal/memsys      EDRAM/DDR memory system model (§2.1)
//	internal/ppc440      processor cost model (§2.1)
//	internal/node        the ASIC: one processing node
//	internal/machine     torus wiring, packaging, power (§2.4)
//	internal/ethjtag     management Ethernet + JTAG controller (§2.3)
//	internal/qos         node run kernel (§3.2)
//	internal/qdaemon     host daemon and qcsh (§3.1)
//	internal/qmp         user communications API (§3.3)
//	internal/latmath     SU(3)/spinor algebra, gamma matrices
//	internal/lattice     fields, decomposition
//	internal/fermion     the four Dirac discretizations + cost model (§4)
//	internal/solver      Krylov solvers
//	internal/hmc         quenched gauge evolution (heatbath)
//	internal/core        distributed QCD on the simulated machine
//	internal/perf        analytic model for paper-scale machines
//	internal/cost        §4 cost table and price/performance
//	internal/experiments one function per paper table/figure
//	cmd/qcdoc            runs every job: solves, chaos drills, campaigns
//	cmd/qdaemon          host daemon REPL (qcsh)
//	cmd/benchtables      prints every paper table as EXPERIMENTS.md's Markdown
//	examples/            runnable walkthroughs
//
// See DESIGN.md for the system inventory and experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package qcdoc
