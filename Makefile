# Standard gate: everything a change must pass before it lands.
# `make check` = vet + build + race-enabled tests + fuzz smoke.

GO ?= go

# How long the wire-format fuzz smoke runs inside `make check`: long
# enough to exercise the mutator past the seed corpus, short enough to
# keep the gate fast. `make fuzz FUZZTIME=5m` for a real soak.
FUZZTIME ?= 3s

# The pinned benchmark set tracked across allocation-path changes:
# engine dispatch (both tiers, and `backlog`: the solve's event pattern,
# 128 sources each re-arming a 50 us timer on every 144 ns step), one
# machine-wide reduction, the full functional Wilson solve, and the host
# kernels under it (reference Wilson / clover / domain-wall application
# in host-Mflops and ns/site, serial and with the site loops forked over
# a team, and a reference CGNE solve). `make bench`
# runs it with -benchmem so per-op allocation counts are part of the
# record, and writes the parsed results to BENCH_frames.json (one JSON
# entry per -count run).
BENCH_SET = ^(BenchmarkEngineDispatch|BenchmarkGlobalSumMachine|BenchmarkTelemetryOverhead|BenchmarkE1FunctionalWilson|BenchmarkWilsonDslash|BenchmarkCloverApply|BenchmarkDWFApply|BenchmarkForkedKernels|BenchmarkCGNEWilsonSolve)$$

# The parallel-engine benchmark set: the functional Wilson solve and the
# rack-scale halo-exchange loop, each at workers=1/4/8 on the sharded
# engine. Pinned separately in BENCH_parallel.json because the numbers
# only mean "speedup" on a multi-core host — on one core they measure
# the window-barrier overhead instead (README "Parallel engine").
BENCH_PARALLEL_SET = ^(BenchmarkE1FunctionalWilsonParallel|BenchmarkE11RackScale)$$

# The observability benchmark set (DESIGN.md §10): the zero-alloc
# histogram record, the telemetry on/off word-path comparison (link
# histograms enabled), and the full /metrics scrape path. Pinned in
# BENCH_obs.json.
BENCH_OBS_SET = ^(BenchmarkHistogramRecord|BenchmarkTelemetryOverhead|BenchmarkMetricsScrape)$$

.PHONY: check vet fuzz build test race bench bench-smoke bench-micro-smoke benchall tables chaos fleet obs loc

check: vet build race fuzz

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

# Format fuzzing: Decode/Wire round-trip and single-bit-error detection
# on the SCU packet codec, and the checkpoint decoder's and generation
# manifest's typed-error / bounded-allocation contracts (what the
# recovery ladder trusts when it restores from a possibly-corrupt or
# torn storage plane). FuzzQueueOrder fuzzes the event queue's order
# contract: random event programs must dispatch in (at, seq) order;
# FuzzLazyTimer holds event.Timer to its eager reference model.
# FuzzHopKernelBits feeds the hop kernel fuzzer-chosen spinor and link
# words and demands bit equality with the by-value oracle.
# FuzzJTAGDecode holds the Ethernet/JTAG command decoder to never
# panicking on a string payload, rejecting short payloads and
# re-encoding what it consumed. FuzzQuietLinkSchedule runs generated
# SPMD programs with quiet link pairs fast-forwarding and frame by frame
# (DESIGN.md §9): counters, checksums, memory and final clock must agree.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/scupkt
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzLazyTimer$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzHopKernelBits$$' -fuzztime $(FUZZTIME) ./internal/latmath
	$(GO) test -run '^$$' -fuzz '^FuzzJTAGDecode$$' -fuzztime $(FUZZTIME) ./internal/ethjtag
	$(GO) test -run '^$$' -fuzz '^FuzzQuietLinkSchedule$$' -fuzztime $(FUZZTIME) ./internal/machine

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count=5 . \
		| $(GO) run ./cmd/benchjson -meta suite=frames -o BENCH_frames.json
	$(GO) test -run '^$$' -bench '$(BENCH_PARALLEL_SET)' -benchmem -benchtime 3x -count=3 . \
		| $(GO) run ./cmd/benchjson -meta suite=parallel -o BENCH_parallel.json
	$(GO) test -run '^$$' -bench '$(BENCH_OBS_SET)' -benchmem -count=5 . \
		| $(GO) run ./cmd/benchjson -meta suite=obs -o BENCH_obs.json

benchall:
	$(GO) test -bench=. -benchmem ./...

# The repo's benchmark (bench/README.md) is its own module, so the root
# `go build ./...` and `go test ./...` never compile it: vet it, run its
# tests, and smoke all five workloads at tiny sizes, so an API slip in a
# package it imports shows here rather than in the benchmark run.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) -C bench run . -smoke

# One iteration of each pinned microbenchmark ($(BENCH_SET)), so the
# code the BENCH_frames.json records time runs on every push, not only
# when `make bench` re-records them.
bench-micro-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchtime 1x .

tables:
	$(GO) run ./cmd/benchtables

# Lines of Go by ROADMAP's rule — the number the "least code" north star
# tracks, and its budget: more non-test Go than LOC_BUDGET fails. bench/
# is its own module and counted apart.
LOC_BUDGET = 18833
NONTEST_LOC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
loc:
	@printf 'non-test Go: %s lines (budget $(LOC_BUDGET))\n' "$$($(NONTEST_LOC))"
	@printf 'test Go:     %s lines\n' "$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@printf 'bench/ Go:   %s lines\n' "$$(find ./bench -name '*.go' | xargs cat | wc -l)"
	@test "$$($(NONTEST_LOC))" -le $(LOC_BUDGET)

# Chaos gate: the E16 scenario (DESIGN.md §12) under two fixed fault
# seeds on the canonical 8-node machine, as a campaign that prints each
# run's recovery narrative and outcome digest, then re-runs both seeds
# serially with a fresh pool; qcdoc exits non-zero unless every digest
# (injection, detection, isolation, restore and re-convergence timing)
# is bit-identical. Both legs are dark, so their quiet link pairs
# fast-forward outside the fault windows (DESIGN.md §9).
chaos:
	$(GO) run ./cmd/qcdoc fleet -verify -machine 2,2,2 -lattices 4,4,4,4 -faultseeds 16,23

# Fleet gate: a 32-run chaos campaign — 16 fault seeds x 2 lattices, all
# 32 machines living in one process, scheduled over 8 campaign workers
# against a shared pool — then re-run serially with a fresh pool; every
# run's outcome digest must match bit for bit (DESIGN.md §14). The
# second leg is the recovery-storm campaign (DESIGN.md §16): the
# compound second-order preset (checkpoint corruption, torn writes, a
# spurious death report, a second death inside the recovery window) on
# the canonical machine across four seeds. Soak seeds 1 and 19 survive
# by climbing the recovery ladder; 16 and 23 exhaust it with the typed
# checkpoint error, which counts as survived-by-design. It prints every
# run's narrative and digest, failed runs included, and verifies them
# serially. Every leg is dark: quiet link pairs fast-forward.
fleet:
	$(GO) run ./cmd/qcdoc fleet -machine 2,2 \
		-lattices '4,4,4,4;8,4,4,4' \
		-faultseeds 3,5,7,9,11,13,16,17,19,21,23,27,31,37,41,43 \
		-workers 8 -verify -quiet
	$(GO) run ./cmd/qcdoc fleet -machine 2,2,2 -lattices '4,4,4,4' \
		-storm -faultseeds 1,16,19,23 -workers 8 -verify

# Observability gate: run an observed solve campaign behind the live
# /metrics /trace /fleet service, scrape our own endpoints, then re-run
# the identical campaign serially with observability fully off — `qcdoc
# fleet -addr -verify` exits non-zero unless every digest is
# bit-identical (the zero-perturbation contract, DESIGN.md §10, proven
# through HTTP). The observed leg runs frame by frame (its recorder keeps
# link pairs from fast-forwarding), the dark leg fast-forwards, so the
# gate also compares the two word paths (DESIGN.md §9).
obs:
	$(GO) run ./cmd/qcdoc fleet -addr 127.0.0.1:0 -verify -quiet \
		-machine 2,2 -lattices '4,4,4,4;4,4,4,8' -ops wilson,clover -workers 4
