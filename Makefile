# Standard gate: everything a change must pass before it lands.
# `make check` = vet + lint + build + race-enabled tests + fuzz smoke.

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

# The observability benchmark set (DESIGN.md §15): the zero-alloc
# histogram record, the telemetry on/off word-path comparison (link
# histograms enabled), and the full /metrics scrape path. Pinned in
# BENCH_obs.json.
BENCH_OBS_SET = ^(BenchmarkHistogramRecord|BenchmarkTelemetryOverhead|BenchmarkMetricsScrape)$$

# The chaos-recovery benchmark (DESIGN.md §16): the compound soak
# scenario end to end — detection, liveness probe, chunk retries,
# generation fallback, partition shrink, reconvergence — at workers=1
# and workers=8 with a cross-worker digest check every iteration.
# Pinned in BENCH_chaos.json.
BENCH_CHAOS_SET = ^BenchmarkChaosRecovery$$

.PHONY: check vet lint fuzz build test race bench bench-smoke bench-micro-smoke benchall tables chaos chaos-storm fleet obs loc

check: vet lint build race fuzz

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

# qcdoclint: the project's own analyzers, kept only for what no run
# catches — detflow (nondeterminism reaching a sink no digest compares)
# and crossalias (shard-local references crossing a shard boundary
# under the barrier, where -race sees nothing), interprocedurally
# through the package call graph. -tests lints in-package _test.go
# files too, and any stale or unknown waiver marker fails the run.
# DESIGN.md §11.
lint:
	$(GO) run ./cmd/qcdoclint -tests ./...

# Format fuzzing: Decode/Wire round-trip and single-bit-error detection
# on the SCU packet codec, and the checkpoint decoder's and generation
# manifest's typed-error / bounded-allocation contracts (what the
# recovery ladder trusts when it restores from a possibly-corrupt or
# torn storage plane). FuzzQueueOrder fuzzes the event queue's order
# contract: random event programs must dispatch in (at, seq) order;
# FuzzLazyTimer holds event.Timer to its eager reference model.
# FuzzHopKernelBits feeds the hop kernel fuzzer-chosen spinor and link
# words and demands bit equality with the by-value oracle.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/scupkt
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzLazyTimer$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzHopKernelBits$$' -fuzztime $(FUZZTIME) ./internal/latmath

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
	$(GO) test -run '^$$' -bench '$(BENCH_CHAOS_SET)' -benchmem -benchtime 1x -count=3 . \
		| $(GO) run ./cmd/benchjson -meta suite=chaos -o BENCH_chaos.json

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
LOC_BUDGET = 22600
NONTEST_LOC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
loc:
	@printf 'non-test Go: %s lines (budget $(LOC_BUDGET))\n' "$$($(NONTEST_LOC))"
	@printf 'test Go:     %s lines\n' "$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@printf 'bench/ Go:   %s lines\n' "$$(find ./bench -name '*.go' | xargs cat | wc -l)"
	@test "$$($(NONTEST_LOC))" -le $(LOC_BUDGET)

# Chaos gate: the E16 scenario under two fixed fault seeds, each run
# twice — qcdoc exits non-zero unless both runs of a seed produce the
# same outcome digest (injection, detection, isolation, restore, and
# re-convergence timing all bit-identical). DESIGN.md §12. The final
# run repeats seed 16 on the sharded engine with an 8-goroutine worker
# pool; its digest must match the serial runs above bit for bit
# (DESIGN.md §13).
chaos:
	$(GO) run ./cmd/qcdoc chaos -faultseed 16 -repeat 2 -quiet
	$(GO) run ./cmd/qcdoc chaos -faultseed 23 -repeat 2 -quiet
	$(GO) run ./cmd/qcdoc chaos -faultseed 16 -repeat 2 -quiet -workers 8
	$(MAKE) chaos-storm

# Recovery-storm matrix (DESIGN.md §16): compound second-order plans —
# checkpoint corruption, torn writes, a spurious death report, and a
# second death landing inside the recovery window. Seeds 1 and 19 must
# survive by climbing the ladder (chunk retry, generation fallback,
# partition shrink), twice serially plus once on the 8-worker sharded
# engine, all three digests bit-identical; -require-fallback and
# -require-shrink fail the gate if the ladder was not actually
# exercised. Seed 23 must exhaust retained generations and fail with
# the typed checkpoint error; the 2x2 run loses both nodes of its last
# power-of-2 partition and must fail with the typed partition error.
chaos-storm:
	$(GO) run ./cmd/qcdoc chaos -soak -faultseed 1 -repeat 2 -quiet \
		-verify-workers 8 -require-fallback -require-shrink
	$(GO) run ./cmd/qcdoc chaos -soak -faultseed 19 -repeat 2 -quiet \
		-verify-workers 8 -require-fallback -require-shrink
	$(GO) run ./cmd/qcdoc chaos -soak -faultseed 23 -repeat 2 -quiet \
		-expect-error checkpoint
	$(GO) run ./cmd/qcdoc chaos -machine 2,2 -faultseed 16 -recovery-crashes 1 \
		-max-attempts 6 -repeat 2 -quiet -expect-error partition

# Fleet gate: a 32-run chaos campaign — 16 fault seeds x 2 lattices, all
# 32 machines living in one process, scheduled over 8 campaign workers
# against a shared pool — then re-run serially with a fresh pool; every
# run's outcome digest must match bit for bit (DESIGN.md §14). The
# second leg is the chaos-storm campaign (DESIGN.md §16): the compound
# second-order preset across four seeds, where some runs survive by
# climbing the recovery ladder and some exhaust it with a typed error —
# both outcomes digest-verified serially.
fleet:
	$(GO) run ./cmd/qcdoc fleet -machine 2,2 \
		-lattices '4,4,4,4;8,4,4,4' \
		-faultseeds 3,5,7,9,11,13,16,17,19,21,23,27,31,37,41,43 \
		-workers 8 -verify -quiet
	$(GO) run ./cmd/qcdoc fleet -machine 2,2,2 -lattices '4,4,4,4' \
		-storm -faultseeds 1,16,19,23 -workers 8 -verify -quiet

# Observability gate: run an observed solve campaign behind the live
# /metrics /trace /fleet service, scrape our own endpoints, then re-run
# the identical campaign with observability fully off — `qcdoc serve
# -selfcheck` exits non-zero unless every digest is bit-identical (the
# zero-perturbation contract, DESIGN.md §15, proven through HTTP).
obs:
	$(GO) run ./cmd/qcdoc serve -selfcheck -quiet \
		-machine 2,2 -lattices '4,4,4,4;4,4,4,8' -ops wilson,clover -workers 4
