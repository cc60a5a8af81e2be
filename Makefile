# Standard gate: everything a change must pass before it lands.
# `make check` = vet + build + race-enabled tests + fuzz smoke.

GO ?= go

# How long the wire-format fuzz smoke runs inside `make check`: long
# enough to exercise the mutator past the seed corpus, short enough to
# keep the gate fast. `make fuzz FUZZTIME=5m` for a real soak.
FUZZTIME ?= 3s

.PHONY: check vet fuzz build test race bench bench-smoke bench-micro-smoke tables chaos fleet obs loc

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
# words and demands bit equality with the by-value oracle, and D†'s hop
# equal as values to γ5 D γ5's.
# FuzzQuietLinkSchedule runs generated SPMD programs with quiet link
# pairs fast-forwarding and frame by frame (DESIGN.md §9): counters,
# checksums, memory and final clock must agree.
# FuzzPlanPrefix holds the fault plan's draw order to prefix stability:
# zeroing every fault count after the k-th kind yields a prefix of the
# full plan.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/scupkt
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzLazyTimer$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzHopKernelBits$$' -fuzztime $(FUZZTIME) ./internal/latmath
	$(GO) test -run '^$$' -fuzz '^FuzzQuietLinkSchedule$$' -fuzztime $(FUZZTIME) ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzPlanPrefix$$' -fuzztime $(FUZZTIME) ./internal/faultplan

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo's benchmark and its one record (bench/README.md, declared in
# BENCHMARK.json): the five workloads at the default seed, result files
# in bench/out/. `bash bench/run.sh -workload NAME` is one run the way
# the regression gate makes it.
bench:
	bash bench/run.sh

# bench/ is its own module, so the root `go build ./...` and `go test
# ./...` never compile it: vet it, run its tests, and smoke all five
# workloads at tiny sizes, so an API slip in a package it imports shows
# here rather than in the benchmark run.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) -C bench run . -smoke

# One iteration of each root microbenchmark (bench_test.go: engine
# dispatch, the kernels serial and forked), so a change that breaks one
# fails on every push.
bench-micro-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

tables:
	$(GO) run ./cmd/benchtables

# Lines of Go by ROADMAP's rule — the number the "least code" north star
# tracks, and its budget: more non-test Go than LOC_BUDGET fails. bench/
# is its own module and counted apart.
LOC_BUDGET = 17673
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
# through HTTP). Both legs fast-forward quiet link pairs (a recorder
# watches and does not steer); the frame-by-frame word path is compared
# with the fast-forwarded one by TestQuietLinkMatchesPerFrame and
# TestQuietLinkKeepsLinkHistograms in the tier-1 tests (DESIGN.md §9).
obs:
	$(GO) run ./cmd/qcdoc fleet -addr 127.0.0.1:0 -verify -quiet \
		-machine 2,2 -lattices '4,4,4,4;4,4,4,8' -ops wilson,clover -workers 4
