GO ?= go

# ci is the documented tier-1 gate: vet, the determinism/tier/pooling
# lint pass, build, the full test suite under the race detector, one
# iteration of every benchmark (so the benchmark-only files at the repo
# root are compiled AND executed), the goroutine-leak check, the sweep
# determinism check, the fault-injection determinism check, the lab
# artifact gate, a smoke run of every example binary, the benchmark
# module's vet and tests, and a short fuzzing pass over every config
# decoder and the go-back-N delivery property.
.PHONY: ci
ci: vet lint build race bench leak-check sweep-check fault-check lab-check examples perfbench-check fuzz-check

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs gofmt cleanliness plus the five pushpull-lint analyzers
# (walltime, globalrand, maprange, taskletblock, poolretain — see
# README "Static analysis"). Findings exit nonzero; acknowledged sites
# need a //pushpull:lint-allow <analyzer> <reason> directive.
.PHONY: lint
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "lint FAILED: gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) run ./cmd/pushpull-lint ./...
	@echo "lint OK"

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# bench runs every benchmark exactly once: a smoke pass, not a
# measurement (use `go test -bench . -benchtime 10x .` for numbers).
# The sweep includes BenchmarkTaskletSwitch and BenchmarkProcessSwitch,
# the pair BENCH_sim.json tracks for the two execution tiers.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# leak-check pins the engine-teardown contract: a sweep whose points
# exhaust their virtual-time budget (rank threads and protocol actors
# still parked) must return runtime.NumGoroutine to baseline — the
# regression test for the parked-goroutine leak Engine.Shutdown fixes —
# and idle interrupt-handler workers must unwind the same way.
.PHONY: leak-check
leak-check:
	$(GO) test ./internal/scenario -run 'TestSweepGoroutineLeak|TestRunShutdownAfterSuccess' -count=1
	$(GO) test ./internal/sim -run TestShutdown -count=1
	$(GO) test ./internal/smp -run TestShutdown -count=1

# perfbench-check vets and tests the benchmark (perfbench/), a Go module
# of its own that ./... does not reach, so an API change in the packages
# it drives fails here instead of at the next benchmark run.
.PHONY: perfbench-check
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# fuzz gives the go-back-N delivery property a short fuzzing budget.
.PHONY: fuzz
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzGoBackNDelivery -fuzztime 30s ./internal/gbn/

# fuzz-check fuzzes each config decoder (spec, sweep, study, fault plan)
# and the go-back-N delivery property for a few seconds apiece: decoding
# must return an error, never panic, and accepted input must re-encode
# byte-stably. Minimization is capped so a newly interesting input
# cannot spend the budget being shrunk; two workers keep memory small.
.PHONY: fuzz-check
fuzz-check:
	@for t in FuzzParseSpec:./internal/scenario FuzzParseSweep:./internal/scenario \
		FuzzParseStudy:./internal/lab FuzzParsePlan:./internal/fault \
		FuzzGoBackNDelivery:./internal/gbn; do \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}\$$" -fuzztime 4s -fuzzminimizetime 1s -parallel 2 "$${t#*:}" >/dev/null || { \
			echo "fuzz-check FAILED: $${t%%:*} (rerun it to see the failing input under testdata/fuzz)"; \
			exit 1; \
		}; \
		echo "fuzz-check OK ($${t%%:*})"; \
	done

# scenarios regenerates the builtin scenario results as JSON.
.PHONY: scenarios
scenarios:
	$(GO) run ./cmd/pushpull-scen run -out scenarios.json $$($(GO) run ./cmd/pushpull-scen list | awk '{print $$1}')

# digests recaptures the pinned builtin-scenario digests
# (internal/scenario/testdata/digests.json). Recapture is legitimate
# ONLY for wire-behavior changes — a protocol redesign, a cost-model
# change, a new builtin scenario; see README "Pinned digests". Review
# the diff: a digest that moves under a pure optimization is a bug.
.PHONY: digests
digests:
	$(GO) test ./internal/scenario -run TestBuiltinDigestsPinned -update -v

# examples builds and runs every example binary in its -short
# configuration. Each example drives its cluster under a virtual-time
# budget (cluster.RunWithin), so a protocol stall fails the smoke run
# with a nonzero exit instead of spinning forever.
.PHONY: examples
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d -short >/dev/null || exit 1; \
	done; \
	echo "examples OK"

# sweep-check proves parallelism never changes results: each builtin CI
# grid must produce the same aggregate digest on 1 worker and on a real
# worker pool. smoke-grid covers the point-to-point patterns; coll-smoke
# covers the collective family's algorithm axis; fault-smoke covers the
# faultPlans axis (degradation must be as deterministic as traffic);
# proto-grid covers the transport axes (procsPerNode, rtoMs, gbnWindow)
# on a lossy wire. The parallel leg pins 8 workers, not GOMAXPROCS: on a
# single-core CI box GOMAXPROCS resolves to 1 and would compare two
# serial runs, never exercising the pool at all.
.PHONY: sweep-check
sweep-check:
	@for sw in smoke-grid coll-smoke fault-smoke proto-grid; do \
		d1=$$($(GO) run ./cmd/pushpull-scen sweep -workers 1 -digest $$sw) || exit 1; \
		dn=$$($(GO) run ./cmd/pushpull-scen sweep -workers 8 -digest $$sw) || exit 1; \
		if [ "$$d1" != "$$dn" ]; then \
			echo "sweep-check FAILED: workers changed $$sw's aggregate digest"; \
			echo "  1 worker:  $$d1"; \
			echo "  N workers: $$dn"; \
			exit 1; \
		fi; \
		echo "sweep-check OK ($$sw): $$d1"; \
	done

# fault-check pins the fault-injection subsystem: the lossy/blackout
# suites run under the race detector, and every fault-family builtin
# must reproduce its digest byte-for-byte across two runs at two seeds —
# a fault plan that perturbs the engine's RNG stream or compiles
# nondeterministically breaks the diff immediately.
.PHONY: fault-check
fault-check:
	$(GO) test -race ./internal/fault ./internal/gbn -count=1
	$(GO) test -race ./internal/scenario -run 'TestFault|TestPeerUnreachable|TestBlackout' -count=1
	@for sc in blackout-recovery flaky-link-allreduce flapping-wavefront port-blackout-pipeline; do \
		for seed in 1 7; do \
			d1=$$($(GO) run ./cmd/pushpull-scen run -seed $$seed $$sc 2>&1 >/dev/null | sed -n 's/.*digest //p') || exit 1; \
			d2=$$($(GO) run ./cmd/pushpull-scen run -seed $$seed $$sc 2>&1 >/dev/null | sed -n 's/.*digest //p') || exit 1; \
			if [ -z "$$d1" ] || [ "$$d1" != "$$d2" ]; then \
				echo "fault-check FAILED: $$sc seed $$seed not reproducible ($$d1 vs $$d2)"; \
				exit 1; \
			fi; \
		done; \
		echo "fault-check OK ($$sc)"; \
	done

# lab-check pins the lab subsystem's two CI guarantees: (1) the smoke
# study's artifact body is byte-identical at 1 worker and 8 workers —
# the sweep-check guarantee extended to whole studies — and (2) a fresh
# capture matches the checked-in baseline under `pushpull-lab compare`
# (job digests exact, metrics within tolerance). A digest change here
# means the study ran a different computation; recapture via
# `make lab-baseline` is legitimate ONLY for the same wire-behavior
# changes that justify `make digests`.
.PHONY: lab-check
lab-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/pushpull-lab run -workers 1 -out "$$tmp/w1.json" smoke >/dev/null 2>&1 || exit 1; \
	$(GO) run ./cmd/pushpull-lab run -workers 8 -out "$$tmp/w8.json" smoke >/dev/null 2>&1 || exit 1; \
	$(GO) run ./cmd/pushpull-lab show -body "$$tmp/w1.json" > "$$tmp/w1.body"; \
	$(GO) run ./cmd/pushpull-lab show -body "$$tmp/w8.json" > "$$tmp/w8.body"; \
	if ! diff -q "$$tmp/w1.body" "$$tmp/w8.body" >/dev/null; then \
		echo "lab-check FAILED: workers changed the smoke artifact body"; \
		diff "$$tmp/w1.body" "$$tmp/w8.body" | head -20; \
		exit 1; \
	fi; \
	echo "lab-check OK: smoke artifact body byte-identical at 1 and 8 workers"; \
	$(GO) run ./cmd/pushpull-lab compare internal/lab/testdata/baseline-smoke.json "$$tmp/w1.json" || { \
		echo "lab-check FAILED: fresh smoke capture diverges from the checked-in baseline"; \
		exit 1; \
	}

# lab-baseline recaptures the checked-in smoke baseline artifact that
# lab-check compares against. Like `make digests`, recapture is
# legitimate ONLY for intentional wire-behavior or metric-schema
# changes — review the diff before committing it.
.PHONY: lab-baseline
lab-baseline:
	$(GO) run ./cmd/pushpull-lab run -workers 4 -out internal/lab/testdata/baseline-smoke.json smoke

# bench-capture appends one wall-clock capture of the tracked
# internal/sim microbenchmarks to the BENCH_sim.json series (the lab's
# replacement for hand-editing it after a -bench run).
# Pass a context line: make bench-capture COMMENT="what changed".
.PHONY: bench-capture
bench-capture:
	$(GO) run ./cmd/pushpull-lab gobench -comment "$(COMMENT)"
