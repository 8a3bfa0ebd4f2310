# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the full pre-push gate.

GO ?= go

.PHONY: build test race serve-test lint lint-baseline lint-mutations vet fmt-check golden check bench perf-smoke perfbench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# fmt-check fails if any shipped Go file is not gofmt-clean. Analyzer
# fixtures under testdata/ are exempt: their layout is part of what they
# test.
fmt-check:
	@files=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	 if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# serve-test runs the simulation-service suite under the race detector
# (DESIGN.md §9): concurrent determinism against direct Runner runs,
# single-flight collapse, cancellation partials, queue backpressure,
# graceful shutdown, the job storm, and the rack-cancellation contract
# the daemon depends on.
serve-test:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestRunRackCancelReturnsPartialHosts' .

# lint runs coaxlint (internal/lint): determinism, counter-hygiene, and
# observer-purity invariants, plus unitcheck's flow-sensitive
# clock-domain/dimension analysis, lockcheck's lock-set analysis,
# handlecheck's arena-handle lifetime analysis, and alloccheck's hot-path
# allocation analysis (DESIGN.md §6). Findings
# listed in .coaxlint.baseline (if present) are pre-existing and accepted;
# only new violations fail. Add -json for machine-readable output.
lint:
	$(GO) run ./cmd/coaxial-lint ./...

# lint-baseline regenerates the accepted-findings baseline. Run it only
# after deliberately accepting current findings, and review the diff.
lint-baseline:
	$(GO) run ./cmd/coaxial-lint -write-baseline ./...

# lint-mutations proves the analyzers still catch what they exist to
# catch: each suite plants real bugs (dimension slips, dropped unlocks,
# reordered arena releases, deleted ownership annotations, hot-path
# allocations) into the shipping sources via a load-time overlay and fails
# if any survive. The overlay reaches the compiler too, so the alloc cases
# are checked against its -m escape sites for the mutated source. The two
# -fix tests apply alloccheck's suggested fixes to planted bugs and check
# the rewritten source.
lint-mutations:
	$(GO) test -count=1 -run 'TestUnitCheckMutations|TestLockCheckMutations|TestHandleCheckMutations|TestAllocCheckMutations|TestAllocCheckCapacityHintFix|TestAllocCheckHoistFix' ./internal/lint/

# golden regenerates the golden result corpus after an intentional change
# to simulated numbers. Review the testdata/golden diff like code.
golden:
	$(GO) test -run TestGoldenResults -update .

# bench regenerates the performance snapshot (BENCH_OUT) in the
# BENCH_pr<N>.json schema via cmd/coaxial-bench: per-step benchmarks at a
# fixed iteration count, experiment-window benchmarks repeated so the
# fastest (least noise-polluted) run is recorded. Override BENCH_PR /
# BENCH_NOTE / BENCH_OUT when cutting a new snapshot; keep the note honest
# about what changed and how the numbers were taken.
BENCH_PR   ?= 10
BENCH_OUT  ?= BENCH_pr10.json
BENCH_BASE ?= BENCH_pr7.json
BENCH_NOTE ?= regenerated locally; see the checked-in snapshot for the PR-cut note
bench:
	@( $(GO) test -run '^$$' -bench 'BenchmarkSystemStep(Idle|Loaded)$$' -benchtime 2000000x -benchmem . ; \
	   $(GO) test -run '^$$' -bench 'BenchmarkRunWindow$$|BenchmarkRunWindowLoaded$$|BenchmarkRunWindowLoadedSampled$$|BenchmarkRunWindowPooled$$|BenchmarkRunWindowRack$$' -benchtime 15x -count 2 -benchmem . ) \
	 | tee /dev/stderr \
	 | $(GO) run ./cmd/coaxial-bench -pr $(BENCH_PR) -baseline $(BENCH_BASE) -note '$(BENCH_NOTE)' > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# perf-smoke is CI's hot-path regression tripwire: the loaded-window
# benchmark at reduced iterations must stay within 2x of the checked-in
# snapshot, in both time and (via -benchmem) allocations per op.
# Deliberately loose so scheduler noise does not flake the build.
perf-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRunWindowLoaded$$' -benchtime 3x -count 2 -benchmem . \
	 | $(GO) run ./cmd/coaxial-bench -check $(BENCH_OUT) -factor 2 -alloc-factor 2

# perfbench-gate is the repository benchmark's correctness gate: the
# perfbench module's own tests (it is a separate module, so `go test ./...`
# at the root skips it), then one short traced run per workload, each of
# which must end with "correct":true — its result digests match the pins in
# perfbench/pins.go. An internal-API break or a changed simulated result
# fails here.
perfbench-gate:
	$(GO) -C perfbench test ./...
	@for w in loaded idle rack2h serve_sweep; do \
	   last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1); \
	   case "$$last" in \
	     *'"correct":true'*) echo "perfbench $$w: correct" ;; \
	     *) echo "perfbench $$w: not correct: $$last"; exit 1 ;; \
	   esac; \
	 done

# check is the full pre-push gate. It ends with perfbench-gate because
# perfbench is its own module: `go test ./...` never builds it, so only the
# gate catches an internal API or behaviour change that breaks it.
check: vet fmt-check lint build test perfbench-gate
