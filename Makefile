# Standard checks for the icpic3 repo.  `make check` is what CI should
# run: build, vet (of the root module and of the bench module), the
# gofmt gate, icplint, the full test suite, and the race detector over
# the concurrency-heavy packages.

GO ?= go

.PHONY: all build test test-race vet bench-vet fmt-check lint check fuzz-short bench-json bench-diff bench-smoke bench-module-test reuse-smoke clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector over everything is slow; focus it on the packages
# with real concurrency (service, the runner's portfolio, harness)
# plus their substrate.  Add packages here when they grow goroutines.
# ic3icp is left out: it spawns no goroutines.  The second line repeats
# the supervision paths (stall heartbeat, panics, cancellation, shutdown,
# the portfolio, budget signals) three times, since their timing varies
# from run to run.
test-race:
	$(GO) test -race ./internal/service/... ./internal/runner/... ./internal/engine/... ./internal/certify/... ./internal/harness/... ./internal/icp/...
	$(GO) test -race -count=3 -run 'Stall|Panic|Cancel|Shutdown|Portfolio|Budget' ./internal/service ./internal/runner ./internal/engine

# Machine-readable perf snapshot: runs the suite at workers=1 and
# workers=GOMAXPROCS and writes BENCH_<date>.json (see EXPERIMENTS.md).
# benchtab pins GOMAXPROCS=NumCPU itself (-procs 0), overriding whatever
# the environment exports, and records procs+workers in the JSON.
bench-json:
	$(GO) run ./cmd/benchtab -json -size 2 -budget 10s

# Compare two BENCH_<date>.json snapshots; exits 1 on a regression
# (fewer solved, new wrong verdicts, or a per-engine solved/sec drop
# beyond the tolerance).  Usage: make bench-diff OLD=BENCH_a.json NEW=BENCH_b.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# Fast perf/soundness smoke for CI: single-iteration benchmarks of the
# hot paths (solver, watched propagation and its guard-skip path, idle
# and productive revise, the endpoint and rounding kernels, the sin
# contractor, the model parser, a 24-step TNF unrolling, the property
# query, a satisfiable and an UNSAT F_∞ probe, kind and bmc on two suite
# models with both exact-trace exits firing) and the reduceDB
# invariance legs (verdicts must match with clause deletion off vs
# forced aggressive —
# see reduce_test.go and trigger_test.go).  The committed BENCH snapshot
# pairs are not diffed here: they are frozen files, and
# TestCommittedPairsPass (cmd/benchdiff, under `make test`) already runs
# benchdiff's checks on every pair at the same 0.10 tolerance.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SolverICP' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'PropagateWatched|PropagateGuardSkip|Revise|SumMulCorners' -benchtime=1x -benchmem ./internal/icp/
	$(GO) test -run '^$$' -bench 'InvSin|Outward|IntervalMulDiv' -benchtime=1x -benchmem ./internal/interval/
	$(GO) test -run '^$$' -bench 'Parse|CompileUnroll' -benchtime=1x -benchmem ./internal/ts/
	$(GO) test -run '^$$' -bench 'PropQuery|InfProbe' -benchtime=1x -benchmem ./internal/ic3icp/
	$(GO) test -run '^$$' -bench 'Unroll' -benchtime=1x -benchmem ./internal/bmc/
	$(GO) test -run 'TestReduceDBVerdictInvariance|TestTriggeredPushReduceInvariance|TestRetentionInvariance' -count=1 -v ./internal/ic3icp/

# The repository benchmark (bench/, see BENCHMARK.json) is a module of
# its own, so `go test ./...` at the root skips it.  -short runs the smoke
# of all four workloads, about 6 s.
bench-module-test:
	cd bench && $(GO) test -short .

# Certificate-reuse smoke (DESIGN.md §13): prove a tiny corpus, mutate
# one bound per instance, re-verify seeded from the stored certificate —
# benchtab exits 1 unless every lookup hits and every seeded verdict
# matches the cold run.  The service tests drive the same path through
# icpserve's -reuse wiring (store, metrics, persistence).
reuse-smoke:
	$(GO) run ./cmd/benchtab -reuse -size 1 -budget 5s
	$(GO) test -run 'TestReuse' -count=1 ./internal/service/

vet:
	$(GO) vet ./...

# The repository benchmark (bench/) is a module of its own that imports
# the engine, certify and service APIs, so `go vet ./...` at the root
# neither builds nor vets it.  vet type-checks and compiles it.
bench-vet:
	cd bench && $(GO) vet .

# Fails listing every tracked .go file that gofmt would rewrite.  Files
# under testdata/ are analyzer fixtures with hand-aligned `// want`
# comments, inputs rather than code, so they are left out.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '\(^\|/\)testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Project-specific analyzers (soundness, determinism, supervision
# invariants — see DESIGN.md §11).  Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/icplint ./...

# Short native-fuzzing smoke: each target gets a few seconds.  `go test`
# allows one -fuzz pattern per invocation, hence one line per target.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/expr/
	$(GO) test -run='^$$' -fuzz=FuzzEvalInterval -fuzztime=5s ./internal/expr/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/ts/
	$(GO) test -run='^$$' -fuzz=FuzzSystem -fuzztime=5s ./internal/ts/
	$(GO) test -run='^$$' -fuzz=FuzzSolveRetentionEquiv -fuzztime=5s ./internal/icp/
	$(GO) test -run='^$$' -fuzz=FuzzInvTrigEquiv -fuzztime=5s ./internal/interval/

check: build vet bench-vet fmt-check lint test test-race

clean:
	$(GO) clean ./...
