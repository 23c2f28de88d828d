GO ?= go

.PHONY: build test check lint sdpvet vet-json race portfolio-race cover bench bench-baseline bench-allocs benchdiff fuzz-smoke eco integration perfbench-smoke trace-diff clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails when any file needs gofmt or go vet flags an issue.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# sdpvet runs the repo's custom static analyzer (cmd/sdpvet): determinism,
# cancellation, parallel-safety, resource, telemetry, and durability
# invariants the compiler and -race cannot check. See docs/LINTING.md for
# the analyzer catalogue and the //sdpvet:ignore escape hatch.
sdpvet:
	$(GO) run ./cmd/sdpvet ./...

# vet-json prints sdpvet findings as a JSON array for editor and tooling
# integration; exit status is the same as `make sdpvet`.
vet-json:
	$(GO) run ./cmd/sdpvet -json ./...

# check is the gate CI and pre-commit should run: formatting, static
# analysis (go vet + sdpvet), then the suite under the race detector.
# -short skips the multi-minute paper-table reproductions (single-threaded
# solver runs that the race detector slows ~15x without adding coverage);
# run `make test` for those.
check: lint sdpvet
	$(GO) test -race -shuffle=on -short ./...

race:
	$(GO) test -race -shuffle=on -short ./...

# portfolio-race mirrors CI's portfolio determinism gate: every
# portfolio/cancellation test twice, shuffled, under the race detector —
# including the wall-clock scheduling acceptance test that -short skips.
# A race winner or contender status that depends on scheduler jitter
# fails here. See docs/PORTFOLIO.md.
portfolio-race:
	$(GO) test -race -shuffle=on -run 'Portfolio|Cancel' -count=2 ./...

# cover prints the per-function coverage summary; report-only, no threshold.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out

bench:
	$(GO) test -bench=. -benchmem

# bench-baseline refreshes the committed benchmark snapshot that CI's
# benchdiff and alloc-gate jobs compare against; the snapshot carries both
# the timing and the allocs/op + B/op columns. See docs/PERFORMANCE.md
# before updating.
bench-baseline:
	$(GO) run ./cmd/benchdiff run -o BENCH_baseline.json

# bench-allocs mirrors CI's hard alloc gate: one iteration per benchmark
# (allocation counts are deterministic, so one is enough), then a
# zero-tolerance comparison of allocs/op and B/op against the committed
# baseline. Timing is ignored entirely.
bench-allocs:
	$(GO) run ./cmd/benchdiff run -benchtime 1x -o BENCH_current.json
	$(GO) run ./cmd/benchdiff compare -gate allocs -baseline BENCH_baseline.json -current BENCH_current.json

# benchdiff runs the kernel benchmarks and compares against the committed
# baseline, failing on >25% ns/op regressions.
benchdiff:
	$(GO) run ./cmd/benchdiff run -o BENCH_current.json
	$(GO) run ./cmd/benchdiff compare -baseline BENCH_baseline.json -current BENCH_current.json

# fuzz-smoke gives each format-parser fuzz target a short native-fuzzing
# run (Go can only fuzz one target per invocation). The seeds always run
# under plain `make test`; this adds coverage-guided exploration on top.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/gsrc/ -run '^$$' -fuzz FuzzParseBlocks -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gsrc/ -run '^$$' -fuzz FuzzParseNets -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gsrc/ -run '^$$' -fuzz FuzzParsePl -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mcnc/ -run '^$$' -fuzz FuzzParseMCNC -fuzztime $(FUZZTIME)

# eco is CI's incremental-floorplanning gate: the differential/metamorphic
# ECO oracle, the MCNC corpus, and the service's ECO chain tests, twice
# under the race detector with shuffled order (warm-start reuse must not
# depend on test order or scheduling).
eco:
	$(GO) test -race -count=2 -shuffle=on -run 'ECO|MCNC|Incremental' ./...

# integration builds the real floorpland binary, starts it with -data-dir,
# submits a batch, SIGKILLs the daemon mid-solve, restarts it on the same
# journal, and asserts every job finishes exactly once. Behind a build tag
# because it spawns processes and takes seconds; plain `make test` skips it.
integration:
	$(GO) test -tags integration -count=1 -timeout 600s ./cmd/floorpland/

# perfbench-smoke mirrors CI's end-to-end benchmark gate: one traced pass
# of the repository benchmark's place-n10 workload (about 20 s). It fails
# when a floorplan fails the benchmark's independent check, or when the
# traced per-layer decomposition does not reproduce the untraced run's HPWL
# and iteration counts bit for bit. See perfbench/README.md.
perfbench-smoke:
	python3 perfbench/run.py --workload place-n10 --seed 1 --seconds 7 --trace 1

# trace-diff proves a refactor keeps solver telemetry byte-identical: it
# builds cmd/sdpfloor at BASE (a git revision, exported into a temp dir)
# and from the working tree, runs both with -trace over n10, n30 and ami33
# x -aspect 1 and 2 x SDPFLOOR_WORKERS 1 and 2, plus n10 with -method sa,
# qp, analytic, ar, pp and sdp-hier, strips the leading "ts":N, of every
# line (as trace.StripTS does) and exits non-zero on any difference.
# Portfolio is left out: its arrival order depends on timing. A developer
# check, not a CI gate: performance changes legitimately change traces.
# Usage: make trace-diff BASE=<rev> (about 4 minutes on 2 vCPUs).
trace-diff:
	@test -n "$(BASE)" || { echo "usage: make trace-diff BASE=<rev>"; exit 2; }
	sh scripts/trace-diff.sh $(BASE)

clean:
	$(GO) clean ./...
	rm -f BENCH_current.json cover.out
