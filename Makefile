# Developer entry points. `make check` is the pre-commit gauntlet — the
# same stages CI runs: gofmt drift, vet, the full suite with a shuffled
# test order, the concurrency-sensitive packages (the sweep engine, the
# core runtimes, the failure-point checker, the kernel's device-reuse
# path, the sweep service and the public facade) under the race
# detector, a short fuzz smoke over the native fuzz targets, and the
# benchmark module's own tests (`make benchmark-test`: the pinned result
# digests, fleet ≡ in-process, and the profiled stage-function names).
# `make examples-smoke` runs every facade example (a non-zero exit
# fails). `make serve-smoke` boots the easeio-served daemon on a
# loopback port, pushes one sweep job through the HTTP API and verifies
# the result and the metrics endpoint. `make fleet-smoke` runs the
# distributed-fleet self-tests: the easeio-worker kill/restart smoke
# (coordinator + TCP workers, one killed mid-sweep) and the
# easeio-served HTTP smoke in fleet delegation mode. `make fuzz` runs the fuzzers with a longer
# budget for local exploration. `make ci` is the exact superset the CI
# workflow gates merges on (check plus a one-iteration bench smoke).

GO ?= go

# Per-target budget for `make fuzz`; the smoke in `make check` uses a
# fixed short budget so the gauntlet stays fast.
FUZZTIME ?= 30s

# Iterations for `make bench`; CI passes BENCHTIME=1x so the bench suite
# is compiled and exercised without paying for stable numbers.
BENCHTIME ?= 10x

.PHONY: build test race vet fmt fmt-check bench bench-all bench-gate benchmark-test fuzz fuzz-smoke nested-smoke examples-smoke serve-smoke fleet-smoke check ci loc

build:
	$(GO) build ./...

test:
	$(GO) test -short -shuffle=on ./...

# The benchmark harness is its own module (benchmark/go.mod) and compiles
# against internal APIs, so it is vetted separately.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

fmt:
	gofmt -w .

# Fails (listing the offenders) when any file needs gofmt.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

race:
	$(GO) test -race . ./internal/core ./internal/check ./internal/experiments/... ./internal/kernel/... ./internal/service/... ./internal/fleet ./internal/wire ./internal/obs

# -cpu 1 pins the benchmarks to one scheduler proc so numbers compare
# across machines and across runs on shared CI runners (the sweep
# benches are single-worker by design; GOMAXPROCS only adds scheduler
# noise to them).
bench:
	$(GO) test -run '^$$' -bench BenchmarkSweepThroughput -benchtime $(BENCHTIME) -cpu 1 .
	$(GO) test -run '^$$' -bench 'BenchmarkCheckThroughput/fig6' -benchtime $(BENCHTIME) -cpu 1 .
	$(GO) test -run '^$$' -bench 'BenchmarkTrace|BenchmarkRunTraced' -benchtime $(BENCHTIME) -cpu 1 ./internal/kernel
	$(GO) test -run '^$$' -bench BenchmarkFleetSweep -benchtime $(BENCHTIME) -cpu 1 ./internal/fleet

# Every benchmark in the module (slow; `make bench` is the curated cut).
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# The failing bench-regression gate: measure the pooled sweep rate with
# enough iterations for a stable-ish number (200 sweeps ≈ tens of ms of
# measured work — cheap, but far less noisy than the 1x compile smoke)
# and compare against the latest BENCH_sweep.json datapoint, then the
# checkpointed exhaustive weather check (3 counts of 2 s each, time-based
# like the ledger's own refresh command: a fixed 5 checks per count read
# 0.79-1.36x of the ledger in back-to-back runs of one tree) against the
# latest BENCH_check.json datapoint. Fails below 0.75x the
# tracked runs/s or points/s, or above +2 allocs/run (the checker ledger
# tracks no allocations). Both gates always run, so a failing sweep gate
# does not hide the checker gate; the target reports each gate's exit
# status and fails at the end if either failed. A PR that changes sweep
# or checker performance on purpose must refresh the ledger in the same
# PR (see the refresh command in its description).
bench-gate:
	sweep=0; check=0; \
	$(GO) test -run '^$$' -bench 'BenchmarkSweepThroughput/pooled' -benchtime 200x -count 3 -cpu 1 . | tee bench-gate.txt; \
	$(GO) run ./cmd/easeio-benchdiff -bench bench-gate.txt || sweep=$$?; \
	$(GO) test -run '^$$' -bench 'BenchmarkCheckThroughput/weather/checkpointed' -benchtime 2s -count 3 -cpu 1 . | tee -a bench-gate.txt; \
	$(GO) run ./cmd/easeio-benchdiff -bench bench-gate.txt -baseline BENCH_check.json \
		-name BenchmarkCheckThroughput/weather/checkpointed -key weather/checkpointed -unit points/s || check=$$?; \
	echo "bench-gate: sweep gate exit $$sweep, check gate exit $$check"; \
	[ $$sweep -eq 0 ] && [ $$check -eq 0 ]

# The benchmark harness is its own module (benchmark/go.mod), so the
# repository's `go test ./...` does not reach its tests.
benchmark-test:
	cd benchmark && $(GO) test ./...

# The native fuzz targets, as name:package pairs. `make fuzz` runs each
# for FUZZTIME; `make fuzz-smoke` is the same list at a 3s budget.
FUZZ_TARGETS = \
	FuzzParseRuntimeKind:. \
	FuzzEqualWords:./internal/mem \
	FuzzGrowMatchesFlat:./internal/mem \
	FuzzChargeMatchesSliced:./internal/kernel \
	FuzzClassify:./internal/dma \
	FuzzLint:./internal/frontend \
	FuzzSchedule:./internal/power \
	FuzzNestedScheduleEnumeration:./internal/check \
	FuzzCheckpointRoundTrip:./internal/wire \
	FuzzDecodeShard:./internal/wire \
	FuzzDecodeSubtreeShard:./internal/wire \
	FuzzComplete:./internal/fleet \
	FuzzDecodeRecord:./internal/fleet \
	FuzzOpenWAL:./internal/fleet

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "== $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=3s

# k=2 nested-failure smoke: fig6 must stay divergence-free under
# failure-during-recovery schedules for the runtimes the paper claims
# are crash-consistent (the Alpaca/InK baselines are expected to fail
# at depth 2 — CI captures their full report as an artifact instead).
# Then the two replay modes must render the whole app × runtime k=2
# matrix byte-identically. Alpaca and InK diverge by design, so each
# run's exit status is ignored; an empty output fails the comparison.
# Last, the seeded bug (fig6 with its privatization regions emptied,
# -broken) must still fail through the CLI: exit status 1 at k=1 and k=2.
nested-smoke:
	$(GO) run ./cmd/easeio-check -k 2 -exhaustive -runtime EaseIO
	$(GO) run ./cmd/easeio-check -k 2 -exhaustive -runtime JustDo
	@dir=$$(mktemp -d) && $(GO) build -o $$dir/easeio-check ./cmd/easeio-check && \
	{ $$dir/easeio-check -app all -runtime all -k 2 -exhaustive > $$dir/ckpt.txt; \
	  $$dir/easeio-check -app all -runtime all -k 2 -exhaustive -fromboot > $$dir/boot.txt; \
	  test -s $$dir/ckpt.txt && cmp $$dir/ckpt.txt $$dir/boot.txt && \
	  echo "nested-smoke: both replay modes render the k=2 matrix byte-identically" && \
	  { bad=0; for k in 1 2; do \
	      $$dir/easeio-check -app fig6 -broken -exhaustive -k $$k > /dev/null; s=$$?; \
	      if [ $$s -ne 1 ]; then echo "nested-smoke: easeio-check -app fig6 -broken -k $$k exited $$s, want 1"; bad=1; fi; \
	    done; \
	    test $$bad -eq 0 && echo "nested-smoke: the seeded bug (-broken) fails at k=1 and k=2"; }; }; \
	status=$$?; rm -rf $$dir; \
	exit $$status

# The library facade's runnable examples, each a short end-to-end run.
EXAMPLES = quickstart sensorlog firfilter weather camaroptera

examples-smoke:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

serve-smoke:
	$(GO) run ./cmd/easeio-served -smoke

fleet-smoke:
	$(GO) run ./cmd/easeio-worker -smoke
	$(GO) run ./cmd/easeio-served -smoke -fleet -wal $$(mktemp -u /tmp/easeio-fleet-smoke.XXXXXX.wal)

# Non-test Go lines under internal/, cmd/ and the module root: the size
# figure the ROADMAP's Recent entries quote.
loc:
	@(find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v _test.go) | xargs cat | wc -l

check: build fmt-check vet test race benchmark-test fuzz-smoke nested-smoke examples-smoke serve-smoke fleet-smoke

ci:
	$(MAKE) check
	$(MAKE) bench BENCHTIME=1x
	$(MAKE) bench-gate
