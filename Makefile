GO ?= go

.PHONY: build test race lint staticcheck bench bench-engine bench-engine-smoke cluster-smoke advisor-smoke crash-smoke faultmix-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Whole-repo race gate: every package under the race detector, not
# just the targeted smokes, then the cache coalescing and wedge tests
# rerun 50 times and the simulator fork and figure fan-out tests 20
# times, since a scheduling-dependent flake there shows only across
# many runs. CI runs this as its own job.
race:
	$(GO) test -race -timeout 10m ./...
	$(GO) test -race -count=50 -timeout 10m -run 'Coalesce|Wedge|ContextBounds' ./internal/lru/
	$(GO) test -race -count=50 -timeout 10m -run 'Singleflight|Wedge' ./internal/simcache/
	$(GO) test -race -count=20 -timeout 10m -run 'TestFork' ./internal/loggopsim/
	$(GO) test -race -count=20 -timeout 20m -run 'TestFiguresInvariantToWorkerCount|TestFigureErrorOrder' ./internal/core/

# Lint pipeline (docs/LINT.md): vet with the lock-copy and atomic
# misuse analyzers called out explicitly (so a vet default change can
# never silently drop them), then full vet, then staticcheck when
# installed, then the repo's own ceslint suite.
lint:
	$(GO) vet -copylocks -atomic ./...
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs the pinned version)"; \
	fi
	$(GO) run ./cmd/ceslint ./...

# staticcheck is version-pinned and run in CI (.github/workflows/ci.yml);
# locally it is optional because the toolchain-only sandbox cannot
# install it.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; in a networked environment:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2024.1.1"; \
		exit 1; }
	staticcheck ./...

bench:
	$(GO) test -run=XXX -bench=BenchmarkRepeatedRuns -benchtime=300x .

# Engine hot-path benchmark record (docs/MODEL.md "Engine internals").
# Runs BenchmarkRepeatedRuns 8x at fixed iterations, takes the minimum
# per sub-benchmark (one-sided co-tenant noise) and rewrites
# BENCH_engine.json including the speedup vs BENCH_repeated.json's
# pre-rework baseline.
bench-engine:
	$(GO) run ./cmd/benchengine -out BENCH_engine.json

# CI variant: one short run into a scratch file, proving the tool and
# the benchmark still work without committing noisy numbers.
bench-engine-smoke:
	$(GO) run ./cmd/benchengine -benchtime 5x -count 1 -out /tmp/BENCH_engine_smoke.json

# In-process multi-node drill (docs/CLUSTER.md): coordinator + workers,
# bit-identity vs the sequential campaign, shard fault storm, worker
# kill mid-lease, cancellation mid-sweep — all under the race detector.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestDistributed|TestWorkerKillMidLease|TestCancelMidDistributedSweep|TestRequestIDsFlowThroughCluster' ./internal/cluster/

# Advisor smoke (docs/ADVISOR.md): boot the daemon stack, ingest the
# canned NDJSON CE stream, and require the recommendation to match the
# committed golden byte-for-byte — plus the permuted-ingest determinism
# and ingest-fault chaos drills. Regenerate the golden after an
# intentional policy change with:
#   go test -run TestAdvisorSmokeGolden ./internal/server/ -update-advisor-golden
advisor-smoke:
	$(GO) test -race -count=1 -run 'TestAdvisorSmokeGolden|TestAdviseIngestChaos' ./internal/server/
	$(GO) test -race -count=1 -run 'TestRecommendDeterminismPermutedBatches' ./internal/advise/

# Fault-mix smoke (docs/FAULTMODEL.md): a fixed-seed run of the two
# fault-mix figures byte-compared against the committed golden, the
# rerun bit-identity drill, and the mixture determinism contract
# (permuted mode order, shared-process goroutines) under the race
# detector. Regenerate the golden after an intentional model change:
#   go test -run TestFaultMixSmokeGolden ./internal/core/ -update-faultmix-golden
faultmix-smoke:
	$(GO) test -race -count=1 -run 'TestFaultMixSmokeGolden|TestFaultMixFiguresBitIdentical' ./internal/core/
	$(GO) test -race -count=1 -run 'TestPermutedModesBitIdentical|TestDeterministicReplay|TestProcessSharedAcrossGoroutines|TestAppendGapsMatchesNextGap' ./internal/faultmodel/
	$(GO) test -race -count=1 -run 'TestClosedLoop' ./internal/advise/

# Kill-and-restart acceptance (docs/DURABILITY.md): build the real
# cesimd binary, SIGKILL it mid-campaign (standalone with a journaled
# sweep in flight, and a coordinator mid-sweep with a live worker),
# restart over the same -data-dir, and require the recovered results to
# be bit-identical to a direct sequential computation.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashSmoke' ./cmd/cesimd/
