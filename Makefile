# Tier-1 verification plus formatting/lint gates. `make check` is what CI
# (and every PR) must keep green; it would have caught the missing-go.mod
# breakage this target suite was introduced to prevent.

GO ?= go

.PHONY: check lint fmt vet build test test-race test-purego test-perfbench race bench scenarios doc-check linkcheck invariant-check

check: fmt vet build doc-check linkcheck invariant-check test test-race test-purego test-perfbench

# All static gates without the test suites — the fast pre-commit loop.
lint: vet doc-check linkcheck invariant-check

fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Every package must carry a package-level doc comment (role plus
# locking/ownership rules); tools/doccheck fails on undocumented ones.
doc-check:
	$(GO) run ./tools/doccheck ./internal ./basil ./cmd ./tools ./examples

# Documentation references — markdown links and anchors, repo paths in
# code spans, command flags — must resolve; tools/linkcheck fails on rot.
linkcheck:
	$(GO) run ./tools/linkcheck README.md ARCHITECTURE.md docs

# Project invariants go vet cannot see — lock discipline, log-before-
# externalize, error/goroutine hygiene, metrics tax and definition sites;
# tools/basilvet fails on unjustified violations (codes BV000-BV008,
# documented in ARCHITECTURE.md "Machine-checked invariants").
invariant-check:
	$(GO) run ./tools/basilvet ./internal/... ./basil ./cmd/...

test:
	$(GO) test ./...

# Transport concurrency (writer goroutines, background dialing, SendAll
# body sharing), client reply collection, the replica's parallel ingest
# pipeline, the striped store, the WAL's leader-based group commit, and the
# metrics record path (lock-free histograms hammered from many
# goroutines) must stay race-clean, along with the quorum tally/verifier
# paths, the bench harness that drives clusters from many client
# goroutines, the wire codec, and the signature pool; the crash-restart
# battery (race-scaled via the raceEnabled build tag) rides along so
# durability regressions are caught locally, as does the tracer (a
# lock-free span ring written by every component at once), the seeded
# fault-schedule determinism regression (internal/faults), and the
# scenario harness's smoke storms (internal/scenario, race-scaled via
# its Tuning), and the edwards25519 comb behind signature verification
# (its shared basepoint comb is built once, on first use, by whichever
# goroutine verifies first). A replica collects a transaction's state the
# moment a writeback finalizes it, so the races of ST1, ST2 and fallback
# requests against that writeback (and against its check, which reads the
# own-vote signature an ST1's signing keeps) run ten times, as do the replica's
# read-reply MAC-key cache (concurrent first reads from many client keys)
# and the client's read-validation tests, and so do the certificate
# checks that share one verifier, pool and pooled scratch across
# goroutines (internal/cryptoutil, internal/quorum). The WAL's group-commit leader
# hand-off (appenders piling up behind a held sync, Close and Checkpoint
# racing a leader) runs twenty times. The store's reference-oracle
# histories (the timestamp-located check against whole-history scans) and
# its concurrent stress storm (with a stats scraper walking the stripes
# under the shared lock) run five times. Runs as part of `make check`.
test-race:
	$(GO) test -race ./internal/transport/ ./internal/client/ ./internal/replica/ ./internal/store/ ./internal/wal/ ./internal/metrics/ ./internal/quorum/ ./internal/benchharness/ ./internal/types/ ./internal/cryptoutil/ ./internal/trace/ ./internal/faults/ ./internal/scenario/ ./internal/edwards25519/...
	$(GO) test -race -count=10 ./internal/replica/ -run RacingWritebackCollected
	$(GO) test -race -count=10 ./internal/replica/ ./internal/client/ -run '^TestRead'
	$(GO) test -race -count=10 ./internal/cryptoutil/ ./internal/quorum/ -run 'ConcurrentCertChecks'
	$(GO) test -race -count=20 ./internal/wal/ -run 'GroupCommit|LeaderSync|ConcurrentAppends'
	$(GO) test -race -count=5 ./internal/store/ -run 'Reference|ConcurrentStress'
	$(GO) test -race ./basil/ -run 'TestCrashRestart|TestRestartReplica|TestOverloadSheds'

# On amd64 the field multiply is assembly; the generic Go field code that
# other architectures run is tested here, along with the verifier on it.
test-purego:
	$(GO) test -tags purego ./internal/edwards25519/... ./internal/cryptoutil/

# perfbench/ is its own module, so `go build ./...` above never compiles
# it; vet and test it in place, so that renaming anything it imports
# from this module fails here rather than in the benchmark.
test-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The transport and codec tests are required to pass under the race
# detector (per-connection writer goroutines, reverse-route eviction).
race:
	$(GO) test -race ./internal/transport/ ./internal/types/ ./internal/cryptoutil/ ./basil/ -run 'TestTCP|TestWire|TestBatch'

# Perf trajectory: the WAL group-commit sweep (recorded to BENCH_wal.json — the fsync
# amortization curve across 1, 8 and 32 appenders), the
# checkpoint lifecycle ladder (recorded to BENCH_checkpoint.json —
# steady-state checkpoint cost must stay flat as history grows), the
# admission overload scenario (recorded to BENCH_admission.json — honest
# throughput under a line-rate spammer, unlimited vs bounded intake; see
# internal/benchharness/admission.go), the tracing experiment (recorded
# to BENCH_trace.json — per-stage p50/p99 from a fully sampled cluster
# plus the instrumentation tax, the signed-prepare pipeline bare vs live
# metrics vs a rate-0 tracer over rotating rounds, each within 2%; see
# internal/benchharness/tracefig.go), the store's 1-stripe vs 64-stripe
# prepare benchmark, and the wire-path benchmarks.
# The production-scenario matrix (internal/scenario): open-loop load,
# chaos storms (crash+WAL restart, slow disk, partition, equivocating
# replica, spam) and explicit SLO verdicts, recorded to
# BENCH_scenarios.json. Each scenario reproduces from its recorded seed
# (`-seed N`). A seeded smoke subset runs inside test/test-race.
scenarios:
	$(GO) run ./cmd/basil-bench -experiment scenarios -json $(CURDIR)/BENCH_scenarios.json

bench:
	$(GO) test ./internal/wal/ -run TestWriteWALBench -walbench $(CURDIR)/BENCH_wal.json -v -count=1
	$(GO) test ./internal/replica/ -run TestWriteCheckpointBench -checkpointbench $(CURDIR)/BENCH_checkpoint.json -v -count=1
	$(GO) test ./internal/benchharness/ -run TestWriteAdmissionBench -admissionbench $(CURDIR)/BENCH_admission.json -v -count=1
	$(GO) test ./internal/benchharness/ -run TestWriteTraceBench -tracebench $(CURDIR)/BENCH_trace.json -v -count=1
	GOMAXPROCS=4 $(GO) test ./internal/store/ -run xxx -bench 'BenchmarkPrepare' -benchtime=2000x
	$(GO) test ./internal/wal/ -run xxx -bench BenchmarkWALAppend -benchtime=1000x
	$(GO) test ./internal/types/ -run xxx -bench BenchmarkWireCodec
	$(GO) test ./internal/transport/ -run xxx -bench 'BenchmarkTCPTransport|BenchmarkTCPBroadcast'
