# NUMARCK verification harness. `make verify` is the tier-1 recipe:
# build, go vet, the repo's own static analyzers, unit tests, the race
# detector over the goroutine-parallel paths, and a short fuzz smoke
# over the serialization parsers.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet lint lint-fix sarif docs test test-cpu race race-pipeline crash-test fuzz-smoke serve-smoke chaos-smoke verify bench bench-kernel bench-smoke

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/numarcklint ./...

# Apply the analyzers' suggested fixes (error-verb rewrites, stale
# suppression deletions), then report whatever remains.
lint-fix:
	$(GO) run ./cmd/numarcklint -fix ./...

# Lint with a SARIF 2.1.0 log on the side, for CI code-scanning
# annotations. Exit status still reflects unsuppressed findings.
sarif:
	$(GO) run ./cmd/numarcklint -sarif numarcklint.sarif ./...

# Documentation lint alone: fails when a package lacks a package
# comment or an exported identifier lacks a doc comment.
docs:
	$(GO) run ./cmd/numarcklint -only doccomment ./...

test:
	$(GO) test ./...

# The scheduler as a tested axis: the goroutine-parallel packages and
# everything that drives them (pipeline, store, daemon, benchmark,
# root façade) at GOMAXPROCS 1, 2 and 4. A property that holds only at
# the host's default GOMAXPROCS is not a property. -count defeats the
# test cache, so a green from an earlier lucky run can never stand in
# for this one.
test-cpu:
	$(GO) test -count=5 -cpu 1,2,4 ./internal/chunk ./internal/checkpoint ./internal/server ./cmd/numarckd ./bench .

race:
	$(GO) test -race ./...

# Focused race run over the goroutine-heavy pipeline and store packages
# with a higher -count: the bounded-worker pool and the crash-injection
# store are where interleavings actually vary between runs — at more
# than one GOMAXPROCS, since the ring's worker/emitter handshake only
# runs truly concurrently from 2 up.
race-pipeline:
	$(GO) test -race -count=3 -cpu 1,2,4 ./internal/chunk ./internal/checkpoint

# The seeded crash-consistency matrix: fault-injection unit tests plus
# the kill-at-every-mutating-op store matrices — checkpoint write,
# store create, and writer open (lock takeover + index republication) —
# and the salvage-decode tests. Deterministic (seeded schedules, no
# timing dependence) and fast enough to run on every change.
crash-test:
	$(GO) test -count=1 -run 'TestInjector|TestWriteFileAtomic|TestOS' ./internal/faultfs
	$(GO) test -count=1 -run 'TestCrash|TestRecoveryScan|TestDecodeRecover|TestRestartSalvage' ./internal/checkpoint
	$(GO) test -count=1 -run 'TestWriteFileCrashMatrix' ./internal/rawio

# One short burst per fuzz target; -run=NONE skips the unit tests so
# the smoke stays fast. Targets: bit-level pack/unpack round-trips, the
# word-at-a-time kernels against the per-field reference loops, the
# checkpoint parsers on corrupt input, and the degraded-mode decode.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzUnpackMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalDelta$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalDeltaV2$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalFull$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzRecoverDeltaV2$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzParseChainIndex$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint

# The checkpoint service end-to-end smoke, under the race detector: a
# 3-delta chain round-trips through the HTTP API byte-identical to the
# library path, /metrics reconciles bytes_written against the on-disk
# store, ?recover=1 salvages injected corruption, and over-capacity
# requests get 429 — plus the daemon's SIGTERM drain leaving a clean
# store.
serve-smoke:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestServeSmoke|TestServeAdmission|TestServeLocked|TestServeDrain' ./internal/server
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestDaemonGracefulDrain' ./cmd/numarckd

# The chaos matrix under the race detector: a fault-free baseline
# exchange (commits, a resumable upload, restart, reconstruction)
# fixes the store's canonical bytes, then every request index x every
# fault mode (refused, bare 503, cut mid-request, cut mid-response)
# reruns the exchange through the retrying client on a fresh server —
# and the store must end byte-identical, with one journal add per file
# and nothing left for the janitor. Seeded and sleep-free: the whole
# matrix stays inside a few seconds.
chaos-smoke:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestChaos' ./internal/server

verify: build vet lint docs test test-cpu race crash-test fuzz-smoke serve-smoke chaos-smoke

# The repo's benchmark is `go run ./bench` (BENCHMARK.json): four seeded
# workloads, end-to-end metrics on stdout; add `-trace 1` for the
# per-layer ladder, `-selfcheck N` for the A/A spread (bench/README.md).
# This target is what is left for `go test -bench`: the Go
# micro-benchmarks of the encode/decode/stream paths and the kernels.
bench:
	$(GO) test -run=NONE -bench='Encode|Decode' -benchmem .
	$(MAKE) bench-kernel

# The read side's kernels with ns/pt next to each: pack, unpack and the
# range check per index width, the reconstruct kernel per table size,
# and a depth-32 restart with its phases — at GOMAXPROCS 1 and 2, so the
# apply phase's fan-out shows as a win at 2 and no loss at 1.
KERNEL_BENCH = Pack|Unpack|FirstAbove|Reconstruct|RestartDepth32|RestartPhases
bench-kernel:
	$(GO) test -run=NONE -bench='$(KERNEL_BENCH)' -cpu 1,2 ./internal/bitpack ./internal/core ./internal/checkpoint

# One iteration of everything bench runs, for CI: catches bit-rot in
# the benchmark code without timing anything. (`go test ./bench` runs
# every workload of the repo's benchmark once, in the unit tests.)
bench-smoke:
	$(GO) test -run=NONE -bench='Encode|Decode' -benchtime=1x .
	$(GO) test -run=NONE -bench='$(KERNEL_BENCH)' -benchtime=1x ./internal/bitpack ./internal/core ./internal/checkpoint
