# NUMARCK verification harness. `make verify` is the tier-1 recipe:
# build, go vet, the repo's own static analyzers, unit tests, the race
# detector over the goroutine-parallel paths, and a short fuzz smoke
# over the serialization parsers.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build fmt-check vet vet-386 test-386 golden-nofma lint test test-cpu race race-pipeline crash-test fuzz-smoke serve-smoke chaos-smoke verify bench bench-kernel bench-smoke loc

all: verify

build:
	$(GO) build ./...

# gofmt is the one layout: a file it would rewrite fails the gate, so a
# formatting drift is fixed where it is made, not in a later change.
fmt-check:
	test -z "$$(gofmt -l .)"

# The corpus generator builds only under -tags corpusgen, which
# `go vet ./...` skips; vet it by name so it cannot rot unseen.
vet:
	$(GO) vet ./...
	$(GO) vet -tags corpusgen ./internal/checkpoint

# The whole repo builds for a 32-bit target, and the codec, the
# distributed fit, the store and daemon packages, the netCDF reader and
# the root façade are vetted there: vet type-checks each package with its tests, so a constant or a
# comparison that a 32-bit int cannot hold fails here. numarcklint's
# analyzers build for 32-bit but need not run there.
VET386_PKGS = ./internal/bitpack ./internal/core ./internal/kmeans ./internal/dist ./internal/chunk ./internal/checkpoint ./internal/lossless/fpc ./internal/ncdf ./internal/server .
vet-386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet $(VET386_PKGS)

# The same packages' tests run as a 32-bit program (natively on amd64
# Linux), TestEncodeGoldenBytes among them: the encode writes the same
# bytes as on amd64. About 30 s on a 2-vCPU host (Go 1.24).
test-386:
	GOARCH=386 $(GO) test -count=1 $(VET386_PKGS)

# The encode goldens with the CPU's FMA switched off, which moves
# math.Exp on amd64 to another code path: the log-scale table must not
# follow it. About 4 s.
golden-nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run TestEncodeGoldenBytes ./internal/chunk

lint:
	$(GO) run ./cmd/numarcklint ./...

test:
	$(GO) test ./...

# The scheduler as a tested axis: the goroutine-parallel packages and
# everything that drives them (encode driver, pipeline, store, daemon,
# benchmark, root façade) at GOMAXPROCS 1, 2 and 4. A property that
# holds only at the host's default GOMAXPROCS is not a property.
# -count defeats the test cache, so a green from an earlier lucky run
# can never stand in for this one. It takes 3.1–3.6 min of wall time
# on a 2-vCPU host (Go 1.24), internal/server the longest package at
# about 3 min; its limit is 5 min, so that it stays in `make verify`.
test-cpu:
	$(GO) test -count=5 -cpu 1,2,4 ./internal/core ./internal/kmeans ./internal/chunk ./internal/checkpoint ./internal/server ./cmd/numarckd ./bench .

race:
	$(GO) test -race ./...

# Focused race run over the goroutine-heavy driver, pipeline and store
# packages with a higher -count: the encode driver's chunk ring, range
# split and table-fit ring (internal/core), the parallel Lloyd loop
# (internal/kmeans) and the crash-injection store are where
# interleavings actually vary between runs — at more than one
# GOMAXPROCS, since the ring's worker/emitter handshake only runs truly
# concurrently from 2 up. internal/chunk's TestPooledEncodeConcurrent
# runs here too: encodes of every shape at once, sharing core's pool
# of run scratch. The daemon rides along with the tests of what
# it shares between requests — series heads, a fetch racing the push
# that replaces the head it reads, the writer lease, the governor's
# holds — and the chaos matrix: about 45 s more on a 2-vCPU host
# (Go 1.24); the whole target takes about 7 min there.
RACE_SERVER = TestHeadIsRestart|TestHeadFetchRacesPush|TestNoLockAtRest|TestStorectlDuringLease|TestLeaseChecksLock|TestHeadsYieldToRequests|TestGovernorHolds|TestChaosMatrix
race-pipeline:
	$(GO) test -race -count=3 -cpu 1,2,4 ./internal/core ./internal/kmeans ./internal/chunk ./internal/checkpoint ./internal/dist
	$(GO) test -race -count=3 -cpu 1,2,4 -run '$(RACE_SERVER)' ./internal/server

# The seeded crash-consistency matrix: fault-injection unit tests plus
# the kill-at-every-mutating-op store matrices — checkpoint write,
# Writer.Append's commit group (three variables, deltas and fulls),
# store create, and writer open (lock takeover + index republication) —
# the Writer's retry and resume after a failed Append, and the
# salvage-decode tests. Deterministic (seeded schedules, no timing
# dependence) and fast enough to run on every change.
crash-test:
	$(GO) test -count=1 -run 'TestInjector|TestWriteFileAtomic|TestOS' ./internal/faultfs
	$(GO) test -count=1 -run 'TestCrash|TestRecoveryScan|TestDecodeRecover|TestRestartSalvage|TestWriterAppendRetry|TestResumeAfterHalfCommittedIteration' ./internal/checkpoint
	$(GO) test -count=1 -run 'TestWriteFileCrashMatrix' ./internal/rawio

# One short burst per fuzz target; -run=NONE skips the unit tests so
# the smoke stays fast. Targets: bit-level pack/unpack round-trips, the
# word-at-a-time kernels and the flag bit-range copy against the
# per-field and per-bit reference loops, the nearest-centroid index's
# resolved grid against the candidate grid it caches, the clustering
# fit's multiply-with-fallback seed cell against the division it
# replaces, the checkpoint parsers on corrupt input, and the
# degraded-mode decode.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzUnpackMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzCopyBitsMatchesReference$$ -fuzztime=$(FUZZTIME) ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzIndexNearestMatchesGrid$$ -fuzztime=$(FUZZTIME) ./internal/kmeans
	$(GO) test -run=NONE -fuzz=FuzzSeedCellMatchesDivision$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalDelta$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalDeltaV2$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalFull$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzRecoverDeltaV2$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzParseChainIndex$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint

# The checkpoint service end-to-end smoke, under the race detector: a
# 3-delta chain round-trips through the HTTP API byte-identical to the
# library path, /metrics reconciles bytes_written against the on-disk
# store, ?recover=1 salvages injected corruption, a flipped byte in any
# file of the series head's segment still reaches a head fetch as
# corrupt_store, and over-capacity requests get 429 — plus the daemon's
# SIGTERM drain leaving a clean store.
serve-smoke:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestServeSmoke|TestHeadFetchChecksBytes|TestServeAdmission|TestServeLocked|TestServeDrain' ./internal/server
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

verify: build fmt-check vet vet-386 lint test test-386 golden-nofma test-cpu race crash-test fuzz-smoke serve-smoke chaos-smoke

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
# fpc compress and decompress at both restart shapes, a cold read-only
# open of a 2 000-entry chain, and a depth-32 restart with its phases —
# at GOMAXPROCS 1 and 2, so the apply phase's fan-out shows as a win at
# 2 and no loss at 1. The encode rides along: the nearest-centroid
# lookup against a learned table, with and without its resolved grid,
# the clustering fit on a codec_large-sized table input, and the whole
# delta-file encode (root package, both entry points, up to
# codec_large's 524 288 points), whose B/op is what a warm encode
# allocates per call. Allocations are reported next to each.
KERNEL_BENCH = Pack|Unpack|FirstAbove|Reconstruct|Compress|Decompress|OpenReadOnly|RestartDepth32|RestartPhases|IndexNearest|FitClustering|EncodeDeltaFile
KERNEL_PKGS = ./internal/bitpack ./internal/core ./internal/kmeans ./internal/lossless/fpc ./internal/checkpoint .
bench-kernel:
	$(GO) test -run=NONE -bench='$(KERNEL_BENCH)' -benchmem -cpu 1,2 $(KERNEL_PKGS)

# One iteration of everything bench runs, for CI: catches bit-rot in
# the benchmark code without timing anything. (`go test ./bench` runs
# every workload of the repo's benchmark once, in the unit tests.)
bench-smoke:
	$(GO) test -run=NONE -bench='Encode|Decode' -benchtime=1x .
	$(GO) test -run=NONE -bench='$(KERNEL_BENCH)' -benchtime=1x $(KERNEL_PKGS)

# Non-test Go lines, counted the way ROADMAP.md counts them: every file
# `git ls-files '*.go'` lists, without _test.go files and testdata/.
# One line per package directory, then the five packages ROADMAP item 5
# sizes together, then the repo total.
LOC_SUM = internal/checkpoint internal/server internal/chunk internal/core internal/experiments
loc:
	@git ls-files '*.go' | grep -Ev '(_test\.go$$|(^|/)testdata/)' | xargs wc -l | sort -k2 | \
	awk -v sum="$(LOC_SUM)" '$$2 == "total" { next } \
		{ d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; if (!(d in pkg)) order[++n] = d; pkg[d] += $$1; all += $$1 } \
		END { for (i = 1; i <= n; i++) printf "%7d  %s\n", pkg[order[i]], order[i]; \
			k = split(sum, s, " "); t = 0; for (i = 1; i <= k; i++) t += pkg[s[i]]; \
			printf "%7d  internal/{checkpoint,server,chunk,core,experiments}\n%7d  total\n", t, all }'
