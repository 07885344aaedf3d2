# Developer entry points. `make lint` is the same gate that
# `go test ./...` enforces through the repo-wide lint_test.go; running
# it directly gives faster, file:line-only feedback.

GO ?= go

.PHONY: all build test lint lint-strict lint-json lint-stats race race-engine fmt campaign-smoke bench-fast bench-thermal bench-layers crash-test serve-smoke chaos-test

all: build lint test

build:
	$(GO) build ./...

test: crash-test serve-smoke chaos-test
	$(GO) test ./...

# gofmt -l prints offending files but always exits 0; fail if it
# printed anything.
lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/r3dlint ./...

# Zero-tolerance gate for CI: every unsuppressed finding across the
# module fails the build (exit 1; exit 2 is a usage/load error). The
# plain `lint` target above is the same run plus gofmt/vet.
lint-strict:
	$(GO) run ./cmd/r3dlint ./...

# Machine-readable findings on stdout — the byte-stable JSON array that
# `-baseline` consumes. Exit code matches lint-strict, so CI can both
# gate and archive the report in one step:
#   make -s lint-json > findings.json || true
#   go run ./cmd/r3dlint -baseline findings.json ./...
lint-json:
	$(GO) run ./cmd/r3dlint -json ./...

# Per-analyzer cost report on stderr (wall time + finding counts) —
# where the suite's budget goes when a run feels slow. Exit code
# matches lint-strict.
lint-stats:
	$(GO) run ./cmd/r3dlint -stats ./...

# Race instrumentation slows the thermal suite well past the default
# 10-minute per-package limit; give the run the time it needs. (The
# full-suite byte-identity test skips itself under -race; the targeted
# concurrency tests below cover the parallel paths instead.)
race:
	$(GO) test -race -timeout 45m ./...

# Quick race pass over just the concurrent machinery: the experiment
# session's concurrency tests (engine-backed memoization, the thermal
# snapshot store's singleflight), the parallel thermal solver's banded
# sweeps, the run engine, the campaign worker pool (journal writes under
# commitState.mu) and the checkpoint crash/restore tests that race a
# snapshotter against live commits. The rest of the experiment suite is
# serial render code — `make race` covers it.
race-engine:
	$(GO) test -race -count=1 -run 'Concurrent|WorkerCount|Race' ./internal/experiment/
	$(GO) test -race -count=1 -run 'Solve|Precondition|SetPower|Clone' ./internal/thermal/
	$(GO) test -race -count=1 ./internal/runsched/ ./internal/campaign/ ./internal/ckpt/ ./internal/serve/
	$(GO) test -race -count=1 ./internal/iofault/ ./internal/backoff/ ./internal/chaos/

# Thermal solver microbenchmarks: one cold fine-grid solve, a warm
# re-solve from an already-converged field, and the production path
# (cold + coarse-grid preconditioner). Compare ns/op to see what the
# preconditioner buys per solve.
bench-thermal:
	$(GO) test -run - -bench 'BenchmarkSolve(Cold|Warm|Preconditioned)' -benchtime 3x ./internal/thermal/

# Simulator layer microbenchmarks, five runs each with allocation
# counts: trace generation (one op = one instruction), the bare leading
# core and the coupled RMT step (one op = one committed instruction),
# and a whole reliable system with set-up and a cold 20k-instruction
# window (one op = one system; its B/op is mostly the NUCA L2).
bench-layers:
	$(GO) test -run '^$$' -bench '^Benchmark(TraceGeneration|LeadingCore|CoupledCore|ReliableSystem)$$' -benchmem -count 5 .

fmt:
	gofmt -w .

# End-to-end harness smoke: a small grid (8 trials plus a deliberate
# livelock) journaled to disk, then resumed from the same journal. The
# resumed report must be byte-identical to the fresh one and the wedged
# self-test trial must be reported hung.
campaign-smoke: GRID = -bench gzip,mesa -seeds 2 -leadrates 40,80 -n 40000 \
	-workers 2 -livelock-trial -livelock-after 3000 -json
campaign-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/r3dfault $(GRID) -journal "$$tmp/run.jsonl" > "$$tmp/fresh.json" && \
	$(GO) run ./cmd/r3dfault $(GRID) -journal "$$tmp/run.jsonl" -resume > "$$tmp/resumed.json" && \
	cmp "$$tmp/fresh.json" "$$tmp/resumed.json" || { echo "campaign-smoke: resume not byte-identical"; exit 1; }; \
	grep -q '"status": "hung"' "$$tmp/resumed.json" || { echo "campaign-smoke: livelock trial not hung"; exit 1; }; \
	echo "campaign-smoke: OK"

# Crash-safety gate (runs as part of `make test`): SIGKILL a journaled,
# checkpointed campaign mid-run — no drain, no final flush — then
# restore and require the final aggregate to be byte-identical to an
# uninterrupted run of the same grid. Exercises the torn-tail journal
# recovery, the snapshot/journal offset handshake and the restore
# merge, end to end through the real binary.
crash-test: GRID = -bench gzip,mesa -seeds 2 -leadrates 40,80 -n 60000 -workers 2 -json
crash-test:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/r3dfault" ./cmd/r3dfault || exit 1; \
	"$$tmp/r3dfault" $(GRID) > "$$tmp/baseline.json" || exit 1; \
	"$$tmp/r3dfault" $(GRID) -journal "$$tmp/run.jsonl" -checkpoint "$$tmp/run.ckpt" -checkpoint-every 2 >/dev/null 2>&1 & pid=$$!; \
	for i in $$(seq 1 400); do \
		n=$$(wc -l < "$$tmp/run.jsonl" 2>/dev/null || echo 0); \
		[ "$$n" -ge 3 ] && break; \
		sleep 0.05; \
	done; \
	kill -9 $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
	lines=$$(wc -l < "$$tmp/run.jsonl"); \
	[ "$$lines" -lt 9 ] || { echo "crash-test: campaign finished before SIGKILL landed; enlarge the grid"; exit 1; }; \
	"$$tmp/r3dfault" $(GRID) -journal "$$tmp/run.jsonl" -checkpoint "$$tmp/run.ckpt" -restore > "$$tmp/restored.json" 2> "$$tmp/restore.err" || { echo "crash-test: restore failed"; cat "$$tmp/restore.err"; exit 1; }; \
	cmp "$$tmp/baseline.json" "$$tmp/restored.json" || { echo "crash-test: restored aggregate not byte-identical to uninterrupted run"; exit 1; }; \
	echo "crash-test: OK (SIGKILLed at $$lines journal lines, restore byte-identical)"

# Daemon robustness gate (runs as part of `make test`): drive a real
# r3dserve binary over HTTP through its full contract — submit a
# campaign grid, long-poll to completion, SIGTERM (must exit 0 after a
# clean drain); restart with -restore and verify the job joins as
# restored with byte-identical results; compute a second grid, SIGKILL
# once it reaches the on-disk job store, restore again, and require
# both grids byte-identical. The driver owns the temp state dir and
# process lifecycle; see cmd/r3dservesmoke.
serve-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/r3dserve" ./cmd/r3dserve || exit 1; \
	$(GO) run ./cmd/r3dservesmoke -daemon "$$tmp/r3dserve"

# Storage-fault chaos sweep (part of `make test`): 20 seeded fault
# schedules through every scenario — campaign run→kill→resume, serve
# submit→kill→restore, dead-device degraded serving, and a same-seed
# determinism cross-check. Any torn state, diverging aggregate,
# poisoned cache or unreproducible fault sequence fails the target with
# the fault log needed to replay it.
chaos-test:
	$(GO) run ./cmd/r3dchaos -seeds 20

# Engine smoke: the fast suite rendered serially and across $(nproc)
# workers must be byte-identical on stdout; the parallel run prints its
# engine counters (stderr) so cache hits and dedup are visible.
bench-fast:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/r3dbench" ./cmd/r3dbench && \
	"$$tmp/r3dbench" -fast -workers 1 > "$$tmp/w1.txt" && \
	"$$tmp/r3dbench" -fast -workers "$$(nproc)" -stats > "$$tmp/wN.txt" && \
	cmp "$$tmp/w1.txt" "$$tmp/wN.txt" || { echo "bench-fast: output differs across worker counts"; exit 1; }; \
	echo "bench-fast: OK (byte-identical at 1 and $$(nproc) workers)"
