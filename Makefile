# Development targets. `make ci` is what the CI workflow runs on every
# PR: vet, staticcheck (when installed), the patch-soundness lint over
# all five benchmark workloads, build, and the full test suite under
# the race detector, twice (-count=2 defeats the test cache and catches
# order-dependent state; -race is load-bearing for the parallel
# experiment pipeline and the sharded simulator).

GO ?= go

.PHONY: ci vet staticcheck lint build test race chaos fuzz cover replay-gate trace-gate serve-gate repatch-gate bench-pipeline bench-replay bench-trace bench-codepatch-opt obsv-bench

ci: vet staticcheck build lint race chaos cover obsv-bench replay-gate trace-gate serve-gate repatch-gate

vet:
	$(GO) vet ./...

# staticcheck is optional locally (not everyone has it on PATH; we never
# auto-install); the CI workflow installs a pinned version so findings
# always gate merges.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs a pinned copy)"; \
	fi

# Patch-soundness lint: analysis.VerifyPatched / VerifyTrapPatched must
# prove every strategy's patched image sound for every benchmark. The
# custom vet suite (internal/edbvet) runs first: obsv nil-is-free
# contract, unregistered fault.Site literals, map iteration feeding
# report output.
lint:
	$(GO) run ./cmd/edbvet .
	@for b in gcc ctex spice qcd bps; do \
		echo "lint: $$b"; \
		$(GO) run ./cmd/minicc -benchmark $$b -lint || exit 1; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=2 ./...

# Chaos harness: the fault framework's own suite plus the differential
# harness and pipeline failure-mode tests — every injection site x kind
# x seed must either fail with a clean typed error or retry to results
# bit-identical to the fault-free baseline. Run under the race detector
# (fault plans are process-global; workers claim benchmarks
# concurrently).
chaos:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'TestChaos|TestWorkerPanic|TestContext|TestKeepGoing|TestRetry|TestPermanentFault|TestCacheDoesNotMemoise|TestCacheSurvives' ./internal/exp/
	$(GO) test -race -run 'TestV3|TestOpenStreamFaultInjection|TestReadRejects|TestWriteFaultInjection|TestCorruptionInjection|TestReadFaultInjection' ./internal/trace/
	$(GO) test -race -run 'TestServeChaos' ./internal/serve/

# Fuzz smoke: the binary-decoder fuzz targets over their checked-in
# corpora (truncated real workload traces / request envelopes +
# regression crashers) plus a short exploration budget each. CI runs
# this on every PR; run with a longer -fuzztime locally when touching
# either codec.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceRead -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzServeRequest -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzRepatchScript -fuzztime $(FUZZTIME) ./internal/core/codepatch/

# Coverage gate for the replay core's packages: statement coverage of
# internal/sim and internal/sessions must not fall below the recorded
# floors (set just under the flat-memory PR's levels — 95.0% / 100% at
# the time of recording, up from 88.6% / 98.2% before it). A new replay
# feature landing without property/oracle coverage fails here. The
# columnar trace store PR added internal/trace at a 90% floor (the
# corruption matrix + round-trip suites sit well above it); the
# interprocedural-analysis PR added internal/analysis at 90% (the
# dependence-map corruption matrix and interproc dataflow tests hold
# it above 92%). The incremental re-patching PR added
# internal/core/codepatch at 90% (the repatch property/metamorphic
# suite and fuzz corpus hold it above 92%).
cover:
	@set -e; \
	for spec in internal/sim:92.0 internal/sessions:99.0 internal/trace:90.0 internal/analysis:90.0 internal/core/codepatch:90.0; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./$$pkg/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: $$pkg: no coverage output (test failure?)"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || { \
			echo "cover: $$pkg coverage $$pct% fell below floor $$floor%"; exit 1; }; \
	done

# Replay-core regression gate: re-measures the phase-2 replay
# benchmarks against BENCH_replay_core.json and fails on a >10% ns/op
# regression or allocation growth (the static half — the committed
# numbers must show the flat rewrite's >=2x time / >=5x alloc win —
# runs inside the ordinary test suite). Like obsv-bench, wall-clock is
# gated at baseline*(1+REPLAY_SLACK); the shared-vCPU CI host class is
# noisy, so CI runs with the looser default below. Override on a quiet
# dedicated host: make replay-gate REPLAY_SLACK=0.10
REPLAY_SLACK ?= 0.25
replay-gate:
	EDB_REPLAY_BENCH=1 EDB_REPLAY_BENCH_SLACK=$(REPLAY_SLACK) $(GO) test -run TestReplayBenchGate -count=1 -v .

# Trace-store regression gate: re-measures both from-file replay paths
# (v2 read + in-memory one-pass replay vs v3 streamed replay, where
# block skip fires on none of the gate's blocks at one shard) on the
# sparse bps monitor set and fails unless the streamed path still runs
# at >=2x the v2 events/sec live, and within TRACE_SLACK of the
# committed BENCH_trace_store.json ns/op. The 2x ratio takes no slack
# (both sides are measured back-to-back on the same host); the
# regression check uses the same noisy-CI default as replay-gate.
# Regenerate the baseline with: EDB_REGEN_TRACE_BENCH=1 go test -run
# TestTraceBenchGate -count=1 .
TRACE_SLACK ?= 0.25
trace-gate:
	EDB_TRACE_BENCH=1 EDB_TRACE_BENCH_SLACK=$(TRACE_SLACK) $(GO) test -run TestTraceBenchGate -count=1 -v .

# Serving soak gate: boots a real edb-serve on a loopback listener and
# drives >=1000 hash-first submissions from 32 concurrent clients
# across 8 tenants and 8 distinct specs. Survivability is absolute
# (zero failed requests, zero result-hash inconsistencies, leak-free
# drain — no slack); only the p99 latency check takes SERVE_SLACK
# against BENCH_serve.json, with the loose CI default below because
# millisecond-scale HTTP p99s on a shared vCPU swing with scheduler
# noise. Override on a quiet dedicated host: make serve-gate
# SERVE_SLACK=0.25. Regenerate the baseline with:
# EDB_REGEN_SERVE_BENCH=1 go test -run TestServeBenchGate -count=1 .
SERVE_SLACK ?= 1.00
serve-gate:
	EDB_SERVE_BENCH=1 EDB_SERVE_BENCH_SLACK=$(SERVE_SLACK) $(GO) test -run TestServeBenchGate -count=1 -v .

# Incremental re-patching gate: re-measures a watch-set churn cycle and
# a live store rewrite against a stop-the-world rebuild (recompile,
# repatch, reverify, replay back to the pause point) on the fact-laden
# bps image, and fails unless both incremental paths still beat the
# rebuild by >=3x live and sit within REPATCH_SLACK of the committed
# BENCH_repatch.json ns/op. The 3x ratio takes no slack (both sides are
# measured back-to-back on the same host); the static half — the
# committed baseline must itself document the >=3x win — runs inside
# the ordinary test suite. Regenerate the baseline with:
# EDB_REGEN_REPATCH_BENCH=1 go test -run TestRepatchBenchGate -count=1 .
REPATCH_SLACK ?= 0.25
repatch-gate:
	EDB_REPATCH_BENCH=1 EDB_REPATCH_BENCH_SLACK=$(REPATCH_SLACK) $(GO) test -run TestRepatchBenchGate -count=1 -v .

# Observability disabled-path gate: re-measures the pipeline
# benchmarks with observation off against BENCH_pipeline.json and
# fails on regression. Allocation counts are the precision gate
# (deterministic per Go version; compared at ~0% tolerance — the
# disabled path must be a nil check, so a single stray allocation
# fails). Wall-clock is gated at baseline*(1+OBSV_SLACK): the test's
# strict default is 5%, but the shared-vCPU CI host class shows ±17%
# run-to-run noise, so CI runs with OBSV_SLACK=0.25 — tight enough to
# catch a real disabled-path slowdown, loose enough not to flake.
# Override on a quiet dedicated host: make obsv-bench OBSV_SLACK=0.05
OBSV_SLACK ?= 0.25
obsv-bench:
	EDB_OBSV_BENCH=1 EDB_OBSV_BENCH_SLACK=$(OBSV_SLACK) $(GO) test -run TestObsvBenchGate -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkSpanDisabled|BenchmarkEventDisabled|BenchmarkMetricsDisabled' -benchmem ./internal/obsv/

# Regenerate the parallel-pipeline baseline recorded in
# BENCH_pipeline.json / EXPERIMENTS.md.
bench-pipeline:
	$(GO) test -bench 'BenchmarkSimReplay|BenchmarkExpRun' -benchmem -run '^$$' .

# Regenerate the flat replay-core baseline recorded in
# BENCH_replay_core.json: the end-to-end engine matrix (with and
# without a shared prepass) plus the white-box prepass/replay-core
# split.
bench-replay:
	$(GO) test -bench 'BenchmarkSimReplay' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkPrepass$$|BenchmarkReplayCore' -benchmem -run '^$$' ./internal/sim/

# Regenerate the trace-store comparison recorded in
# BENCH_trace_store.json / EXPERIMENTS.md (the committed baseline file
# itself is rewritten by EDB_REGEN_TRACE_BENCH=1, not by this target).
bench-trace:
	$(GO) test -bench 'BenchmarkTraceReplayFile|BenchmarkTraceCodec' -benchmem -run '^$$' .

# Regenerate the CodePatch check-optimisation ablation recorded in
# BENCH_codepatch_opt.json.
bench-codepatch-opt:
	$(GO) test -bench 'BenchmarkLoopHoistAblation' -benchmem -run '^$$' .
