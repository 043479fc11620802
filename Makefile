# Development targets. `make ci` is what the CI workflow runs on every
# PR: vet, staticcheck (when installed), the patch-soundness lint over
# all five benchmark workloads, build, and the full test suite under
# the race detector, twice (-count=2 defeats the test cache and catches
# order-dependent state; -race is load-bearing for the parallel
# experiment pipeline and edb-serve's worker pool).

GO ?= go

.PHONY: ci vet staticcheck lint build test race chaos fuzz cover gates bench-pipeline bench-replay bench-trace bench-codepatch-opt

ci: vet staticcheck build lint race chaos cover gates

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

# Lint: gofmt first (any file `gofmt -l` lists fails the target), then
# the custom vet suite (internal/edbvet: obsv nil-is-free contract,
# unregistered fault.Site literals, map iteration feeding report output,
# exported identifiers only their own tests use), then the
# patch-soundness lint: analysis.VerifyPatched / VerifyTrapPatched must
# prove every strategy's patched image sound for every benchmark.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
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
# regression crashers) plus a short exploration budget each, and
# FuzzServeRequestParity, which decodes each trace payload through
# both request entry points and requires the same verdict. CI runs
# this on every PR; run with a longer -fuzztime locally when touching
# either codec.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceRead -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzServeRequestParity -fuzztime $(FUZZTIME) ./internal/serve/
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

# Bench gates: one harness (gate_test.go) over one baseline schema.
# `make gate-<suite>` runs one suite: its correctness preflight, its
# rows measured best-of-three on this host, and every bar it declares —
# live ratios (both sides measured back to back), allocation and byte
# ceilings, and wall-clock within the suite's slack of its committed
# BENCH_*.json row. The slack is a constant in the suite table (0.25;
# serve p99 1.00 plus a 25 ms grace), so no make variable or regen can
# move it. A wall-clock check that fails against a baseline recorded on
# another host fails as "host mismatch" and prints both host stamps: it
# says nothing about the code until the baseline is re-recorded on this
# host at the parent commit (EDB_GATE=regen go test -run
# 'TestBenchGate/^<suite>$' -count=1 .), in a commit of its own. The
# recorded-only bars (the baseline itself documents each win) run in
# every `go test ./...`.
#
#   obsv     observation off costs a nil check: zero-alloc nil sinks,
#            warm pipeline rerun vs BENCH_pipeline.json
#   replay   flat replay core vs BENCH_replay_core.json
#   trace    streamed from-file replay vs BENCH_trace_store.json
#            (>=2x over v2 read+replay)
#   serve    1024-submission soak of a live edb-serve: zero failures,
#            zero inconsistencies, leak-free drain, p99 vs BENCH_serve.json
#   repatch  incremental re-patching vs stop-the-world rebuild (>=3x)
#            and BENCH_repatch.json
#   tracegen phase 1 of each workload at scale 1, after its trace
#            matches the pinned digest, vs BENCH_tracegen.json
#
# `make gates` runs every suite (a failing one does not stop the rest)
# and then prints the obsv disabled-path micro-benchmarks.
GATES := obsv replay trace serve repatch tracegen
gates:
	@fail=0; \
	for s in $(GATES); do $(MAKE) --no-print-directory gate-$$s || fail=1; done; \
	$(GO) test -run '^$$' -bench 'BenchmarkSpanDisabled|BenchmarkEventDisabled|BenchmarkMetricsDisabled' -benchmem ./internal/obsv/ || fail=1; \
	exit $$fail

gate-%:
	EDB_GATE=1 $(GO) test -run 'TestBenchGate/^$*$$' -count=1 -v .

# Regenerate the parallel-pipeline baseline recorded in
# BENCH_pipeline.json / EXPERIMENTS.md.
bench-pipeline:
	$(GO) test -bench 'BenchmarkGate/^replay$$' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkExpRun' -benchmem -run '^$$' .

# Regenerate the flat replay-core baseline recorded in
# BENCH_replay_core.json: the end-to-end engine matrix (with and
# without a shared prepass) plus the white-box prepass/replay-core
# split; then the prepassed-vs-streamed front-end comparison DESIGN §11
# quotes, on one core.
bench-replay:
	$(GO) test -bench 'BenchmarkGate/^replay$$' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkPrepass$$|BenchmarkReplayCore' -benchmem -run '^$$' ./internal/sim/
	$(GO) test -bench 'BenchmarkFrontEnd' -cpu 1 -benchmem -run '^$$' ./internal/sim/

# Regenerate the trace-store comparison recorded in
# BENCH_trace_store.json / EXPERIMENTS.md (the committed baseline file
# itself is rewritten by EDB_GATE=regen, not by this target).
bench-trace:
	$(GO) test -bench 'BenchmarkGate/trace' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkTraceCodec' -benchmem -run '^$$' .

# Regenerate the CodePatch check-optimisation ablation recorded in
# BENCH_codepatch_opt.json.
bench-codepatch-opt:
	$(GO) test -bench 'BenchmarkLoopHoistAblation' -benchmem -run '^$$' .
