GO ?= go

# Compile the benchmark binaries for the AVX2 microarchitecture level when
# the build host supports it: the masked word sweeps vectorize better, and
# the committed BENCH_1.json numbers are taken at the same level. Hosts
# without avx2 (or non-amd64) fall back to the toolchain default, and the
# host stamp in the report flags the difference.
AMD64LEVEL := $(shell grep -qm1 avx2 /proc/cpuinfo 2>/dev/null && echo v3)
ifneq ($(AMD64LEVEL),)
BENCH_ENV := GOAMD64=$(AMD64LEVEL)
endif

.PHONY: build vet staticcheck test race fuzz check vulncheck bench bench-check profile obs-overhead audit-overhead trace-overhead fabric-perf ckpt-soak serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Deeper static analysis than vet. Like govulncheck, the tool may be
# missing on offline dev boxes — skip gracefully there; CI installs it
# and gets the real run.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# The whole suite under the race detector — including the engine
# differentials (TestECCFastEqualsExact, the TickN equivalence suite), which
# are sized to stay in this pass rather than behind an opt-in gate.
race:
	$(GO) test -race ./...

# Short fuzz pass over the parsers (plan grammar, buffer-policy specs,
# end-to-end policy conservation) and over the two-mode tick engine's
# seams: the SEC-DED kernel against its bit-serial oracle, and the three
# targets that toggle ECC — arbitrary injection schedules, TickN batch
# splits × snapshot cuts with upsets in flight, and checkpoint cuts inside
# a dirty window.
fuzz:
	$(GO) test ./internal/fault -run FuzzFaultPlanParse -fuzz FuzzFaultPlanParse -fuzztime 30s
	$(GO) test ./internal/bufmgr -run FuzzParseSpec -fuzz FuzzParseSpec -fuzztime 30s
	$(GO) test ./internal/core -run FuzzPolicyConservation -fuzz FuzzPolicyConservation -fuzztime 30s
	$(GO) test ./internal/core -run FuzzECCKernel -fuzz FuzzECCKernel -fuzztime 30s
	$(GO) test ./internal/core -run FuzzSwitchTraffic -fuzz FuzzSwitchTraffic -fuzztime 30s
	$(GO) test ./internal/core -run FuzzTickN -fuzz FuzzTickN -fuzztime 30s
	$(GO) test ./internal/ckpt -run FuzzCheckpointCycle -fuzz FuzzCheckpointCycle -fuzztime 30s

# Known-vulnerability scan. Offline dev boxes may not have the tool (it
# needs network access to fetch the vuln DB anyway), so skip gracefully
# there; CI installs it and runs this unconditionally.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (CI runs it)"; \
	fi

# The gate every change must pass; referenced from README.md.
check: vet staticcheck build race vulncheck

# Microbenchmark smoke: every benchmark (Tick hot path, experiment
# shapes) a fixed number of iterations, with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100x ./...

# Observability overhead gate: the deterministic zero-alloc assertions
# (Tick must stay at 0 allocs/op with observability disabled AND with
# metrics enabled), the exporter golden files, and the opt-in wall-clock
# budget (enabled metrics ≥ 90% of disabled cells/sec on the 8×8 point).
obs-overhead:
	$(GO) test ./internal/core -run 'TestTickZeroAlloc'
	$(GO) test ./internal/obs -run 'Golden'
	PIPEMEM_OBS_OVERHEAD=1 $(GO) test ./internal/bench -run TestObsOverheadBudget -v

# Online-auditing overhead gate: the deterministic zero-alloc assertion
# (a full invariant audit on a warm switch allocates nothing) and the
# opt-in wall-clock budget (auditing every 64 cycles keeps ≥ 90% of the
# unaudited cells/sec on the 8×8 point — far hotter than the CLI's
# -audit defaults, so production cadences have wide margin).
audit-overhead:
	$(GO) test ./internal/core -run TestAuditZeroAlloc
	PIPEMEM_AUDIT_OVERHEAD=1 $(GO) test ./internal/bench -run TestAuditOverheadBudget -v

# Flight-tracing overhead gate: the deterministic half (the span JSONL
# schema golden file; the trace stream is byte-identical at every worker
# count; per-hop latencies reconcile with the end-to-end figure) and the
# opt-in wall-clock budget (1-in-64 sampled tracing keeps ≥ 90% of the
# untraced fabric cells/sec).
trace-overhead:
	$(GO) test ./internal/fabric -run 'TestFlightTrace|TestTelemetryRing'
	$(GO) test ./internal/trace ./internal/obs -run 'Test'
	PIPEMEM_TRACE_OVERHEAD=1 $(GO) test ./internal/bench -run TestTraceOverheadBudget -v

# Multistage-fabric throughput gate: the deterministic half (a steady
# fabric Step allocates nothing; the sharded engine is bit-identical to
# the sequential reference at every worker count) plus the opt-in
# wall-clock floor on the 1024-terminal butterfly.
fabric-perf:
	$(GO) test ./internal/fabric -run 'TestStepZeroAlloc|TestParallelBitIdentical'
	PIPEMEM_FABRIC_PERF=1 $(BENCH_ENV) $(GO) test ./internal/fabric -run TestFabricAggregateRate -v

# Crash-consistency soak: SIGKILL a checkpointing pmsim mid-run (three
# offsets past its first auto-checkpoint, tools built with -race) and
# require the -restore run to reproduce the uninterrupted output byte
# for byte. Also re-runs the short fuzz target over random checkpoint
# cycles.
ckpt-soak:
	PIPEMEM_CKPT_SOAK=1 $(GO) test -race ./internal/cmdtest -run TestCheckpointKillRestoreSoak -v -timeout 20m
	$(GO) test ./internal/ckpt -run FuzzCheckpointCycle -fuzz FuzzCheckpointCycle -fuzztime 30s

# Session-server smoke: exec the real pmserve binary (built with -race),
# drive a session over HTTP (create, step, free-run, pause), SIGTERM the
# server so the drain writes its checkpoint, restart, restore, and require
# the finished RunResult to match an uninterrupted served run byte for
# byte. Also re-runs the in-process determinism and race coverage for the
# serving layer.
serve-smoke:
	PIPEMEM_SERVE_SMOKE=1 $(GO) test -race ./internal/cmdtest -run TestServeSmoke -v -timeout 10m
	$(GO) test -race ./internal/srv ./internal/obs -timeout 10m
	PIPEMEM_SERVE_LOAD=1 $(BENCH_ENV) $(GO) test ./internal/bench -run TestServeLoadBudget -v

# Benchmark-regression gate: re-measure the standard pmbench points and
# compare against the committed BENCH_1.json — allocations are gated
# strictly (they are deterministic), cells/sec within a wide tolerance
# (wall clock on shared hosts is noisy; each point reports its best of
# several timed windows to shed co-tenant bursts). The report is
# rewritten with fresh results; the pre-PR baseline is carried forward,
# and a host mismatch against the recorded environment warns without
# failing.
# The shared hosts this runs on show bimodal scheduling noise (sustained
# ~2x-slower phases lasting tens of seconds), so the wall-clock tolerance
# is wide: a fast-phase baseline must still pass a slow-phase re-check.
# A return to the allocating hot path costs well over 3x even against the
# widened floor — and the allocation gate itself has no tolerance at all.
bench-check:
	$(BENCH_ENV) $(GO) run ./cmd/pmbench -json BENCH_1.json -check -tol 0.65 -reps 10

# CPU profile of the hot path: the tick-steady-8x8 regression point,
# measured exactly as bench-check measures it, with the pprof written
# under profiles/. Inspect with:
#   go tool pprof profiles/pmbench profiles/tick-steady-8x8.pprof
profile:
	@mkdir -p profiles
	$(BENCH_ENV) $(GO) build -o profiles/pmbench ./cmd/pmbench
	./profiles/pmbench -point tick-steady-8x8 -cpuprofile profiles/tick-steady-8x8.pprof -cycles 1000000
