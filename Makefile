GO ?= go

.PHONY: build vet staticcheck cross test race fuzz check vulncheck bench pairs wallclock ckpt-soak serve-smoke loc

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

# The build off amd64: internal/traffic's eight-lane kernel is amd64
# assembly, and a !amd64 file stands in for it elsewhere. go vet on amd64
# already checks the assembly's frame and argument offsets (asmdecl).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/traffic

test:
	$(GO) test ./...

# The whole suite under the race detector — including the engine
# differentials (TestECCEqualsReference, the TickN equivalence suite), which
# are sized to stay in this pass rather than behind an opt-in gate.
# internal/core alone has run close to go test's default 10-minute
# per-package timeout beside the other packages on a 2-vCPU host, hence the
# explicit one.
race:
	$(GO) test -race -timeout 30m ./...

# Short fuzz pass over the parsers (plan grammar, buffer-policy specs,
# end-to-end policy conservation) and over the tick engine's fault seams:
# the SEC-DED kernel against its bit-serial oracle, the three targets that
# toggle ECC — arbitrary injection schedules, TickN batch splits × snapshot
# cuts with upsets in flight, and checkpoint cuts inside a dirty window, a
# drawn-ahead traffic gap or a CRC link's retransmission — and
# FuzzFaultUnderWave, every fault kind fired at a chosen stage of an
# in-flight read, write, write-through or multicast wave with the switch
# held to the §3 reference cycle by cycle.
# FuzzLinkState puts arbitrary bytes where a checkpoint keeps its link
# stage: refused on restore, or a session that runs on with the switch's
# invariants intact. FuzzCheckpointFile does the same to a whole file body
# under a recomputed header CRC, through Load and ResumeFrom. FuzzCellStreamHorizon drives
# the cell stream beside its frozen per-cycle reference (heads and State
# bytes at every cycle, restore at any); FuzzFirstBelowWide holds the
# eight-lane AVX-512 start-draw kernel to the two-lane Go loop for any
# generator state, threshold and run (it skips on a CPU without the
# kernel). FuzzNetConfig asks for multistage nets of arbitrary size:
# built or refused within a fixed allocation bound, and what builds
# survives saturation and Audit. FuzzOrganizations feeds
# arbitrary legal head schedules to all four memory organizations through
# the core.Organization contract: conservation after every Tick, every
# departure intact, a drain that empties within the bound. FuzzSessionConfig
# sends arbitrary bytes through pmserve's POST /sessions decoder and
# SessionConfig.Spec: a typed ErrBadSpec, or a session built within the
# per-session allocation budget. FuzzStepReply holds the step route's
# hand-written reply to encoding/json's bytes for any strings and integers,
# FuzzCyclesParam its ?cycles= shortcut to the URL.Query parse for any raw
# query. FuzzInjectBody sends arbitrary bytes to a trace session's /inject
# route: 200 with the rows appended, or a 400/409/413 with an error body,
# and the session, audited every cycle, steps on. FuzzTraceParse sends
# arbitrary span streams through pmtrace's Parse, Analyze and report: no
# panic, per-stage tables within MaxStages.
# The last three
# are the data-structure targets: the ring against a slice queue, the free
# list and multi-queue pair for leaks, cell checksums against single-word
# flips.
fuzz:
	$(GO) test ./internal/traffic -run FuzzCellStreamHorizon -fuzz FuzzCellStreamHorizon -fuzztime 30s
	$(GO) test ./internal/traffic -run FuzzFirstBelowWide -fuzz FuzzFirstBelowWide -fuzztime 30s
	$(GO) test ./internal/fault -run FuzzFaultPlanParse -fuzz FuzzFaultPlanParse -fuzztime 30s
	$(GO) test ./internal/bufmgr -run FuzzParseSpec -fuzz FuzzParseSpec -fuzztime 30s
	$(GO) test ./internal/core -run FuzzPolicyConservation -fuzz FuzzPolicyConservation -fuzztime 30s
	$(GO) test ./internal/core -run FuzzECCKernel -fuzz FuzzECCKernel -fuzztime 30s
	$(GO) test ./internal/core -run FuzzSwitchTraffic -fuzz FuzzSwitchTraffic -fuzztime 30s
	$(GO) test ./internal/core -run FuzzTickN -fuzz FuzzTickN -fuzztime 30s
	$(GO) test ./internal/core -run FuzzFaultUnderWave -fuzz FuzzFaultUnderWave -fuzztime 30s
	$(GO) test ./internal/ckpt -run FuzzCheckpointCycle -fuzz FuzzCheckpointCycle -fuzztime 30s
	$(GO) test ./internal/ckpt -run FuzzLinkState -fuzz FuzzLinkState -fuzztime 30s
	$(GO) test ./internal/ckpt -run FuzzCheckpointFile -fuzz FuzzCheckpointFile -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/fabric -run FuzzNetConfig -fuzz FuzzNetConfig -fuzztime 30s
	$(GO) test . -run FuzzOrganizations -fuzz FuzzOrganizations -fuzztime 30s
	$(GO) test ./internal/srv -run FuzzSessionConfig -fuzz FuzzSessionConfig -fuzztime 30s
	$(GO) test ./internal/srv -run FuzzStepReply -fuzz FuzzStepReply -fuzztime 30s
	$(GO) test ./internal/srv -run FuzzCyclesParam -fuzz FuzzCyclesParam -fuzztime 30s
	$(GO) test ./internal/srv -run FuzzInjectBody -fuzz FuzzInjectBody -fuzztime 30s
	$(GO) test ./internal/trace -run FuzzTraceParse -fuzz FuzzTraceParse -fuzztime 30s
	$(GO) test ./internal/fifo -run FuzzRing -fuzz FuzzRing -fuzztime 30s
	$(GO) test ./internal/fifo -run FuzzFreeListMultiQueue -fuzz FuzzFreeListMultiQueue -fuzztime 30s
	$(GO) test ./internal/core -run FuzzCellChecksum -fuzz FuzzCellChecksum -fuzztime 30s

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
check: vet staticcheck build cross race vulncheck

# Microbenchmark smoke: every benchmark (Tick hot path, experiment
# shapes) a fixed number of iterations, with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100x ./...

# Non-test Go lines (wc -l of the files go build compiles) per package
# under internal/, then for the whole repo — the measurement behind the
# fault-seam prices in DESIGN.md §7 and the internal/core line target on
# the ROADMAP — and last the lines of every _test.go file the test builds
# of `go list -test` compile, so a change that moves code into tests shows
# on both sides. A reading, not a gate.
loc:
	@$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}{{end}}' ./internal/... | \
		while read -r pkg files; do printf '%-28s %6d\n' "$${pkg#pipemem/}" "$$(cat $$files | wc -l)"; done
	@printf '%-28s %6d\n' total "$$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | xargs cat | wc -l)"
	@printf '%-28s %6d\n' tests "$$($(GO) list -test -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | tr ' ' '\n' | grep '_test\.go$$' | sort -u | xargs cat | wc -l)"

# Paired ledger runs against another revision — how a PR measures what it
# claims or must not cost: round i links PARENT's tree and the working tree
# at layout seed i (-ldflags=-randlayout=i), N rounds alternate which side
# runs first, and the ledger's own
# -compare judges the pairs (medians, quartiles, pairs won, verdict per
# metric and workload). WORKLOADS narrows a round from the whole ledger to
# one untraced pass of each named workload; RUN_SECONDS and SEED pass
# through; OUT keeps the result files. The exit status says the recipe ran,
# not that nothing regressed: read the table.
#   make pairs PARENT=HEAD~1 N=10 WORKLOADS="sw8-sparse sw8-sat"
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=<rev> [N=10] [WORKLOADS=\"...\"] [RUN_SECONDS=8] [SEED=42] [OUT=dir]"; exit 2; }
	RUN_SECONDS=$(RUN_SECONDS) SEED=$(SEED) OUT=$(OUT) scripts/pairs.sh $(PARENT) $(or $(N),10) $(WORKLOADS)

# The wall-clock gates, all behind one switch: the overhead table (an
# enabled metrics observer, a 64-cycle audit cadence and 1-in-64 flight
# tracing each keep >= 90% of the rate without them; a served session
# keeps >= 65% of the raw runner's) and the 1024-terminal fabric rate
# floor. They need an idle host, and -p 1 keeps the two packages from
# timing each other. Everything deterministic about these features
# (zero-alloc paths, golden files, bit-identity) is plain `make test`;
# absolute rates and per-layer costs are `go run ./benchmark`.
wallclock:
	PIPEMEM_WALLCLOCK=1 $(GO) test -p 1 ./internal/bench ./internal/fabric -run 'TestOverheadBudget|TestFabricAggregateRate' -v

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
# serving layer. (The served-vs-raw rate budget is a row of `make
# wallclock`.)
serve-smoke:
	PIPEMEM_SERVE_SMOKE=1 $(GO) test -race ./internal/cmdtest -run TestServeSmoke -v -timeout 10m
	$(GO) test -race ./internal/srv ./internal/obs -timeout 10m
