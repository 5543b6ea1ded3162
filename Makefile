# Build, test, and benchmark entry points for the heartshield repo.
#
#   make test         - tier-1 gate: build everything, run every test
#   make vet          - go vet static checks
#   make fmt          - fail if any file is not gofmt-clean
#   make staticcheck  - staticcheck ./... (skips with a notice if the
#                       binary is not installed; CI installs it)
#   make race         - race detector over the concurrent packages (the
#                       serving stack, including securelink's shared
#                       cookie and ticket sources), plus ten repeated
#                       runs of the request-table tests
#   make fuzz         - FUZZTIME smoke of every fuzz target
#   make ci           - exactly what each .github/workflows/ci.yml test
#                       job runs: fmt + vet + staticcheck + build + test
#                       + race + fuzz
#   make bench        - micro + end-to-end benchmarks; archives the run as
#                       BENCH_latest.txt (raw) and BENCH_latest.json (parsed)
#   make benchcheck   - CI perf gate: run the gated benchmarks
#                       BENCH_COUNT times and fail on a >$(BENCH_THRESHOLD)%
#                       median ns/op regression vs the checked-in
#                       BENCH_baseline.json
#   make benchbaseline- re-record BENCH_baseline.json (review the diff and
#                       explain it in the PR!)
#   make perfbench-check - repo-benchmark wall: perfbench (its own module)
#                       must vet, pass its tests, and report "correct":true
#                       on a one-second run of every workload (~15 s)
#   make ab           - paired A/B run of the repo benchmark: PAIRS
#                       alternating runs of WORKLOAD from BASE (exported
#                       under .bench_build/ab/) and from the working tree at
#                       seeds SEED, SEED+1, ...; prints every pair, each
#                       side's median and quartiles, the wins and the
#                       verdicts (cmd/perfab), keeps every run's report in
#                       .bench_build/ab/logs/, and fails on an exceeded
#                       bound or an incorrect run
#   make sim          - regenerate every paper table/figure (quick trial counts)
#   make golden       - re-record testdata/golden after an intentional physics
#                       change (review the diff!)
#   make golden-check - CI determinism gate: trial-check, then re-record golden
#                       files and fail if they drift from the checked-in ones
#   make trial-check  - CI trial-determinism gate: every experiment must render
#                       byte-identically at Workers=1 and Workers=8
#   make fuzz-nightly - the nightly deep-fuzz leg: the wire + dgram + securelink
#                       decoders for NIGHTLY_FUZZTIME each, growing the corpus
#   make seccheck     - adversarial handshake wall: forward-secrecy,
#                       key-compromise, replay, and version-rewrite attacks
#                       against a live server (internal/securelink/sectest)
#   make loc          - code-size report for the serving stack and the
#                       scenario packages: non-blank, non-comment,
#                       non-test Go lines per package + total (a report,
#                       not a gate)
#   make chaos-soak   - loop the overload/partition chaos walls for
#                       SOAK_DURATION seconds, appending to SOAK_latest.txt;
#                       fails on any iteration failure or if fewer than
#                       SOAK_SESSION_FLOOR sessions survived in total
#   make loadcheck    - fleet load gate: cmd/shieldtest drives LOAD_SESSIONS
#                       concurrent sessions (open barrier, zero failures
#                       tolerated) across LOAD_DAEMONS daemon processes,
#                       then a LOAD_SOAK_DURATION soak that must sustain
#                       LOAD_SESSIONS_FLOOR sessions/sec; fleet reports are
#                       written to FLEET_barrier.json / FLEET_soak.json
#   make docs-check   - documentation gate: every relative markdown link in
#                       the top-level docs must resolve, and the README
#                       quickstart commands must actually run
#   make cover        - coverage profile over the protocol stack (securelink +
#                       wire + dgram), printing the combined total
#   make covercheck   - CI coverage gate: fail if the combined securelink+wire
#                       coverage drops below the floor in COVER_baseline.txt
#   make coverbaseline- re-record COVER_baseline.txt (measured total minus a
#                       1-point churn margin; explain the refresh in the PR)

GO ?= go
FUZZTIME ?= 30s
NIGHTLY_FUZZTIME ?= 10m
BENCH_THRESHOLD ?= 25
# Runs per gated benchmark: benchjson gates on the median of these, so
# one noisy run can neither fail the gate nor land in the baseline.
BENCH_COUNT ?= 5
# Chaos-soak knobs: loop the overload/partition wall for SOAK_DURATION
# seconds (the nightly job sets 600) and require at least
# SOAK_SESSION_FLOOR sessions to have survived with byte-identical
# reports across all iterations. Each iteration runs SOAK_TESTS once,
# which exercises SOAK_SESSIONS_PER_ITER legitimate sessions (32 chaos
# + 4 flood + 6 partition + 3 shed + 1 reap); every one of them asserts
# its report matches the unloaded in-process run, so a passing
# iteration IS the survival proof.
SOAK_DURATION ?= 60
SOAK_SESSION_FLOOR ?= 46
SOAK_SESSIONS_PER_ITER ?= 46
SOAK_TESTS ?= TestChaos|TestFlood|TestPartition|TestShed|TestIdleReap|TestHandshake
# Fleet loadcheck knobs: the barrier leg proves LOAD_SESSIONS sessions
# concurrently open across LOAD_DAEMONS shieldd processes with zero
# failures and exact client/daemon counter reconciliation; the soak leg
# cycles sessions for LOAD_SOAK_DURATION and must sustain at least
# LOAD_SESSIONS_FLOOR sessions/sec (measured ~48/s on a 1-core dev box —
# the floor leaves a wide margin for slower CI runners). The generous
# LOAD_RETRY_TIMEOUT keeps CPU-saturation queueing on the datagram
# transport from being misread as loss: a spurious retransmit storm under
# a too-short timeout amplifies load until requests genuinely expire.
LOAD_DAEMONS ?= 2
LOAD_SESSIONS ?= 1000
LOAD_SOAK_DURATION ?= 30s
LOAD_SOAK_WORKERS ?= 32
LOAD_SESSIONS_FLOOR ?= 10
LOAD_RETRY_TIMEOUT ?= 90s
# staticcheck is pinned here (and only here): the workflow installs it via
# `make staticcheck-install`, so CI can never float to @latest on its own.
STATICCHECK_VERSION ?= 2024.1.1
# The benchmarks the perf gate watches (BENCH_PKGS): the exchange paths,
# the metrics-scrape path (which must stay allocation-bounded with ~1k
# live sessions for continuous scraping), the DSP kernel microbenchmarks
# at the sizes the simulation runs (256/8192-point FFT, 1024-point
# real-input FFT, 129-tap overlap-save FIR), and the modem's frame sync on
# a 12k-sample window, locked early and scanned whole, the Gaussian
# sampler per call and batched over a 4096-sample noise window, and the
# keyed per-trial scenario reseed, so a kernel regression is caught at
# the kernel, not three layers up in the exchange number.
BENCH_GATE = BenchmarkProtectedExchange$$|BenchmarkSessionExchange$$|BenchmarkBatchedExchange$$|BenchmarkSequentialExchanges$$|BenchmarkMetricsSnapshot$$|BenchmarkFFTForward256$$|BenchmarkFFTForward8192$$|BenchmarkRFFTForward1024$$|BenchmarkFIRPlan129Taps$$|BenchmarkFSKSync$$|BenchmarkFSKSyncNoLock$$|BenchmarkNormFloat64$$|BenchmarkAddComplexNormal4096$$|BenchmarkNewTrialAt$$
BENCH_PKGS = . ./internal/shieldd ./internal/dsp ./internal/modem ./internal/stats ./internal/testbed

# Every fuzz target in the repo as package:Fuzzname pairs.
FUZZ_TARGETS = \
	./internal/phy:FuzzParseFrame \
	./internal/phy:FuzzBitsRoundTrip \
	./internal/modem:FuzzReceiveFrame \
	./internal/wire:FuzzWireDecode \
	./internal/wire/dgram:FuzzDgramDecode \
	./internal/securelink:FuzzSecurelinkOpen \
	./internal/securelink:FuzzTicketRedeem

# The attack-surface decoders the nightly workflow fuzzes for 10 minutes
# each (everything that parses bytes off the network).
NIGHTLY_FUZZ_TARGETS = \
	./internal/wire:FuzzWireDecode \
	./internal/wire/dgram:FuzzDgramDecode \
	./internal/securelink:FuzzSecurelinkOpen \
	./internal/securelink:FuzzTicketRedeem

# The protocol-stack packages the coverage gate watches: everything that
# parses or seals bytes off the network. The profile is driven by their
# own tests plus the shieldd + faultnet suites (the chaos wall is what
# actually exercises the receive window and the datagram framing).
COVER_PKGS = heartshield/internal/securelink,heartshield/internal/wire,heartshield/internal/wire/dgram
COVER_TEST_PKGS = ./internal/securelink ./internal/securelink/sectest ./internal/wire/... ./internal/shieldd ./internal/faultnet

.PHONY: all build test vet fmt staticcheck staticcheck-install race fuzz fuzz-nightly chaos-soak loadcheck seccheck loc ci bench benchcheck benchbaseline perfbench-check ab sim golden golden-check trial-check docs-check cover covercheck coverbaseline clean

# The markdown files the docs gate link-checks.
DOCS_FILES = README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md PAPER.md

all: test vet

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs it via make staticcheck-install)"; \
	fi

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# The request tables get a repeated leg of their own: the client's
# pending calls (and their retry state) are shared under one mutex by
# submitters, the read loop and the retransmit loop, and a session's
# ledger by its reader, writer and executor. So does a session's world,
# which its executor builds on the first physics request and its
# teardown returns to the pool.
RACE_REPEAT_TESTS = TestPipelined|TestLedgerRules|TestLateRetransmitFillsGap|TestCompletedCallLeavesRetrySchedule|TestSessionMatchesInProcessSimulation|TestWorldlessSessionPoolsNothing|TestBusyFirstExchangeBuildsNoWorld
race:
	$(GO) test -race ./internal/shieldd/... ./internal/securelink/... ./internal/experiments/... ./internal/faultnet ./internal/wire/dgram
	$(GO) test -race -count=10 -run '$(RACE_REPEAT_TESTS)' ./internal/shieldd
	$(GO) test -race -run TestExperimentWorkerDeterminism -count=1 .
	$(GO) test -race -run 'Plan|RandSource|Stream|Receive|Demod|Sync' ./internal/dsp ./internal/stats ./internal/modem

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzzing $$fn in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

fuzz-nightly:
	@set -e; for t in $(NIGHTLY_FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "nightly fuzzing $$fn in $$pkg for $(NIGHTLY_FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(NIGHTLY_FUZZTIME) $$pkg; \
	done

# The adversarial handshake wall: the sectest suite mounts the
# forward-secrecy, key-compromise, replay, and downgrade (version
# rewrite, key-share substitution) attacks against a live server —
# including the leg that must keep SUCCEEDING against a PSK-only
# recording of a real handshake, proving the attacker model has teeth.
seccheck:
	$(GO) test -count=1 -timeout 5m ./internal/securelink/sectest

# Code-size report: Go lines that are neither blank, nor // comments,
# nor in _test.go files, per serving-stack and scenario package plus a
# total. Changes that claim to shrink the code quote it for the parent
# and the change.
LOC_PKGS = internal/shieldd internal/wire internal/wire/dgram internal/securelink internal/securelink/sectest internal/metrics internal/loadgen internal/testbed internal/experiments heartshield.go registry.go serve.go
loc:
	@total=0; for p in $(LOC_PKGS); do \
		if [ -d $$p ]; then files=$$(ls $$p/*.go | grep -v '_test\.go$$'); else files=$$p; fi; \
		n=$$(cat $$files | grep -c -v -E '^[[:space:]]*(//.*)?$$'); \
		total=$$((total + n)); printf '%-28s %6d\n' $$p $$n; \
	done; printf '%-28s %6d\n' total $$total

ci: fmt vet staticcheck build test race fuzz

chaos-soak:
	@end=$$(( $$(date +%s) + $(SOAK_DURATION) )); iter=0; sessions=0; \
	echo "chaos soak: $(SOAK_DURATION)s budget, floor $(SOAK_SESSION_FLOOR) sessions" > SOAK_latest.txt; \
	while [ $$(date +%s) -lt $$end ]; do \
		iter=$$((iter+1)); \
		echo "--- soak iteration $$iter ---" | tee -a SOAK_latest.txt; \
		if ! $(GO) test -count=1 -timeout 5m -run '$(SOAK_TESTS)' ./internal/shieldd/ >> SOAK_latest.txt 2>&1; then \
			echo "chaos soak FAILED at iteration $$iter (see SOAK_latest.txt)" | tee -a SOAK_latest.txt; \
			tail -n 40 SOAK_latest.txt; exit 1; \
		fi; \
		sessions=$$((sessions + $(SOAK_SESSIONS_PER_ITER))); \
	done; \
	echo "chaos soak ok: $$iter iterations, $$sessions sessions survived (floor $(SOAK_SESSION_FLOOR))" | tee -a SOAK_latest.txt; \
	if [ $$sessions -lt $(SOAK_SESSION_FLOOR) ]; then \
		echo "chaos soak FAILED: $$sessions sessions survived < floor $(SOAK_SESSION_FLOOR)" | tee -a SOAK_latest.txt; \
		exit 1; \
	fi

loadcheck:
	$(GO) build -o bin/shieldtest ./cmd/shieldtest
	@ulimit -n 8192 2>/dev/null || true; \
	echo "--- loadcheck barrier leg: $(LOAD_SESSIONS) concurrent sessions, $(LOAD_DAEMONS) daemons ---"; \
	./bin/shieldtest -daemons $(LOAD_DAEMONS) -sessions $(LOAD_SESSIONS) -workers $(LOAD_SESSIONS) \
		-barrier -ops 2 -mix exchange=1,ping=1 -seed 11 \
		-retry-timeout $(LOAD_RETRY_TIMEOUT) -max-retries 16 \
		-min-concurrent $(LOAD_SESSIONS) -max-failed 0 -o FLEET_barrier.json && \
	echo "--- loadcheck soak leg: $(LOAD_SOAK_DURATION), floor $(LOAD_SESSIONS_FLOOR) sessions/sec ---" && \
	./bin/shieldtest -daemons $(LOAD_DAEMONS) -duration $(LOAD_SOAK_DURATION) -workers $(LOAD_SOAK_WORKERS) \
		-ops 8 -mix exchange=2,batch=1,ping=5 -batch 4 -seed 12 \
		-retry-timeout $(LOAD_RETRY_TIMEOUT) -max-retries 16 \
		-min-sessions-per-sec $(LOAD_SESSIONS_FLOOR) -max-failed 0 -o FLEET_soak.json

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./... | tee BENCH_latest.txt
	$(GO) run ./cmd/benchjson < BENCH_latest.txt > BENCH_latest.json
	@echo "wrote BENCH_latest.txt and BENCH_latest.json"

benchcheck:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) | tee BENCH_latest.txt
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -threshold $(BENCH_THRESHOLD) < BENCH_latest.txt > BENCH_latest.json

benchbaseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) | tee BENCH_latest.txt
	$(GO) run ./cmd/benchjson < BENCH_latest.txt > BENCH_baseline.json
	@echo "re-recorded BENCH_baseline.json — explain the refresh in the PR"

# perfbench is its own module (replace heartshield => ../), so the root
# `go vet ./...` and `go test ./...` never reach it: this target is what
# fails when a repository change breaks the benchmark's build or its
# correctness checks. The last line run.sh prints is the JSON result.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	@out=$$(bash perfbench/run.sh --workload all --seed 1 --seconds 1) || exit 1; \
	last=$$(printf '%s\n' "$$out" | tail -n 1); echo "$$last"; \
	case "$$last" in *'"correct":true'*) echo "perfbench-check ok";; \
		*) echo "perfbench-check FAILED: result is not \"correct\":true"; exit 1;; esac

# Paired A/B run of the repo benchmark against a parent revision, e.g.
#   make ab BASE=HEAD~1 WORKLOAD=churn PAIRS=10 SEED=301
# Each run lasts BENCHMARK.json's run_seconds; both trees build their own
# benchmark binary, so the first pair also pays two cold builds.
PAIRS ?= 10
SEED ?= 1
ab:
	$(GO) run ./cmd/perfab -base '$(BASE)' -workload '$(WORKLOAD)' -pairs $(PAIRS) -seed $(SEED)

sim:
	$(GO) run ./cmd/shieldsim -run all -quick

docs-check:
	@echo "--- docs-check: relative markdown links resolve ---"
	@fail=0; \
	for f in $(DOCS_FILES); do \
		[ -f $$f ] || { echo "missing doc: $$f"; fail=1; continue; }; \
		for link in $$(grep -oE '\]\([^)]+\)' $$f | sed -e 's/^](//' -e 's/)$$//' -e 's/#.*//'); do \
			case $$link in \
				http://*|https://*|mailto:*|"") ;; \
				*) [ -e "$$link" ] || { echo "$$f: broken link -> $$link"; fail=1; } ;; \
			esac; \
		done; \
	done; \
	[ $$fail -eq 0 ] && echo "links ok"
	@echo "--- docs-check: README quickstart smoke ---"
	$(GO) run ./cmd/shieldsim -list >/dev/null
	$(GO) run ./cmd/shieldsim -run fig7 -quick >/dev/null
	$(GO) run ./cmd/shieldsim -impair "drop=0.1,dup=0.05,reorder=0.05" -exchanges 16 >/dev/null 2>&1
	$(GO) run ./cmd/shieldsim -impair "drop=0.1,dup=0.05,reorder=0.05" -exchanges 16 -pipeline >/dev/null 2>&1
	$(GO) run ./cmd/shieldtest -daemons 2 -sessions 16 -workers 8 -o /dev/null >/dev/null
	@echo "docs-check ok"

golden:
	$(GO) test -run TestGoldenExperimentOutputs -update .

trial-check:
	$(GO) test -run TestExperimentWorkerDeterminism -count=1 .

golden-check: trial-check golden
	@git diff --exit-code testdata/golden || \
		{ echo "golden files drifted: experiment output is nondeterministic or changed without re-recording"; exit 1; }

cover:
	$(GO) test -count=1 -coverprofile=COVER_latest.out -coverpkg='$(COVER_PKGS)' $(COVER_TEST_PKGS)
	@$(GO) tool cover -func=COVER_latest.out | tail -n 1

covercheck: cover
	@total=$$($(GO) tool cover -func=COVER_latest.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	base=$$(cat COVER_baseline.txt); \
	awk -v t=$$total -v b=$$base 'BEGIN { \
		if (t+0 < b+0) { printf "coverage gate FAILED: %.1f%% < baseline %.1f%%\n", t, b; exit 1 } \
		printf "coverage gate ok: %.1f%% >= baseline %.1f%%\n", t, b }'

coverbaseline: cover
	@total=$$($(GO) tool cover -func=COVER_latest.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	awk -v t=$$total 'BEGIN { printf "%.1f\n", t - 1.0 }' > COVER_baseline.txt; \
	echo "re-recorded COVER_baseline.txt ($$(cat COVER_baseline.txt)% floor) — explain the refresh in the PR"

clean:
	rm -f BENCH_latest.txt BENCH_latest.json COVER_latest.out SOAK_latest.txt
	rm -f FLEET_barrier.json FLEET_soak.json bin/shieldtest
	$(GO) clean -testcache
