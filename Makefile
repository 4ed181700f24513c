GO ?= go

.PHONY: all build vet fmt-check staticcheck test race check reach examples-smoke par-smoke portfolio-smoke deadline-smoke daemon-smoke latency-smoke query-smoke attr-smoke servebench-test load-smoke bench-smoke bench-diff trace-smoke tracestat-smoke fuzz fuzz-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked .go file is not gofmt-formatted (the
# untracked .bench_build/ tree is never listed), naming the files to fix.
fmt-check:
	@files=$$(git ls-files '*.go'); \
	if [ -z "$$files" ]; then echo "fmt-check: git lists no .go files (not a git checkout?)"; exit 1; fi; \
	out=$$(gofmt -l $$files); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# staticcheck runs the deeper linter when the binary is on PATH and falls
# back to `go vet` otherwise, so `make check` works on a bare toolchain and
# tightens automatically on machines that have staticcheck installed.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to $(GO) vet ./..."; $(GO) vet ./...; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the full verification gate: static analysis, a gofmt check, a
# clean build, the reach gate, the test suite under the race detector (which
# subsumes plain `go test`), a run of every example program, a short run of
# every fuzz target, the serving benchmark's own module, a smoke run of the
# evaluator benchmarks with a regression diff against the committed report,
# and trace emission + analysis smoke runs.
check: vet fmt-check staticcheck build reach race examples-smoke fuzz-smoke par-smoke portfolio-smoke deadline-smoke daemon-smoke latency-smoke query-smoke attr-smoke servebench-test load-smoke bench-smoke bench-diff trace-smoke tracestat-smoke

# reach is the production-code gate (reach_test.go): it links every binary
# under cmd/ and examples/, and servebench's, with the linker's dependency
# dump, and fails on a non-test function no binary reaches unless its doc
# comment carries a "// test-only:" marker naming its test callers, and on
# a marker left on a function a binary does reach. It prints how many
# functions carry a marker.
reach:
	$(GO) test -count=1 -v -run '^TestReach$$' .

# examples-smoke runs every example program; each checks its own answer and
# exits non-zero (log.Fatal) when it is wrong.
examples-smoke:
	@for f in examples/*/main.go; do \
		d=./$$(dirname $$f); echo "go run $$d"; \
		$(GO) run $$d >/dev/null || exit 1; \
	done

# par-smoke is the quick parallel-correctness gate: one mid-size instance
# through parallel BB-ghw, Workers=4, under the race detector, asserting the
# width matches the serial engine. (`make race` runs the full parallel
# suites; this target is the fast, targeted re-check.)
par-smoke:
	$(GO) test -race -count=1 -run 'TestParallel.*Smoke' ./internal/search/

# portfolio-smoke is the racing-mode gate: the default solver portfolio on
# two seed instances under the race detector, asserting the race's width is
# no worse than the best single member given the same budget and that the
# merged anytime timeline stays monotone.
portfolio-smoke:
	$(GO) test -race -count=1 -run 'TestPortfolioSmoke' ./internal/core/

# deadline-smoke is the deadline gate: every registry hypergraph under
# greedy, bb-ghw and the default portfolio at a 250 ms deadline, without the
# race detector so the wall clock means something. Each run must return a
# validated decomposition within the deadline plus a fixed slack, and no
# wider than the best width in its own timeline. (`make race` runs the same
# test with only the wall-clock assertion skipped.)
deadline-smoke:
	$(GO) test -count=1 -run 'TestDeadlineSmoke' ./internal/bench/

# daemon-smoke exercises the decomposed binary end to end over a real port:
# build it, start it, POST examples/instances/cycle6.hg and assert the exact
# width (2), verify a retry hits the result cache and the health/metrics
# endpoints answer, then SIGTERM-drain (including with a long run still in
# flight — the client must get its typed degraded answer) and assert a clean
# exit. (`make race` runs the in-process chaos harness in internal/server;
# this target is the process-boundary gate.)
daemon-smoke:
	$(GO) test -race -count=1 -run 'TestDaemonSmoke' ./cmd/decomposed/

# latency-smoke is the request-lifecycle observability gate: start the
# daemon with tracing, access logging and the slow ring enabled, fire a
# mixed burst (exact, cached, rejected, degraded), and assert the /metrics
# latency histograms are populated with P50/P95/P99 summaries, /debug/slow
# retained the outlier with its event trace, the access log has one JSON
# line per request, the drain dumps the slow ring, and tracestat summary on
# the daemon trace prints a per-phase latency breakdown.
latency-smoke:
	$(GO) test -race -count=1 -run 'TestLatencySmoke' ./cmd/decomposed/

# query-smoke is the compiled-plan serving gate: the daemon's /query
# endpoint end to end over a real port — CSP in, compiled join-tree plan,
# solve/count/enumerate answers out, plan-cache hit on the retry, and the
# hypertree_query_* metric families populated.
query-smoke:
	$(GO) test -race -count=1 -run 'TestQuerySmoke' ./cmd/decomposed/

# attr-smoke is the cost-accounting gate: a portfolio request through the
# live daemon must come back with a balanced attribution ledger in its
# envelope (member nodes summing to the global count, the winner named),
# the hypertree_portfolio_member_* metric families must reflect it, and
# tracestat attr on the daemon's trace must render the per-algorithm
# contribution table.
attr-smoke:
	$(GO) test -race -count=1 -run 'TestAttributionSmoke' ./cmd/decomposed/

# servebench-test vets and tests the socket-level serving benchmark. It is
# its own module (servebench/go.mod, `replace hypertree => ../`), so the
# root `go build ./...` and `go test ./...` never compile it, yet it calls
# into internal/csp/engine, core and hypergraph: an API change there breaks
# it silently unless this target runs.
servebench-test:
	cd servebench && $(GO) vet ./... && $(GO) test ./...

# load-smoke drives a freshly built daemon over loopback with the serving
# benchmark's two /query workloads, two seconds each, and its default
# /decompose path (the portfolio under a 150 ms deadline) for ten seconds,
# all untraced. The benchmark's own checker re-derives every answer (counts
# from an in-process plan, solutions and enumerations against the CSP
# itself) and independently checks every returned decomposition (tree shape,
# edge coverage, connectedness, λ covers, width, lower bound); the run exits
# non-zero on any failed request or wrong answer, so engine and solver
# changes are checked end to end over a socket. The decompose run is ten
# seconds because servebench refuses a p90 with fewer than ten requests
# beyond it, and two seconds send only ~26. Builds land in .bench_build/.
load-smoke:
	bash servebench/run.sh --workload query-cold --seed 1 --seconds 2 --trace 0
	bash servebench/run.sh --workload query-hot --seed 1 --seconds 2 --trace 0
	bash servebench/run.sh --workload decompose-deadline --seed 1 --seconds 10 --trace 0

# bench-smoke reruns the ghw evaluator microbenchmarks (benchstat-compatible
# output) into a scratch report and validates both it and the committed
# BENCH_ghw.json. It is a smoke test: numbers vary by machine; only the
# report shape and width agreement are checked. The scratch report is left
# on disk for bench-diff, which removes it.
bench-smoke:
	$(GO) run ./cmd/experiments -bench-json -bench-out BENCH_ghw.smoke.json
	$(GO) run ./cmd/experiments -bench-check BENCH_ghw.smoke.json
	$(GO) run ./cmd/experiments -bench-check BENCH_ghw.json

# bench-diff gates on the smoke report not regressing against the committed
# BENCH_ghw.json (exit 1 on regression). The threshold is deliberately loose:
# the committed numbers come from a different machine, and this catches
# order-of-magnitude regressions (a lost cache, an accidental O(n^2)), not
# percent-level drift — benchstat on two local reports does that.
bench-diff: bench-smoke
	$(GO) run ./cmd/experiments -bench-diff BENCH_ghw.json -bench-diff-threshold 4.0 BENCH_ghw.smoke.json
	rm -f BENCH_ghw.smoke.json

# trace-smoke runs one budgeted search with -trace and validates the JSONL
# event stream against the schema (see OBSERVABILITY.md): per-line JSON,
# known kinds, run boundaries present, anytime-width monotonicity per run.
# The trace is left on disk for tracestat-smoke, which removes it.
trace-smoke:
	$(GO) run ./cmd/decompose -algo bb-ghw -gen grid2d_10 -timeout 5s -trace trace.smoke.jsonl
	$(GO) run ./cmd/decompose -trace-check trace.smoke.jsonl -strict

# tracestat-smoke gates on the analysis pipeline accepting a real trace:
# strict schema validation plus a rendered per-run profile (stall detection,
# cadence, anytime timeline). Exit codes gate; the profile itself is
# informational.
tracestat-smoke: trace-smoke
	$(GO) run ./cmd/tracestat check -strict trace.smoke.jsonl
	$(GO) run ./cmd/tracestat summary trace.smoke.jsonl
	rm -f trace.smoke.jsonl

# fuzz runs each fuzz target for 30 s: the three parser fuzzers, the /query
# CSP, batch, envelope-reader and request-parameter fuzzers; extend
# -fuzztime for real campaigns. fuzz-smoke, part of check, runs the same
# targets for 5 s each. Both cap the minimization of each new interesting
# input at 2 s: Go's default of 60 s let a 30 s run spend most of its time
# minimizing at 0 execs/s.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseHG       -fuzztime=30s -fuzzminimizetime=2s ./internal/hypergraph/
	$(GO) test -run=^$$ -fuzz=FuzzParseDIMACS   -fuzztime=30s -fuzzminimizetime=2s ./internal/hypergraph/
	$(GO) test -run=^$$ -fuzz=FuzzParseGr       -fuzztime=30s -fuzzminimizetime=2s ./internal/hypergraph/
	$(GO) test -run=^$$ -fuzz=FuzzQueryCSP      -fuzztime=30s -fuzzminimizetime=2s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzQueryBatch    -fuzztime=30s -fuzzminimizetime=2s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzQueryEnvelope -fuzztime=30s -fuzzminimizetime=2s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzRequestParams -fuzztime=30s -fuzzminimizetime=2s ./internal/server/

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseHG       -fuzztime=5s -fuzzminimizetime=2s ./internal/hypergraph/
	$(GO) test -run=^$$ -fuzz=FuzzParseDIMACS   -fuzztime=5s -fuzzminimizetime=2s ./internal/hypergraph/
	$(GO) test -run=^$$ -fuzz=FuzzParseGr       -fuzztime=5s -fuzzminimizetime=2s ./internal/hypergraph/
	$(GO) test -run=^$$ -fuzz=FuzzQueryCSP      -fuzztime=5s -fuzzminimizetime=2s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzQueryBatch    -fuzztime=5s -fuzzminimizetime=2s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzQueryEnvelope -fuzztime=5s -fuzzminimizetime=2s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzRequestParams -fuzztime=5s -fuzzminimizetime=2s ./internal/server/

clean:
	$(GO) clean ./...
