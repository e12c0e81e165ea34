# Lily build/test/lint entry points. Everything is stdlib-only Go; the
# lint target builds the project's own analysis suite (cmd/lilylint,
# DESIGN.md §9) and runs it over the whole module.

GO ?= go
BIN ?= bin

.PHONY: all build test lint race soak smoke service-smoke scale-smoke bench cover fuzz fmt clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency-sensitive packages (engine, server, the
# top-level flow API) without paying for -race on the whole suite.
race:
	$(GO) test -race ./internal/engine/ ./internal/server/ .

# Job-lifecycle soak: registry-bound + eviction tests under -race,
# repeated to surface scheduling-order flakes (see DESIGN.md §8).
soak:
	$(GO) test -race -count=5 -run 'Soak|Retain|Evict|LoadShed|QueueFull|Follower' \
		./internal/engine/ ./internal/server/

# Observability smoke test: boots lilyd, runs a job, validates the
# /metrics exposition and the job's phase trace (DESIGN.md §10).
smoke:
	./scripts/obs-smoke.sh

# Service smoke test: one in-process engine + HTTP server serves the
# benchmark suite as individual POST /v1/jobs submissions; every job
# status's blif_sha256 must match testdata/golden.json, a repeat of the
# suite must come entirely from the result cache with the same hashes,
# and the lut4 suite must match its goldens. The server's job-route
# tests (status hash, load shedding, target and SVG rejections) run
# under -race first.
service-smoke:
	$(GO) test -race -run 'TestStatusBLIFHash|TestQueueFullAnswers429|TestSubmitRejectsUnknownTarget|TestSVGWithoutSVGConflicts' ./internal/server/
	$(GO) test -race -run TestServiceSmoke .

# Frontier-scale smoke (ROADMAP "production scale"): the seeded
# 100k-gate generated circuit through the complete pipeline twice, each
# run under a 60-second wall-clock budget, the two mapped-BLIF outputs
# byte-identical. Deliberately without -race — the budget measures the
# pipeline, not the detector.
scale-smoke:
	LILY_SCALE_PROFILE=gen100k LILY_SCALE_BUDGET_S=60 \
		$(GO) test -run TestScaleSmoke -v -timeout 600s -count=1 .

# Single-iteration pass over the engine, obs, equivalence-check and
# candidate-generator benchmarks so they keep compiling and running
# (BenchmarkDisabledTracer reports allocs/op; BenchmarkCheck covers the
# compositional proof of C5315 the flow runs, the BDD budget-exhaustion
# path on C5315 and BDD proofs on duke2 and on C1908, which needs the
# Shannon-composed, depth-first-ordered BDDs, with allocs/op; the
# structural matcher, the LUT cut enumerator over every node of C5315
# at K = 6 (fresh enumerator per iteration, so LUT cell synthesis is
# paid), the MIS cover of C5315 in area and delay mode, the LUT cut
# pipeline and the BLIF reader — .names
# on C5315 and gen50k, .gate on mapped C5315 — print allocs/op via
# -benchmem, as do static timing analysis of mapped C5315,
# Network.Check where one input feeds 40,000 nodes and two FM passes
# over a random circuit's subject graph).
bench:
	$(GO) test -run '^$$' -bench BenchmarkEngineSuite -benchtime=1x ./internal/engine/
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/obs/
	$(GO) test -run '^$$' -bench BenchmarkCheck -benchtime=1x -benchmem ./internal/equiv/
	$(GO) test -run '^$$' -bench BenchmarkMatcherAllNodes -benchtime=1x -benchmem ./internal/match/
	$(GO) test -run '^$$' -bench '^BenchmarkEnumeratorAllNodes$$' -benchtime=1x -benchmem ./internal/cut/
	$(GO) test -run '^$$' -bench '^BenchmarkMISMapC5315$$' -benchtime=1x -benchmem ./internal/mis/
	$(GO) test -run '^$$' -bench '^BenchmarkPipelineC5315LUT6$$' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkParseBLIF$$' -benchtime=1x -benchmem ./internal/logic/ ./internal/netlist/
	$(GO) test -run '^$$' -bench '^BenchmarkAnalyze$$' -benchtime=1x -benchmem ./internal/timing/
	$(GO) test -run '^$$' -bench '^BenchmarkNetworkCheck$$' -benchtime=1x -benchmem ./internal/logic/
	$(GO) test -run '^$$' -bench '^BenchmarkFMPass$$' -benchtime=1x -benchmem ./internal/place/

# The mapping packages (front end through verification) plus the lint
# suite itself must stay at or above 70%
# statement coverage. The remaining pure-infrastructure packages
# (engine, server, obs) are covered by their own suites and the
# race/soak targets, so they are deliberately outside this floor.
COVER_PKGS := ./internal/logic/ ./internal/decomp/ ./internal/library/ \
	./internal/match/ ./internal/cut/ ./internal/cover/ ./internal/mis/ ./internal/core/ \
	./internal/place/ ./internal/wire/ ./internal/geom/ ./internal/netlist/ \
	./internal/layout/ ./internal/timing/ ./internal/fanout/ ./internal/opt/ \
	./internal/equiv/ ./internal/lint/
COVER_FLOOR := 70.0

comma := ,
empty :=
space := $(empty) $(empty)
COVER_PKG_CSV := $(subst $(space),$(comma),$(strip $(COVER_PKGS)))

cover:
	@mkdir -p $(BIN)
	$(GO) test -coverprofile=$(BIN)/cover.out \
		-coverpkg='$(COVER_PKG_CSV)' $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=$(BIN)/cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# Short fuzz smoke over the two BLIF dialects, cover-algebra,
# BDD-manager, match-order, compositional-proof and submit-options
# targets; the seed corpora (internal/logic/testdata/fuzz,
# internal/equiv/testdata/fuzz, FuzzManager's generated seeds and the
# f.Add seeds of FuzzParseMappedBLIF, FuzzMatchOrder, FuzzCompositional
# and FuzzSubmitOptions) always replay in plain `go test`, this target
# additionally explores for a few seconds. FuzzParseMappedBLIF requires
# every accepted .gate netlist to survive WriteBLIF -> ParseBLIF ->
# WriteBLIF byte for byte.
# FuzzCompositional maps random networks with Lily at every target and
# with MIS and requires equiv.Compositional to prove each mapping.
# FuzzSubmitOptions feeds hostile JSON options through the server's
# option boundary and checks FlowOptions.Normalize against the digest.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseBLIF -fuzztime 10s ./internal/logic/
	$(GO) test -run '^$$' -fuzz FuzzParseMappedBLIF -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz FuzzSOP -fuzztime 10s ./internal/logic/
	$(GO) test -run '^$$' -fuzz FuzzManager -fuzztime 10s ./internal/bdd/
	$(GO) test -run '^$$' -fuzz FuzzMatchOrder -fuzztime 10s ./internal/match/
	$(GO) test -run '^$$' -fuzz FuzzCompositional -fuzztime 10s ./internal/equiv/
	$(GO) test -run '^$$' -fuzz FuzzSubmitOptions -fuzztime 10s ./internal/server/

$(BIN)/lilylint: FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lilylint ./cmd/lilylint

FORCE:

lint: $(BIN)/lilylint
	$(BIN)/lilylint ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

fmt:
	gofmt -w .

clean:
	rm -rf $(BIN)
