GO ?= go
# Fixed randomized-testing budget for the schedule property tests
# (testing/quick's -quickchecks flag scales their MaxCountScale).
QUICKCHECKS ?= 200
# Where bench-json records its trajectory point. The committed baseline
# is the PR-agnostic BENCH.json; override BENCH_OUT to write elsewhere
# (bench-regression writes a throwaway BENCH_NEW.json and compares).
BENCH_OUT ?= BENCH.json
# Allowed fractional ns/op growth before bench-regression fails. B/op and
# allocs/op are gated at bench2json's fixed slacks, measured over ten runs
# of one commit.
BENCH_TOLERANCE ?= 0.25

# The benchmark set, one `go test -bench` run per triple: package,
# -bench pattern, -benchtime (- for go test's default). bench prints it
# and bench-json records it, so the two always run the same list.
BENCH_SET = \
	. BenchmarkTune 10x \
	./internal/schedule 'BenchmarkEvaluateBatch|BenchmarkRow' - \
	./internal/interference BenchmarkPredict - \
	./internal/serve BenchmarkBatchSubmit 20x \
	./internal/serve 'BenchmarkScrape|BenchmarkTuneHit' - \
	./internal/trace BenchmarkTraceOverhead - \
	./internal/slo BenchmarkSLOEvaluate 2s \
	./internal/pilot BenchmarkPilotEvaluate 2s
BENCH_RUNS = set -- $(BENCH_SET); while [ -n "$$1" ]; do \
	bt=; [ "$$3" = - ] || bt=-benchtime=$$3; \
	echo "$(GO) test -run xxx -bench '$$2' $$bt -benchmem $$1" >&2; \
	$(GO) test -run xxx -bench "$$2" $$bt -benchmem "$$1" || exit 1; \
	shift 3; done

# Where bench-profile drops its pprof output.
PROFILE_DIR ?= profiles

.PHONY: ci vet build test test-noskip test-seam race property bench bench-json bench-regression bench-profile serve fuzz lint mistlint load-smoke experiments-smoke cluster-smoke elastic-smoke slo-smoke flag-docs flag-docs-check

ci: lint build race property test-seam flag-docs-check ## full tier-1 + race + property gate, plus the nested benchmark module's seam and the generated flag docs

vet:
	$(GO) vet ./...

lint: ## gofmt must have nothing to say, vet must pass, and mistlint must find nothing
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/mistlint ./...

mistlint: ## repo-specific invariant checks (nodeterm, lockio, ctxflow, gotrack, wiretags, errdrop, doccomment)
	$(GO) run ./cmd/mistlint ./...

flag-docs: ## regenerate docs/FLAGS.md from every command's -help output
	$(GO) run ./tools/flagdoc

flag-docs-check: ## fail if docs/FLAGS.md drifted from the binaries' actual flags
	$(GO) run ./tools/flagdoc -check

build:
	$(GO) build ./...

test: ## the tier-1 verify
	$(GO) build ./... && $(GO) test ./...

test-noskip: ## the full (non -short) suite, verbose; fails if any test reports SKIP, so a test cannot go vacuous silently
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) test ./... -v >"$$out" 2>&1 || { grep -E '^(--- FAIL|FAIL|panic:)' "$$out"; exit 1; }; \
	if grep -E '^ *--- SKIP' "$$out"; then echo "test-noskip: skipped tests above; make them run or delete them"; exit 1; fi; \
	echo "test-noskip: ok, no test skipped"

test-seam: ## vet + short tests of the nested benchmarks/mistperf module, which `go test ./...` never sees: the one place a break of its seam.go contract shows
	cd benchmarks/mistperf && $(GO) vet ./... && $(GO) test -short ./...

race: ## includes the seeded jobs submit/cancel storm with goroutine-leak checks, and the analyzer's row store's same-row/mixed-row publish races and readers of a stored row (schedule's rows_race_test.go, rows_window_test.go, and rows_test.go's TestConcurrentAccess under mixed readers and writers), two searches sharing one store (TestConcurrentSearchesCountTheirOwnTraffic) and four searches on one tuner (TestConcurrentSearchesOnOneTuner), the analyzer's concurrent first use, the per-platform interference fit's concurrent first use, and a plan-cache entry's concurrent first hits (serve's TestConcurrentFirstHitsRenderOnce: one render, the same bytes for every caller) repeated; the cluster tier's seeded fault fence (serve's TestFaultsMasked) runs 8 of its 64 seeds
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestConcurrent' ./internal/schedule ./internal/core ./internal/serve

fuzz: ## fuzz smoke: HTTP JSON decode paths must 400 cleanly, never panic or 5xx; the interference model's live-set peel must equal the mask sweep bit for bit
	$(GO) test -fuzz=FuzzTuneRequest -fuzztime=10s ./internal/serve
	$(GO) test -fuzz=FuzzJobSubmit -fuzztime=10s ./internal/serve
	$(GO) test -fuzz=FuzzPredict -fuzztime=10s ./internal/interference

load-smoke: ## 5-second in-process mixed-scenario load replay, traced at 100%; fails on any 5xx, rootless op, or unfinished span
	$(GO) run ./cmd/mistload -scenario mixed -inproc -duration 5s -seed 1 -concurrency 4 -trace-sample 1

experiments-smoke: ## every paper table and figure at paper scale (the grids TestEveryExperimentRunsSmall never reaches); fails on any experiment error
	$(GO) run ./cmd/mistbench -exp all -full

cluster-smoke: ## 3-node in-process cluster: mixed replay, then a failover drill with a mid-run node kill; fails on any 5xx
	$(GO) run ./cmd/mistload -scenario mixed -inproc -nodes 3 -duration 5s -seed 1 -concurrency 4
	$(GO) run ./cmd/mistload -scenario failover -inproc -nodes 3 -duration 6s -seed 1 -concurrency 4 -kill n2@3s

elastic-smoke: ## 3-node cluster with a mid-run join and drain; fails on any 5xx, transport error, or post-drill replication/single-flight violation
	$(GO) run ./cmd/mistload -scenario elastic -inproc -nodes 3 -duration 7s -seed 1 -concurrency 4 -join n4@2s -drain n1@4s

slo-smoke: ## 3-node mixed replay scored against the committed SLO spec (budget exhaustion fails), plus the induced-failure drill: fast-burn page within bound, resolved after recovery
	$(GO) run ./cmd/mistload -scenario mixed -inproc -nodes 3 -duration 5s -seed 1 -concurrency 4 -slo-config testdata/slo.json
	$(GO) test -run 'TestSLOKillDrill|TestSLOEndToEnd' -count=1 -v ./internal/serve

property: ## schedule, frontier, compile and trace invariants (every section byte quantity non-increasing in TP, non-decreasing in b), repeated with a pinned quick.Check budget; then, on the full shape grid, the lifted stage programs against the per-shape reference and the compute floor under every priced stable time; then the long generated-cell stream (60 seeded cells tuned and measured: no device OOM, S=1 error in its band, S >= 2 error negative); then 1 000 seeds of the cluster tier under duplicated and delayed peer requests and lost probe replies (every fingerprint on exactly R replicas at version 1, one search each, every acknowledged plan stored)
	$(GO) test ./internal/schedule ./internal/core ./internal/symbolic ./internal/graph -run 'TestProperty' -count=5 -quickchecks $(QUICKCHECKS)
	$(GO) test ./internal/schedule -run 'TestPropertyLiftedProgramMatchesPerShapeBuild|TestPropertyComputeFloorBoundsStable' -count=1 -reference.full
	$(GO) test ./internal/experiments -run 'TestGeneratedCells' -count=1 -v -generator.full
	$(GO) test ./internal/serve -run 'TestFaultsMasked' -count=1 -faults.full

bench: ## cold and warm tuner (BenchmarkTuneMemoizedWarm is the re-tune path: a fresh tuner over a filled shared cache, merging the stored staircases; BenchmarkTuneHetero is the heterogeneous-device search, whose unique-evals the cache's per-(shape, layer count) rows keep down; BenchmarkTuneColdGrid is mistperf's 8-cell search-cold grid, each cell a fresh tuner, search and trainsim re-measure), one 405-knob set priced by the analyzer and through its row store (which keeps only the set's staircase steps), batch-submit amortization, one node's /metrics and /stats scrape on a 3-node fleet, a repeated /tune served by its owner and through a hop and a repeated plan-less /simulate on the same fleet, tracing overhead, SLO evaluation, one interference region priced with a search's live-channel mix
	@$(BENCH_RUNS)

bench-json: ## run the bench set and record a machine-readable trajectory point at $(BENCH_OUT)
	( $(BENCH_RUNS) ) | $(GO) run ./tools/bench2json -out $(BENCH_OUT)

bench-regression: ## fresh bench run compared against the committed BENCH.json baseline; fails past $(BENCH_TOLERANCE) ns/op growth, or B/op or allocs/op growth past bench2json's slacks
	$(MAKE) bench-json BENCH_OUT=BENCH_NEW.json
	$(GO) run ./tools/bench2json -tolerance $(BENCH_TOLERANCE) -compare BENCH.json BENCH_NEW.json

bench-profile: ## CPU + heap profiles of the cold-search benchmark (windows of one layer count), of Fig. 15's regeneration (pipelined windows of five) and of mistperf's search-cold grid without its harness (300 passes of BenchmarkTuneColdGrid); inspect with `go tool pprof $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/cpu.pprof` (fig15-cpu.pprof, cold-grid-cpu.pprof)
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench 'BenchmarkTuneMemoizedCold' -benchtime=3x -benchmem \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/mem.pprof \
		-o $(PROFILE_DIR)/bench.test .
	$(GO) test -run xxx -bench 'BenchmarkFig15BatchSensitivity' -benchtime=100x -benchmem \
		-cpuprofile $(PROFILE_DIR)/fig15-cpu.pprof -memprofile $(PROFILE_DIR)/fig15-mem.pprof \
		-o $(PROFILE_DIR)/bench.test .
	$(GO) test -run xxx -bench 'BenchmarkTuneColdGrid' -benchtime=300x -benchmem \
		-cpuprofile $(PROFILE_DIR)/cold-grid-cpu.pprof -memprofile $(PROFILE_DIR)/cold-grid-mem.pprof \
		-o $(PROFILE_DIR)/bench.test .

serve: ## run the tuning service locally
	$(GO) run ./cmd/mistserve -addr :8080
