# Reproduction workflow targets. Everything is stdlib-only Go; no
# network access is required.

GO ?= go

# staticcheck runs in `make check` only when a binary of exactly this
# version is already on PATH (the pin keeps CI and laptops agreeing on
# the rule set). It is never downloaded — no network access is required.
STATICCHECK_VERSION ?= 2024.1

.PHONY: all check help build vet test race staticcheck hygiene loc chaos brownout trace-demo dash-demo prof-demo bench-hotpath bench-analysis bench-storage paperscale ablations fuzz fuzz-short verify experiments clean

# Default check path: the tier-1 verify (build + test) plus vet and the
# race suite over the concurrent packages.
all: build vet test race

# check is the conventional entry point for the same gate; the race leg
# covers the sharded rate limiter, the batched crawl frontier and the
# study's concurrent, memoised structure stages with the packages that
# drive them (paper, report, gplusanalyze), the
# short fuzz leg shakes the checkpoint/journal parser, the series.jsonl tick decoder, the wire codec, the graph.v2 reader, the segment reader, the triad pass, the edge sort and the CDF sort, the hygiene leg
# gates the metric exposition and its label vocabulary, the
# one-durable-writer rule, the every-flag-has-a-recipe rule and the
# every-package- and every-exported-symbol-reaches-the-pipeline rules and
# the reflection-JSON-stays-cold rule, the
# brownout leg proves kill-free convergence through a server overload,
# staticcheck runs when the pinned version is installed, and the run
# ends with the non-test line count per package.
check: all staticcheck hygiene brownout fuzz-short loc

help:
	@echo "make all            build + vet + test + race (default)"
	@echo "make check          all + staticcheck + hygiene + brownout + fuzz-short"
	@echo "make hygiene        metrics-hygiene gate (naming grammar + HELP lines + label keys from the one vocabulary) + labels-are-data gate + durable-write gate + every-flag-has-a-recipe gate + every-package- and every-exported-symbol-reaches-the-pipeline gates + reflection-JSON-stays-cold gate"
	@echo "make loc            non-test Go lines per package (bench/ excluded)"
	@echo "make chaos          kill/resume convergence under the fault suite"
	@echo "make brownout       kill-free convergence through a server brownout"
	@echo "make trace-demo     chaos crawl with request tracing on both sides"
	@echo "make dash-demo      short chaos crawl rendered on the live dashboard"
	@echo "make prof-demo      brownout crawl -> profile ring -> go tool pprof: CPU by label + steady-vs-page diff"
	@echo "make bench-hotpath  serving/crawling hot paths -> BENCH_hotpath.json"
	@echo "make bench-analysis graph analytics at P=1/4/8/NumCPU -> BENCH_analysis.json"
	@echo "make bench-storage  out-of-core CSR: segment/compact/load/scan -> BENCH_storage.json"
	@echo "make paperscale     10M-node/200M-edge out-of-core acceptance run (slow; merges RSS rows into BENCH_storage.json)"
	@echo "make ablations      design-choice ablations, seed sensitivity and the lost-edge crawl"
	@echo "make fuzz           long fuzz of every parser (wire codec, series names and the series.jsonl tick decoder included), the client's request URLs, the multi-source BFS, the triad pass, the edge sort, the segment compaction, the segment reader and the CDF sort (30s each)"
	@echo "make verify         generate a dataset and audit it against the paper at two analysis seeds"
	@echo "make experiments    regenerate the measured half of EXPERIMENTS.md from a fresh dataset"

build:
	$(GO) build ./...

# vet also fails when any file is not gofmt-clean, listing the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/obs/ ./internal/obs/prof/ ./internal/obs/rundir/ ./internal/obs/series/ ./internal/obs/trace/ ./internal/paper/ ./internal/report/ ./cmd/gplusanalyze/ ./cmd/gpluscrawl/ ./internal/crawler/ ./internal/dataset/ ./internal/durable/ ./internal/gplusd/ ./internal/graph/ ./internal/graph/diskcsr/ ./internal/resilience/

# The metrics-hygiene gate: every family either registry exposes after a
# faulted crawl must match the Prometheus naming grammar and carry a
# HELP line, every sample must belong to a declared TYPE, and every
# label key on a sample must be a Key* constant of
# internal/obs/labels.go. The labels-are-data gate fails if non-test
# code outside bench/ passes a string literal holding '{' to
# Counter/Gauge/Histogram, keys pprof.Labels with anything but those
# constants, or re-spells one as a literal obs.Label or Span.Annotate
# key, so metrics, pprof labels and span attributes keep one
# vocabulary. The
# durable-write gate fails if non-test code outside internal/durable
# (and bench/) calls os.Rename or os.CreateTemp or opens a file
# O_APPEND, so a second copy of the write-fsync-rename protocol or of
# the append log cannot land unnoticed. The flags gate fails if
# gpluscrawl, gplusd, gplusanalyze, gplusgen or gplusverify
# registers a flag that no README.md, EXPERIMENTS.md or Makefile command
# line passes to it, if a `go run ./<dir>` in those files names no
# package main, or if a `gplusanalyze <word>` there or in a string of
# a cmd/*/main.go names no sub-command it has. The reachability gates fail if a package under
# internal/ is a non-test import of no cmd/ binary and not of bench,
# or if an exported func, method, type, const or var
# under internal/ is named by no non-test code those mains reach and is
# not listed beside the test that keeps it. The reflection gate fails if
# non-test code of internal/gplusd, gplusapi, crawler or dataset calls
# json.Marshal/Unmarshal/NewEncoder/NewDecoder outside the listed cold
# sites, so encoding/json cannot grow back beside the wire codec.
hygiene:
	$(GO) test -count=1 -run TestMetricsHygiene ./internal/crawler/
	$(GO) test -count=1 -run TestDurableWriteHygiene ./internal/durable/
	$(GO) test -count=1 -run 'TestLabelsAreData|TestFlagsHaveRecipe|TestPackagesReachPipeline|TestSurfaceReachesPipeline|TestReflectionJSONStaysCold' .

# Non-test Go lines per package, bench/ excluded: the size trend ROADMAP
# aim 2 asks every PR to report.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | sort | xargs wc -l \
	    | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	           END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
	    | sort -k2

# Lint with the pinned staticcheck when (and only when) it is installed;
# a missing or differently versioned binary skips with a notice instead
# of failing a network-free checkout.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		have=$$(staticcheck -version 2>/dev/null | head -n1); \
		case "$$have" in \
		*$(STATICCHECK_VERSION)*) staticcheck ./... ;; \
		*) echo "staticcheck: have '$$have', want $(STATICCHECK_VERSION); skipping" ;; \
		esac; \
	else \
		echo "staticcheck: not installed; skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

# The robustness gate: crawl under the full chaos fault suite, kill the
# crawl mid-flight, tear the journal tail, resume, and require exact
# convergence with a fault-free crawl — all under the race detector.
# Once with the edge stream kept in RAM by the crawler tests' sink, once
# on the shape gpluscrawl runs: journal + segment sink, stale segments cleared, the
# journal replayed into a fresh sink, compacted. Both legs run the
# crawler's one overload policy — the one `make brownout` squeezes.
chaos:
	$(GO) test -race -count=1 -run TestChaosKillResumeConvergence -v ./internal/crawler/
	$(GO) test -race -count=1 -run TestSegmentCrawlKillResumeConvergence -v ./internal/dataset/

# The overload-resilience gate: crawl straight through a server brownout
# (latency ramp + admission squeeze) with no kill and no resume, and
# require an identical dataset, retry amplification <= 1.1x, Retry-After
# on every shed, and health reports whose SLO state leaves OK and
# recovers — all under the race detector.
brownout:
	$(GO) test -race -count=1 -run TestBrownoutConvergence -v ./internal/crawler/

# The tracing demo: a short chaos crawl with request tracing on both
# sides of the wire, the client side streaming exemplars into a run
# directory as gpluscrawl -obs-dir does. Fails if <dir>/traces.jsonl
# holds no exemplar or the critical-path analysis is missing; -v prints
# the merged span trees (client attempt spans with gplusd server spans
# joined under them).
trace-demo:
	$(GO) test -count=1 -run TestTraceDemo -v ./internal/crawler/

# The dashboard demo: a short chaos crawl rendered frame-by-frame on the
# live dashboard, subscribed to the report of the same rundir.Start
# watcher `gpluscrawl -dash` draws; -v prints the final frame and the
# offline health report replayed from the same store (outage spike,
# stall, SLO states and violation spans).
dash-demo:
	$(GO) test -count=1 -run TestDashDemo -v ./internal/crawler/

# The continuous-profiling demo, end to end: a brownout chaos crawl
# fills the profile ring of a run directory (interval captures plus the
# anomaly capture the SLO page triggers, every CPU capture read and its
# phase-label attribution asserted in-test by `go tool pprof`), then
# `go tool pprof`, given only the files under <dir>/profiles, prints CPU
# cost by pprof label (phase, endpoint, worker, chaos) and the
# steady-state vs SLO-page comparison by crawl phase: the interval
# captures merged into one baseline, each side normalised to its total.
prof-demo:
	rm -rf /tmp/gplus-prof-demo
	PROF_DEMO_DIR=/tmp/gplus-prof-demo $(GO) test -count=1 -run TestContinuousProfilingE2E -v ./internal/crawler/
	$(GO) tool pprof -tags /tmp/gplus-prof-demo/profiles/cpu-*.pb.gz
	$(GO) tool pprof -proto /tmp/gplus-prof-demo/profiles/cpu-*-interval.pb.gz > /tmp/gplus-prof-demo/steady.pb.gz
	$(GO) tool pprof -symbolize=none -top -cum -nodecount=20 -tagroot=phase -normalize \
	    -diff_base /tmp/gplus-prof-demo/steady.pb.gz /tmp/gplus-prof-demo/profiles/cpu-*-slo-page_*.pb.gz

# Serving/crawling hot-path benchmarks (server throughput by client
# count, scheduler offer/next by worker count, rate limiter, fault
# injection), recorded as a JSON baseline future PRs can diff against.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'ServerThroughput|SchedulerOffer|RateLimiterAllow|FaultInjection|CollectorSample' \
	    -benchmem -count=1 . ./internal/crawler ./internal/gplusd ./internal/obs/series \
	    | $(GO) run ./cmd/benchjson -out BENCH_hotpath.json

# The graph-analytics suite behind the parallelized analysis stage: every
# algorithm on a ~1M-node heavy-tailed synth graph at P in {1,4,8,NumCPU},
# recorded as a JSON baseline future PRs can diff against. Results are
# byte-identical across P (tested); only wall-clock should move.
bench-analysis:
	$(GO) test -run '^$$' -bench 'BenchmarkAnalysis' -benchmem -benchtime=1x -count=1 -timeout 30m ./internal/graph \
	    | $(GO) run ./cmd/benchjson -out BENCH_analysis.json

# The out-of-core storage suite: segment ingest, compaction, v2
# encode, load (materialize vs verified mmap vs unverified mmap), and
# the two kernel access patterns (sequential sweep, random row probes)
# over both backends, recorded as a JSON baseline future PRs can diff
# against. `make paperscale` later merges its rows into the same file
# without disturbing these.
bench-storage:
	$(GO) test -run '^$$' -bench 'BenchmarkStorage' -benchmem -benchtime=1x -count=1 -timeout 30m ./internal/graph/diskcsr \
	    | $(GO) run ./cmd/benchjson -out BENCH_storage.json

# The paper-scale acceptance run for the out-of-core pipeline: stream a
# >=10M-node/>=200M-edge synthetic edge list into segments,
# compact them into one CSR v2 file, run degrees/WCC/triangles over the
# memory-mapped form, then materialize and require byte-identical
# results in RAM. Stage timings and peak-RSS checkpoints are merged
# into BENCH_storage.json as PaperScale/* rows. Needs a few GB of disk
# in GPLUS_PAPERSCALE_DIR (default /tmp) and tens of minutes.
paperscale:
	GPLUS_PAPERSCALE=1 GPLUS_PAPERSCALE_DIR=/tmp/gplus-paperscale \
	    GPLUS_BENCH_OUT=$(CURDIR)/BENCH_storage.json \
	    $(GO) test -count=1 -run TestPaperScale -v -timeout 120m ./internal/graph/diskcsr/
	rm -rf /tmp/gplus-paperscale

# Design-choice ablations, the seed-sensitivity experiment and the §2.2
# lost-edge crawl: the experiments of EXPERIMENTS.md that crawl or
# regenerate a universe, so `make experiments` does not print them.
ablations:
	$(GO) test -run '^$$' -bench='Ablation|SeedSensitivity|LostEdges' -benchtime=1x .

fuzz:
	$(GO) test -fuzz=FuzzToProfile -fuzztime=30s ./internal/gplusapi/
	$(GO) test -fuzz=FuzzWireCodec -fuzztime=30s ./internal/gplusapi/
	$(GO) test -fuzz=FuzzRequestURL -fuzztime=30s ./internal/gplusapi/
	$(GO) test -fuzz=FuzzMultiSourceBFS -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzTriads -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzSortEdges -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzSortedCopy -fuzztime=30s ./internal/stats/
	$(GO) test -fuzz=FuzzOpenV2 -fuzztime=30s ./internal/graph/diskcsr/
	$(GO) test -fuzz=FuzzCompact -fuzztime=30s ./internal/graph/diskcsr/
	$(GO) test -fuzz=FuzzSegment -fuzztime=30s ./internal/graph/diskcsr/
	$(GO) test -fuzz=FuzzReadResult -fuzztime=30s ./internal/crawler/
	$(GO) test -fuzz=FuzzParseFaultSpec -fuzztime=30s ./internal/gplusd/
	$(GO) test -fuzz=FuzzSeriesName -fuzztime=30s ./internal/obs/
	$(GO) test -fuzz=FuzzSeriesLog -fuzztime=30s -fuzzminimizetime=1s ./internal/obs/series/

# The quick fuzz leg of `make check`: the checkpoint/journal parser and
# the series.jsonl tick decoder read the formats a crash can hand
# arbitrary torn bytes to (the crawl journal, a run directory's series
# log, appended every sample; the health report is built over every log
# the decoder reads, duplicated, unsorted and sparse ticks included, which
# costs about a millisecond an input, so a 1 s cap on minimising each new
# input keeps the default 60 s minimisation from eating the leg), the wire
# codec is the parser every network byte and every profile-column byte
# goes through (held to encoding/json as its oracle), diskcsr.Open is
# the one graph reader, so every graph.v2 byte of every dataset goes
# through it (seeded with the dataset package's golden graph.v2), Compact
# is the one writer of every crawled graph.v2 (held byte for byte to
# WriteGraph of the Builder's graph at GOMAXPROCS 1, 2 and 3) and the
# one reader of segment files, which a crash or a leftover older format
# can hand any bytes (fuzzed bytes as a segment must fail naming it or
# compact to a graph Open verifies), the triad
# pass is the one kernel three figures share, the multi-source BFS is
# the one kernel behind Figure 5 and both diameter bounds (held lane by
# lane to the single-source BFS, in both step kinds), the radix edge
# sort is the one order every compaction and Builder graph
# rests on, and the same kernel under sortedCopy orders every CDF and
# CCDF (held to sort.Float64s as its oracle).
fuzz-short:
	$(GO) test -run '^$$' -fuzz=FuzzWireCodec -fuzztime=10s ./internal/gplusapi/
	$(GO) test -run '^$$' -fuzz=FuzzReadResult -fuzztime=10s ./internal/crawler/
	$(GO) test -run '^$$' -fuzz=FuzzSeriesLog -fuzztime=10s -fuzzminimizetime=1s ./internal/obs/series/
	$(GO) test -run '^$$' -fuzz=FuzzOpenV2 -fuzztime=10s ./internal/graph/diskcsr/
	$(GO) test -run '^$$' -fuzz=FuzzCompact -fuzztime=10s ./internal/graph/diskcsr/
	$(GO) test -run '^$$' -fuzz=FuzzSegment -fuzztime=10s ./internal/graph/diskcsr/
	$(GO) test -run '^$$' -fuzz=FuzzTriads -fuzztime=10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz=FuzzMultiSourceBFS -fuzztime=10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz=FuzzSortEdges -fuzztime=10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz=FuzzSortedCopy -fuzztime=10s ./internal/stats/

# Generate a dataset and audit it against the paper's published claims,
# at the default analysis seed and at a second one: the sampled checks
# (path lengths, Figure 9's pair samples) must not pass by sample luck.
verify:
	$(GO) run ./cmd/gplusgen -nodes 100000 -out /tmp/gplus-verify-data
	$(GO) run ./cmd/gplusverify -data /tmp/gplus-verify-data
	$(GO) run ./cmd/gplusverify -data /tmp/gplus-verify-data -analysis-seed 7

# The measured half of EXPERIMENTS.md: a dataset at the documented size
# and seeds, the whole study over it as Markdown (audit, every table and
# figure, Table 4's baselines), written in place between the document's
# two "generated" marker lines. TestExperimentsGenerated runs these same
# lines into a temporary directory and fails unless the document's block
# is what they print.
EXPERIMENTS_DATA = /tmp/gplus-experiments-data

experiments:
	$(GO) run ./cmd/gplusgen -nodes 100000 -out $(EXPERIMENTS_DATA)
	$(GO) run ./cmd/gplusanalyze -data $(EXPERIMENTS_DATA) -format md -baselines > $(EXPERIMENTS_DATA)/measured.md
	awk -v measured=$(EXPERIMENTS_DATA)/measured.md \
	    '/^<!-- end generated/ { skip = 0 } !skip { print } /^<!-- begin generated/ { while ((getline line < measured) > 0) print line; skip = 1 }' \
	    EXPERIMENTS.md > $(EXPERIMENTS_DATA)/EXPERIMENTS.md
	cp $(EXPERIMENTS_DATA)/EXPERIMENTS.md EXPERIMENTS.md

clean:
	rm -rf /tmp/gplus-verify-data $(EXPERIMENTS_DATA) /tmp/gplus-prof-demo /tmp/gplus-paperscale
