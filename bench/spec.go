package main

import (
	"fmt"
	"runtime"
)

// The names declared here are the benchmark's vocabulary: BENCHMARK.json
// lists exactly these workloads and metrics (bench_test.go holds the two
// in step), and every later performance claim cites them.

// universeSeed generates every workload's synthetic universe. It is a
// constant, not derived from -seed: at the committed sizes the
// heavy-tailed generator's edge count moves by ±8% and the study's wall
// by ±15% from one universe seed to the next, which would drown a 10%
// regression bound in input variation. -seed drives what can vary at
// constant work: the crawl's start profile, and the ingest stream's node
// order and provisional numbering.
const universeSeed = 2011

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// users is the synthetic universe's size. The issue's sizes (60 k,
	// 150 k, 50 k, 200 k) are scaled by one common factor of 1/8 so that
	// three repetitions of the slowest workload fit the run length the
	// driver allows; they are fixed from here on.
	users int
	// prepare reports that the inputs are written to disk by a separate
	// child process, so that nothing the generator allocated is resident
	// while the timed region runs.
	prepare bool
	why     string
}

var workloads = []workload{
	{name: "crawl_e2e", users: 7_500,
		why: "7500-user universe served by in-process gplusd on loopback: crawl with journal and segment sink, then compaction to a validated mapped dataset. The one workload where server, client and crawler work"},
	{name: "study_ram", users: 18_750, prepare: true,
		why: "18750-user v2 dataset loaded into RAM, then the full gplusanalyze sequence: kernel-dominated, no network, no row decoding. A mapped-path fix must show no change here"},
	{name: "study_mmap", users: 6_250, prepare: true,
		why: "6250-user v2 dataset, same sequence through the memory-mapped view: diskcsr row decoding dominates (4.5x the RAM study of the same data). Where the row-access redesign must show"},
	{name: "ingest_compact", users: 25_000,
		why: "25000-user graph, every edge observed twice in seeded order under a provisional numbering: segment write, compact with remap, verified open, materialize. Write side of storage; no HTTP, no kernels"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// segmentBuffer is the diskcsr.Writer flush threshold for a universe of
// the given size: the issue's 1<<18 edges at 200 k users, scaled with
// the universe so the segment count (and so the merge fan-in) stays
// what it was at full size. 25 000 users give 1<<15.
func segmentBuffer(users int) int {
	return users * (1 << 18) / 200_000
}

// parallelism is the thread budget of every layer under test: crawl
// workers, replay clients and core.Options.Parallelism. Never more
// threads or connections than cores.
func parallelism() int { return runtime.GOMAXPROCS(0) }

// metricSpec declares one metric.
type metricSpec struct {
	name string
	unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare reports a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd are the metrics a user of the pipeline would see. Every
// workload reports every one of them, so the timed region has one name
// on all four: wall_s is the issue's crawl_to_dataset_s on crawl_e2e,
// study_s on study_* and ingest_s (extended over Materialize) on
// ingest_compact; work_per_s is crawl_profiles_per_s on crawl_e2e.
//
// Times and rates are paced (yardstick.go): the reference box is a
// 2-vCPU VM on a shared host whose speed moves by up to 2x for minutes at
// a time with its neighbours' load, and no statistic over a run's
// repetitions averages that out. Their bounds are still the widest the
// contract allows: pacing brings ten runs of one commit within 5% of each
// other, but a single run made while the whole guest stalls can be 30%
// off.
var endToEnd = []metricSpec{
	// Universe generation, dataset preparation, server start. Paced.
	{"setup_s", "s", "lower", 0.25},
	// The timed region, start to validated result. Paced.
	{"wall_s", "s", "lower", 0.25},
	// Work completed per paced second at the stated input size: profiles
	// crawled per second of crawler.Crawl (crawl_e2e), graph edges
	// studied per second of wall_s (study_*), edge observations
	// ingested per second of wall_s (ingest_compact).
	{"work_per_s", "1/s", "higher", 0.25},
	// User+system CPU of the timed region (getrusage delta). Paced by
	// the yardstick's CPU time.
	{"cpu_s", "s", "lower", 0.25},
	// The measuring child's own high-water mark. Garbage-collection
	// timing moves it between two levels 10% apart on ingest_compact, and
	// a run's median lands on either: ten runs spread by up to 7%.
	{"peak_rss_mib", "MiB", "lower", 0.25},
	// v2 graph file bytes per distinct edge: the file the workload
	// wrote (crawl_e2e, ingest_compact) or read (study_*). Exact.
	{"bytes_per_edge", "B", "lower", 0.01},
}

var kernels = []string{"degrees", "reciprocity", "wcc", "scc", "clustering", "triangles", "motifs", "paths"}

var stages = []string{"degrees", "reciprocity", "clustering", "scc", "wcc", "paths", "motifs"}

// perLayer are the metrics of single layers, named <module>.<metric>.
// A traced run reports every one on every workload; a layer a workload
// does not call reports 0, which is the prediction "this layer moves
// nothing here" made checkable.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{name: "synth.generate_s", unit: "s", better: "lower"},
		{name: "synth.edges", unit: "count", better: "higher"},

		{name: "gplusd.requests", unit: "count", better: "lower"},
		{name: "gplusd.busy_s", unit: "s", better: "lower"},
		{name: "gplusd.busy_share", unit: "ratio", better: "lower"},
		{name: "gplusd.serve_p50_us", unit: "us", better: "lower"},
		{name: "gplusd.serve_p99_us", unit: "us", better: "lower"},
		{name: "gplusd.bytes_out", unit: "B", better: "lower"},

		{name: "gplusapi.replay_s", unit: "s", better: "lower"},
		{name: "gplusapi.fetch_p50_us", unit: "us", better: "lower"},
		{name: "gplusapi.fetch_p99_us", unit: "us", better: "lower"},
		{name: "gplusapi.client_self_us", unit: "us", better: "lower"},
		{name: "gplusapi.allocs_per_fetch", unit: "count", better: "lower"},

		{name: "crawler.crawl_s", unit: "s", better: "lower"},
		{name: "crawler.pages", unit: "count", better: "lower"},
		{name: "crawler.edges_observed", unit: "count", better: "lower"},
		{name: "crawler.requests_per_profile", unit: "ratio", better: "lower"},
		{name: "crawler.errors", unit: "count", better: "lower"},
		{name: "crawler.requeued", unit: "count", better: "lower"},
		{name: "crawler.overhead_ratio", unit: "ratio", better: "lower"},
		{name: "crawler.journal_bytes", unit: "B", better: "lower"},
		{name: "crawler.journal_bootstrap_s", unit: "s", better: "lower"},
		{name: "crawler.journal_load_s", unit: "s", better: "lower"},

		{name: "dataset.sink_busy_s", unit: "s", better: "lower"},
		{name: "dataset.sink_edges", unit: "count", better: "lower"},
		{name: "dataset.from_crawl_segments_s", unit: "s", better: "lower"},
		{name: "dataset.profiles_bytes", unit: "B", better: "lower"},
		{name: "dataset.load_s", unit: "s", better: "lower"},
		{name: "dataset.save_v2_s", unit: "s", better: "lower"},

		{name: "diskcsr.segment_write_s", unit: "s", better: "lower"},
		{name: "diskcsr.segment_write_edges_per_s", unit: "edges/s", better: "higher"},
		{name: "diskcsr.segments", unit: "count", better: "lower"},
		{name: "diskcsr.segment_bytes", unit: "B", better: "lower"},
		{name: "diskcsr.compact_s", unit: "s", better: "lower"},
		{name: "diskcsr.compact_edges_per_s", unit: "edges/s", better: "higher"},
		{name: "diskcsr.open_verify_s", unit: "s", better: "lower"},
		{name: "diskcsr.materialize_s", unit: "s", better: "lower"},
		{name: "diskcsr.v2_bytes", unit: "B", better: "lower"},
		{name: "diskcsr.seq_scan_edges_per_s", unit: "edges/s", better: "higher"},
		{name: "diskcsr.seq_scan_allocs_per_row", unit: "allocs/row", better: "lower"},
		{name: "diskcsr.random_row_ns", unit: "ns", better: "lower"},
		{name: "diskcsr.random_row_allocs_per_row", unit: "allocs/row", better: "lower"},

		{name: "graph.seq_scan_edges_per_s", unit: "edges/s", better: "higher"},
		{name: "graph.random_row_ns", unit: "ns", better: "lower"},
	}
	for _, k := range kernels {
		m = append(m,
			metricSpec{name: "graph." + k + ".pN_s", unit: "s", better: "lower"},
			metricSpec{name: "graph." + k + ".p1_s", unit: "s", better: "lower"},
			metricSpec{name: "graph." + k + ".efficiency", unit: "ratio", better: "higher"})
	}
	m = append(m, metricSpec{name: "graph.triangles.allocs", unit: "count", better: "lower"})
	m = append(m,
		metricSpec{name: "core.structure_s", unit: "s", better: "lower"},
		metricSpec{name: "core.topology_s", unit: "s", better: "lower"},
		metricSpec{name: "core.node_tables_s", unit: "s", better: "lower"},
		metricSpec{name: "core.geo_tables_s", unit: "s", better: "lower"})
	for _, s := range stages {
		m = append(m, metricSpec{name: "core.stage." + s + "_s", unit: "s", better: "lower"})
	}
	return append(m,
		metricSpec{name: "core.structure_overlap", unit: "ratio", better: "higher"},
		metricSpec{name: "core.audit_pass", unit: "count", better: "higher"},
		metricSpec{name: "report.render_s", unit: "s", better: "lower"},
		metricSpec{name: "obs.crawl_overhead_ratio", unit: "ratio", better: "lower"},
		metricSpec{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
		metricSpec{name: "bench.pace", unit: "ratio", better: "lower"})
}()
