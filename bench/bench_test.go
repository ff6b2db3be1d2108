package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark re-executes its own binary for every repetition; under
// go test that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations holds BENCHMARK.json and the program's own tables in
// step, both ways, and checks the contract's grammar and limits.
func TestDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := decl.Workloads[i]
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the name or why grammar", w.name)
		}
	}
	check := func(kind string, got []declared, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the program emits %d", len(got), kind, len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			d := got[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != m.bound || m.bound > 0.25)) {
				t.Errorf("%s metric %q: bound %v, the program's %v", kind, m.name, d.Bound, m.bound)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s metric %q (%q) breaks the grammar or repeats", kind, m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, m.name, m.better)
			}
			seen[m.name] = true
		}
	}
	check("end-to-end", decl.EndToEnd, endToEnd, true)
	check("per-layer", decl.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) > 8 {
		t.Errorf("over the contract's limits: %d end-to-end, %d per-layer, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
}

// moved lists, per workload, the per-layer metrics its traced
// repetition must have measured (everything else may read 0 there).
var moved = map[string][]string{
	"crawl_e2e": {
		"synth.generate_s", "synth.edges",
		"gplusd.requests", "gplusd.busy_s", "gplusd.busy_share", "gplusd.serve_p50_us", "gplusd.serve_p99_us", "gplusd.bytes_out",
		"gplusapi.replay_s", "gplusapi.fetch_p50_us", "gplusapi.fetch_p99_us", "gplusapi.client_self_us", "gplusapi.allocs_per_fetch",
		"crawler.crawl_s", "crawler.pages", "crawler.edges_observed", "crawler.requests_per_profile", "crawler.overhead_ratio",
		"crawler.journal_bytes", "crawler.journal_bootstrap_s", "crawler.journal_load_s",
		"dataset.sink_busy_s", "dataset.sink_edges", "dataset.from_crawl_segments_s", "dataset.profiles_bytes",
		"obs.crawl_overhead_ratio", "bench.trace_overhead_ratio", "bench.pace",
	},
	"study_ram": {
		"synth.generate_s", "dataset.save_v2_s", "dataset.load_s",
		"graph.seq_scan_edges_per_s", "graph.random_row_ns",
		"graph.triangles.pN_s", "graph.triangles.p1_s", "graph.triangles.efficiency", "graph.paths.efficiency", "graph.triangles.allocs",
		"core.structure_s", "core.topology_s", "core.node_tables_s", "core.geo_tables_s",
		"core.stage.paths_s", "core.stage.motifs_s", "core.structure_overlap", "core.audit_pass",
		"report.render_s", "bench.trace_overhead_ratio", "bench.pace",
	},
	"study_mmap": {
		"synth.generate_s", "dataset.save_v2_s", "dataset.load_s",
		"diskcsr.seq_scan_edges_per_s", "diskcsr.seq_scan_allocs_per_row", "diskcsr.random_row_ns", "diskcsr.random_row_allocs_per_row",
		"graph.triangles.pN_s", "graph.motifs.pN_s", "graph.paths.pN_s",
		"core.structure_s", "core.topology_s", "core.stage.paths_s", "core.stage.motifs_s", "core.structure_overlap",
		"report.render_s", "bench.trace_overhead_ratio", "bench.pace",
	},
	"ingest_compact": {
		"synth.generate_s",
		"diskcsr.segment_write_s", "diskcsr.segment_write_edges_per_s", "diskcsr.segments", "diskcsr.segment_bytes",
		"diskcsr.compact_s", "diskcsr.compact_edges_per_s", "diskcsr.open_verify_s", "diskcsr.materialize_s", "diskcsr.v2_bytes",
		"bench.trace_overhead_ratio", "bench.pace",
	},
}

// TestSmoke runs every workload at 2 000 users, traced: all four pass
// their correctness checks, and the result lines carry exactly the
// declared metrics with their units.
func TestSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	small := append([]workload(nil), workloads...)
	for i := range small {
		small[i].users = 2_000
	}
	var stdout bytes.Buffer
	out := filepath.Join(t.TempDir(), "smoke.json")
	cfg := &config{
		workloads: small, seed: 1, reps: 2, trace: true, out: out,
		workRoot: filepath.Join(t.TempDir(), "work"), exe: exe, stdout: &stdout, stderr: os.Stderr,
	}
	correct, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	if !correct {
		t.Fatalf("a correctness check failed:\n%s", stdout.String())
	}
	doc, err := readDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Stamp.NProc < 1 || doc.Stamp.GoVersion == "" || doc.Stamp.Date == "" {
		t.Errorf("result document is not stamped: %+v", doc.Stamp)
	}
	for _, w := range small {
		res := doc.Workloads[w.name]
		if res == nil {
			t.Fatalf("%s: no result", w.name)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
		for _, traced := range []bool{false, true} {
			var line bytes.Buffer
			if err := printWorkload(&config{stdout: &line, trace: traced}, w, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(line.String()), "\n")
			var got struct {
				Correct   bool             `json:"correct"`
				Attempted int64            `json:"attempted"`
				Failed    int64            `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s: metric %q printed as %+v (present %v), declared unit %q", w.name, m.name, v, ok, m.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q = %v, want > 0", w.name, m.name, v.Value)
				}
			}
		}
		for _, name := range moved[w.name] {
			if res.PerLayer[name].Value <= 0 {
				t.Errorf("%s: per-layer metric %q = %v, want > 0", w.name, name, res.PerLayer[name].Value)
			}
		}
		if len(res.SelfS) == 0 {
			t.Errorf("%s: no self times from the traced repetition", w.name)
		}
		spans := strings.TrimSuffix(out, ".json") + "." + w.name + ".measure.spans.jsonl"
		if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
			t.Errorf("%s: spans file %s missing or empty (%v)", w.name, spans, err)
		}
	}
	if _, err := os.Stat(cfg.workRoot); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s not removed: %v", cfg.workRoot, err)
	}
}

// TestQuartiles pins the port of Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompare checks the three verdicts -compare is there for.
func TestCompare(t *testing.T) {
	wall := metricSpec{name: "wall_s", unit: "s", better: "lower", bound: 0.10}
	sample := func(values ...float64) summary { return summarize(values, "s") }
	steady := sample(1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		name string
		b    summary
		want string
	}{
		{"same", sample(1.01, 1.00, 1.00, 0.99), "unchanged"},
		{"slower", sample(1.20, 1.21, 1.19, 1.20), "REGRESSED"},
		{"faster", sample(0.80, 0.81, 0.79, 0.80), "improved"},
		{"noisy", sample(0.80, 1.25, 0.90, 1.10), "unresolved"},
	} {
		if got := judge(wall, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, wallValues ...float64) string {
		doc := document{Workloads: map[string]*workloadResult{"study_ram": {EndToEnd: map[string]summary{}}}}
		for _, m := range endToEnd {
			doc.Workloads["study_ram"].EndToEnd[m.name] = steady
		}
		doc.Workloads["study_ram"].EndToEnd["wall_s"] = sample(wallValues...)
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1.00, 1.01, 0.99, 1.00)
	b := write("b.json", 1.30, 1.31, 1.29, 1.30)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("A against itself: regressed %v, err %v\n%s", regressed, err, out.String())
	}
	if regressed, err := compareFiles(&out, a, b); err != nil || !regressed {
		t.Errorf("30%% slower: regressed %v, err %v\n%s", regressed, err, out.String())
	}
}
