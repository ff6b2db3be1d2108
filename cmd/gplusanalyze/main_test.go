package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
	"gplus/internal/paper"
	"gplus/internal/synth"
)

// TestRunDirectoryEndToEnd is the loop the binaries ship, in one
// process: the stack gpluscrawl wires (rundir.Start on a run directory)
// rides a short chaos crawl against an in-process gplusd, Close
// completes the directory, and both analyzers — given the directory and
// nothing else — must have something to say: a throughput curve and a
// critical-path table.
func TestRunDirectoryEndToEnd(t *testing.T) {
	cfg := synth.DefaultConfig(2_500)
	cfg.Seed = 1234
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The trace-demo fault mix: enough misbehaviour to exercise retries,
	// errors and slow requests, not enough to keep the crawl from
	// finishing.
	srv := httptest.NewServer(gplusd.New(u, gplusd.Options{
		Tracer: trace.New(trace.Config{}),
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultUnavailable, Rate: 0.05},
			{Kind: gplusd.FaultDelay, Rate: 0.05, Delay: 10 * time.Millisecond},
			{Kind: gplusd.FaultReset, Rate: 0.03},
			{Kind: gplusd.FaultHang, Rate: 0.005, Delay: 300 * time.Millisecond},
		}},
	}))
	defer srv.Close()

	dir := t.TempDir()
	run, err := rundir.Start(rundir.Config{
		Dir:     dir,
		Series:  series.Options{Interval: 25 * time.Millisecond, Capacity: 4096},
		Signals: series.CrawlSignals(),
		Trace:   trace.Config{SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := dataset.NewSegmentSink(filepath.Join(t.TempDir(), ".segments"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawler.Crawl(context.Background(), crawler.Config{
		BaseURL: srv.URL,
		Seeds:   []string{u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]},
		Workers: 8, FetchIn: true, FetchOut: true,
		MaxProfiles:      1000,
		AttemptTimeout:   150 * time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
		Metrics:          run.Registry,
		Tracer:           run.Tracer,
		EdgeSink:         sink,
	})
	if cerr := run.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil || res.Stats.ProfilesCrawled == 0 {
		t.Fatalf("chaos crawl: %d profiles, err=%v", res.Stats.ProfilesCrawled, err)
	}

	analyze := func(sub func(w *bytes.Buffer) error) string {
		t.Helper()
		var out bytes.Buffer
		if err := sub(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	metrics := analyze(func(w *bytes.Buffer) error { return runMetrics(w, []string{dir}) })
	if m := regexp.MustCompile(`peak ([0-9.]+)/s  total ([0-9]+) profiles`).FindStringSubmatch(metrics); m == nil || m[1] == "0.00" || m[2] != strconv.Itoa(res.Stats.ProfilesCrawled) {
		t.Errorf("metrics: throughput curve does not count the %d profiles crawled:\n%s", res.Stats.ProfilesCrawled, metrics)
	}

	traces := analyze(func(w *bytes.Buffer) error { return runTraces(w, []string{"-top", "1", dir}) })
	for _, want := range []string{"critical-path breakdown", "crawl.profile", "retry amplification"} {
		if !strings.Contains(traces, want) {
			t.Errorf("traces: analysis lacks %q:\n%s", want, traces)
		}
	}
	t.Logf("gplusanalyze metrics %s:\n%s", dir, metrics)
}

// TestMetricsOnAGplusdRunDirectory: the directory a gplusd -obs-dir run
// leaves is read as what it is — requests served against injected
// faults, under the server's objectives — and not as a crawl that
// fetched nothing. Which one it is comes from the families in the dump.
func TestMetricsOnAGplusdRunDirectory(t *testing.T) {
	cfg := synth.DefaultConfig(200)
	cfg.Seed = 20
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run, err := rundir.Start(rundir.Config{
		Dir:     dir,
		Series:  series.Options{Interval: 10 * time.Millisecond},
		Signals: series.GplusdSignals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := gplusd.New(u, gplusd.Options{Metrics: run.Registry})
	const served = 37
	for i := 0; i < served; i++ {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/people/"+u.IDs[i], nil))
		if i%10 == 0 {
			time.Sleep(15 * time.Millisecond) // spread the requests over a few ticks
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runMetrics(&out, []string{dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gplusd health", "requests/s", "total 37 requests", "p99(gplusd_request_seconds)", "gplusd_chaos_faults_total / gplusd_requests_total"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, &out)
		}
	}
	if strings.Contains(out.String(), "frontier") || strings.Contains(out.String(), "gplusapi_") {
		t.Errorf("a gplusd run reported as a crawl:\n%s", &out)
	}
	// An explicit -slo still wins over the detected defaults.
	out.Reset()
	if err := runMetrics(&out, []string{"-slo", "mine,latency,hist=gplusd_request_seconds,q=0.5,max=1s", dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mine") || strings.Contains(out.String(), "availability") {
		t.Errorf("-slo did not replace the default objectives:\n%s", &out)
	}
}

// TestOldRunDirectoryGolden reads a run directory an earlier build
// wrote — series.jsonl, and a traces.jsonl holding the streamed
// exemplar first, then the ring traces the stream did not carry — and
// requires both analyzers to print exactly what that build printed over
// it: the offline reports do not move by a byte.
func TestOldRunDirectoryGolden(t *testing.T) {
	dir := filepath.Join("testdata", "old-run")
	for sub, analyze := range map[string]func(*bytes.Buffer) error{
		"metrics": func(w *bytes.Buffer) error { return runMetrics(w, []string{dir}) },
		"traces":  func(w *bytes.Buffer) error { return runTraces(w, []string{dir}) },
	} {
		want, err := os.ReadFile(dir + "." + sub + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := analyze(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("gplusanalyze %s %s:\n%s\nwant:\n%s", sub, dir, &got, want)
		}
	}
}

// TestCutDumpIsAnalyzedWithAWarning: a dump whose last record has no
// newline (a killed writer, a hand-saved /debug dump) is analyzed
// without that record, and the user is told which file lost it.
func TestCutDumpIsAnalyzedWithAWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.jsonl")
	if err := os.WriteFile(path, []byte("{\"trace_id\":\"a\"}\n{\"trace_id\":\"b"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned, out bytes.Buffer
	log.SetOutput(&warned)
	defer log.SetOutput(os.Stderr)
	if err := runTraces(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	if want := "dropped 1 unterminated trailing record from " + path; !strings.Contains(warned.String(), want) {
		t.Errorf("log %q lacks %q", warned.String(), want)
	}
	if !strings.Contains(out.String(), "1 traces") {
		t.Errorf("the complete trace was not analyzed:\n%s", out.String())
	}
}

// TestOnlyPaysForTheStagesItNames drives the study runner in-process:
// the stage breakdown of an -only run lists exactly the stages behind
// the experiments it names, the audit opens the whole report in either
// format and its failed checks are run's error once the report is
// printed, -format md honours -only, -baselines and -cap as text does,
// and a mistyped id or an unknown -format is a usage error instead of a
// report the command line did not ask for.
func TestOnlyPaysForTheStagesItNames(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	all := []string{"degrees", "fig9", "paths", "reciprocity", "scc", "triads", "wcc"}
	for _, tc := range []struct {
		only    string
		plotdir bool
		more    []string // further arguments
		stages  []string
		prints  []string // what stdout must hold
	}{
		{only: "fig3", stages: []string{"degrees"}},
		{only: "table4", stages: []string{"paths", "reciprocity"}},
		{only: "table4,fig5,fig4", stages: []string{"paths", "reciprocity", "scc", "triads"}},
		{only: "table1,lostedges"},
		// The audit reads every stage, Figure 9's pair sample included.
		{only: "audit", stages: all},
		{stages: all},
		// -plotdir writes Figure 9's CDFs and the text report prints
		// them: one pair sample serves both.
		{plotdir: true, stages: all},
		// md takes -only, -baselines and -cap as text does; the audit
		// comes with the whole report, as in text.
		{only: "table2", more: []string{"-format", "md"}, prints: []string{"## table2\n\n```\nTable 2:"}},
		{more: []string{"-format", "md", "-baselines"}, stages: all, prints: []string{"## audit\n", "Twitter-like", "## lostedges\n"}},
		{only: "lostedges", more: []string{"-format", "md", "-cap", "5000"}, prints: []string{"Lost edges (cap 5000)"}},
	} {
		args := append([]string{"-data", dir, "-only", tc.only}, tc.more...)
		if tc.plotdir {
			args = append(args, "-plotdir", t.TempDir())
		}
		var stdout, stderr bytes.Buffer
		err := run(&stdout, &stderr, args)
		// A universe this small fails some of the paper's checks: the
		// report is printed whole, then run returns how many failed.
		audited := tc.only == "" || tc.only == "audit"
		failed := len(failRow.FindAllString(stdout.String(), -1))
		if audited && (failed == 0 || err == nil || err.Error() != fmt.Sprintf("%d of %d checks failed", failed, len(paper.Checks()))) {
			t.Errorf("%v: %d audit rows say FAIL, run returned %v", args, failed, err)
		} else if !audited && err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if stdout.Len() == 0 {
			t.Errorf("-only %q printed nothing", tc.only)
		}
		for _, want := range tc.prints {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, stdout.String())
			}
		}
		if audit := strings.Contains(stdout.String(), " checks passed\n"); audit != audited {
			t.Errorf("%v: audit printed = %v", args, audit)
		}
		// The audit, when printed, is the report's first experiment.
		out := stdout.String()
		opens := strings.HasPrefix(out, "check ")
		if slices.Contains(tc.more, "md") {
			opens = strings.Index(out, "## ") == strings.Index(out, "## audit\n")
		}
		if audited && !opens {
			t.Errorf("%v: the report does not open with the audit:\n%s", args, out)
		}
		var stages []string
		if _, breakdown, ok := strings.Cut(stderr.String(), "analysis stage wall-clock:\n"); ok {
			for _, line := range strings.Split(strings.TrimSpace(breakdown), "\n") {
				stages = append(stages, strings.Fields(line)[0])
			}
			sort.Strings(stages)
		}
		if !reflect.DeepEqual(stages, tc.stages) {
			t.Errorf("-only %q computed stages %v, want %v:\n%s", tc.only, stages, tc.stages, stderr.String())
		}
	}

	// A rejected command line is a usage error naming what was wrong with
	// it, and prints no report.
	study := func(args ...string) []string { return append([]string{"-data", dir}, args...) }
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{study("-only", "tabel4,fig33"), []string{`"tabel4"`, "table4, table5, fig2"}},
		{study("-format", "json"), []string{"-format", `"json"`, "text, md"}},
		{[]string{"trace", dir}, []string{`"trace"`, "traces, metrics"}},
		{[]string{"profiles", dir}, []string{`"profiles"`, "traces, metrics"}},
		{[]string{"traces"}, []string{"no source", "usage: gplusanalyze traces"}},
		{[]string{"metrics", "-top", "3", dir}, []string{"-top", "usage: gplusanalyze metrics"}},
		// Two runs' counters would interleave in time, every drop between
		// them read as a restart: metrics takes one source.
		{[]string{"metrics", dir, dir}, []string{"2 sources given", "metrics reads one run", "usage: gplusanalyze metrics"}},
	} {
		var stdout, stderr bytes.Buffer
		err := run(&stdout, &stderr, tc.args)
		if !errors.As(err, new(usageError)) {
			t.Errorf("%v: err = %v, want a usage error", tc.args, err)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: usage error %q does not mention %s", tc.args, err, want)
			}
		}
		if stdout.Len() > 0 {
			t.Errorf("%v still printed:\n%s", tc.args, stdout.String())
		}
	}
}

// TestStudyFlagsReturnToRun: a study command line the flag package
// rejects comes back from run, not as an exit of the process — a usage
// error carrying flag's complaint, after the usage on stderr — and -h
// prints the usage and returns nil, which main exits 0 on.
func TestStudyFlagsReturnToRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in the error; "" for none
	}{
		{[]string{"-fromat", "md"}, "flag provided but not defined: -fromat"},
		{[]string{"-parallelism", "many"}, `invalid value "many" for flag -parallelism`},
		{[]string{"-h"}, ""},
	} {
		var stdout, stderr bytes.Buffer
		err := run(&stdout, &stderr, tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: err = %v, want nil", tc.args, err)
		case tc.want != "" && (!errors.As(err, new(usageError)) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want a usage error saying %s", tc.args, err, tc.want)
		}
		if !strings.Contains(stderr.String(), "Usage of gplusanalyze:") || !strings.Contains(stderr.String(), "-mmap") {
			t.Errorf("%v: stderr lacks the usage:\n%s", tc.args, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v printed a report:\n%s", tc.args, stdout.String())
		}
	}
}

// failRow matches a row of the audit table that says FAIL.
var failRow = regexp.MustCompile(`(?m)^\S+ +FAIL `)

// TestAuditTable drives the audit experiment in-process on a dataset
// written the way gplusgen writes one, at the default analysis seed and
// another: one row per paper check in the checks' order, a footer
// counting the rows that say PASS, the blank line every text experiment
// ends with, and an error naming how many rows say FAIL exactly when
// one does (a universe this small does not pass every check). The audit
// over the memory-mapped graph prints the same bytes and fails the
// same way.
func TestAuditTable(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	checks := paper.Checks()
	for _, seed := range []string{"2012", "7"} {
		audit := func(more ...string) (string, error) {
			var stdout, stderr bytes.Buffer
			err := run(&stdout, &stderr, append([]string{"-data", dir, "-analysis-seed", seed, "-only", "audit"}, more...))
			return stdout.String(), err
		}
		stdout, runErr := audit()
		if mapped, mappedErr := audit("-mmap"); mapped != stdout || fmt.Sprint(mappedErr) != fmt.Sprint(runErr) {
			t.Errorf("seed %s: mapped audit (%v):\n%s\nin-RAM audit (%v):\n%s", seed, mappedErr, mapped, runErr, stdout)
		}

		out, ok := strings.CutSuffix(stdout, "\n\n")
		if !ok {
			t.Fatalf("seed %s: the audit does not end in a blank line:\n%s", seed, stdout)
		}
		table, footer, ok := strings.Cut(out, "\n\n")
		if !ok {
			t.Fatalf("seed %s: no blank line between table and footer:\n%s", seed, stdout)
		}
		rows := strings.Split(table, "\n")[1:] // less the header
		if len(rows) != len(checks) {
			t.Fatalf("seed %s: %d rows for %d checks:\n%s", seed, len(rows), len(checks), table)
		}
		passed := 0
		for i, row := range rows {
			f := strings.Fields(row)
			if f[0] != checks[i].ID {
				t.Errorf("seed %s: row %d is %s, want %s", seed, i, f[0], checks[i].ID)
			}
			switch f[1] {
			case "PASS":
				passed++
			case "FAIL":
			default:
				t.Errorf("seed %s: row %d has status %q:\n%s", seed, i, f[1], row)
			}
		}
		if want := fmt.Sprintf("%d/%d checks passed", passed, len(checks)); footer != want {
			t.Errorf("seed %s: footer %q, want %q", seed, footer, want)
		}
		failed := len(checks) - passed
		if failed == 0 {
			t.Errorf("seed %s: every check passed; the mapped comparison needs a dataset some rows fail", seed)
		}
		if (runErr != nil) != (failed > 0) || failed > 0 && runErr.Error() != fmt.Sprintf("%d of %d checks failed", failed, len(checks)) {
			t.Errorf("seed %s: %d rows say FAIL but run returned %v", seed, failed, runErr)
		}
	}
}
