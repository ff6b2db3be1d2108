package rundir_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gplus/internal/obs/prof"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
)

// exemplar runs one failed request through the run's tracer; the
// production rules retain every failed trace as an exemplar.
func exemplar(run *rundir.Run, name string) {
	_, sp := run.Tracer.StartSpan(context.Background(), name)
	sp.Fail("boom")
	sp.Finish()
}

// readTraces returns the root span names of the traces in traces.jsonl.
func readTraces(t *testing.T, dir string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, rundir.TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trs, _, err := trace.ReadTraces(f)
	if err != nil {
		t.Fatalf("trace log unreadable: %v", err)
	}
	var names []string
	for _, tr := range trs {
		names = append(names, tr.Root().Name)
	}
	return names
}

// readSeries reads series.jsonl the way `gplusanalyze metrics` does.
func readSeries(t *testing.T, dir string) *series.Store {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, rundir.SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, _, err := series.ReadTicks(f)
	if err != nil {
		t.Fatalf("series log unreadable: %v", err)
	}
	return s
}

// TestKilledRunKeepsItsSeries: each tick reaches series.jsonl as it is
// sampled, so a run that never gets to Close — a SIGKILLed crawl —
// leaves every tick it took. A second session in the same directory
// appends, and the report over the file counts both sessions' profiles:
// the second one's counter restarts from zero, which the reset rule
// absorbs.
func TestKilledRunKeepsItsSeries(t *testing.T) {
	dir := t.TempDir()
	// Ticks are taken by hand below; the sampling goroutine never fires.
	cfg := rundir.Config{Dir: dir, Series: series.Options{Interval: time.Hour}, Signals: series.CrawlSignals()}
	const crawled = "crawler_profiles_crawled_total"

	killed, err := rundir.Start(cfg) // Start takes the first tick
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 5
	for i := 1; i < ticks; i++ {
		killed.Registry.Counter(crawled).Add(10)
		killed.Collector.Sample(time.Now())
	}
	if got := readSeries(t, dir).Ticks(); len(got) != ticks {
		t.Fatalf("series.jsonl of a run killed after %d ticks holds %d", ticks, len(got))
	}

	resumed, err := rundir.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Registry.Counter(crawled).Add(7)
	if err := resumed.Close(); err != nil { // Start's tick and Close's
		t.Fatal(err)
	}
	r := series.BuildReport(readSeries(t, dir), series.CrawlSignals())
	if r.Ticks != ticks+2 || r.Total != 47 {
		t.Errorf("both sessions read back as %d ticks counting %.0f profiles, want %d ticks and 40+7", r.Ticks, r.Total, ticks+2)
	}
}

// TestExemplarStreamSurvivesKillAndResume is the regression test for
// the two events the exemplar stream into traces.jsonl exists for. A
// crawl killed mid-append leaves a torn last line, and resuming into the
// same directory opens the log again: the second session must neither
// truncate the first session's traces nor fuse its own onto the torn
// tail, and a reader must get every complete trace of both sessions.
func TestExemplarStreamSurvivesKillAndResume(t *testing.T) {
	dir := t.TempDir()
	cfg := rundir.Config{Dir: dir, Trace: trace.Config{SampleRate: 1}}
	path := filepath.Join(dir, rundir.TracesFile)

	first, err := rundir.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exemplar(first, "one")
	// Each exemplar is handed to the kernel as it trips: it is in the
	// file before the session ends, which is what lets it outlive a
	// SIGKILL.
	if got := readTraces(t, dir); !slices.Equal(got, []string{"one"}) {
		t.Fatalf("live stream holds %v after one exemplar, want it in the file already", got)
	}
	exemplar(first, "two")
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	// The kill: cut the stream in the middle of its last record.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-20); err != nil {
		t.Fatal(err)
	}
	if got := readTraces(t, dir); !slices.Equal(got, []string{"one"}) {
		t.Fatalf("killed stream reads back %v, want the one complete trace", got)
	}

	second, err := rundir.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exemplar(second, "three")
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readTraces(t, dir); !slices.Equal(got, []string{"one", "three"}) {
		t.Fatalf("resumed log reads back %v, want [one three]", got)
	}
}

// TestTraceLogKeepsUnstreamedRingTraces: Close appends the ring's traces
// the exemplar stream did not carry — plain traces, and an exemplar
// dropped past trace.MaxExemplars, which keeps its rule tag but never
// reached the stream — and none the stream already carried.
func TestTraceLogKeepsUnstreamedRingTraces(t *testing.T) {
	dir := t.TempDir()
	run, err := rundir.Start(rundir.Config{Dir: dir, Trace: trace.Config{SampleRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trace.MaxExemplars; i++ {
		exemplar(run, "kept")
	}
	exemplar(run, "dropped")
	_, sp := run.Tracer.StartSpan(context.Background(), "plain")
	sp.Finish()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	got := readTraces(t, dir)
	if n := len(got); n != trace.MaxExemplars+2 || got[n-2] != "dropped" || got[n-1] != "plain" {
		t.Errorf("trace log holds %d traces ending %v, want the %d streamed exemplars, then dropped and plain",
			n, got[max(n-3, 0):], trace.MaxExemplars)
	}
}

// TestRunDirectoryLayout starts everything, closes, and requires the
// documented layout, with /debug/timeseries serving series.jsonl byte
// for byte — and that a run with no directory and nothing switched on is
// still a usable, nil-safe stack.
func TestRunDirectoryLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run") // Start creates it
	run, err := rundir.Start(rundir.Config{
		Dir:     dir,
		Series:  series.Options{Interval: 5 * time.Millisecond},
		Signals: series.CrawlSignals(),
		Trace:   trace.Config{SampleRate: 1},
		Prof:    prof.Options{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Registry.Counter("crawler_profiles_total").Inc()
	exemplar(run, "req")
	_, sp := run.Tracer.StartSpan(context.Background(), "ok")
	sp.Finish()
	srv := httptest.NewServer(run.Mux())
	defer srv.Close()
	for path, want := range map[string]int{"/metrics": 200, "/debug/pprof/": 200, "/debug/traces": 200,
		"/debug/timeseries": 200, "/debug/slo": 200, "/debug/vars": 404} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	// /metrics has one exposition, whatever the request asks for.
	req, _ := http.NewRequest("GET", srv.URL+"/metrics?format=json", nil)
	req.Header.Set("Accept", "application/json")
	if resp, err := srv.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") ||
			!strings.Contains(string(body), "\ncrawler_profiles_total 1\n") {
			t.Errorf("/metrics asked for JSON served %q:\n%s", ct, body)
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The live dumps are the run directory's logs: the same bytes for the
	// series, and one media type for both.
	log, err := os.ReadFile(filepath.Join(dir, rundir.SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/timeseries", "/debug/traces?format=jsonl"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
			t.Errorf("GET %s: Content-Type %q, want application/jsonl", path, ct)
		}
		if path == "/debug/timeseries" && !bytes.Equal(body, log) {
			t.Errorf("GET /debug/timeseries after Close differs from %s:\n%s\n--- %s:\n%s", rundir.SeriesFile, body, rundir.SeriesFile, log)
		}
	}

	if !slices.ContainsFunc(readSeries(t, dir).Ticks(), func(tk series.Tick) bool {
		_, ok := tk.Counters["crawler_profiles_total"]
		return ok
	}) {
		t.Errorf("series.jsonl lacks the counter")
	}
	// The exemplar streamed as it tripped, the plain trace at Close.
	if got := readTraces(t, dir); !slices.Equal(got, []string{"req", "ok"}) {
		t.Errorf("traces.jsonl holds %v, want [req ok]", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Errorf("run directory holds %v, want series.jsonl, traces.jsonl and profiles/", entries)
	}
	if captures, _ := filepath.Glob(filepath.Join(dir, rundir.ProfilesDir, "*.pb.gz")); len(captures) == 0 {
		t.Error("profiles/ ring is empty")
	}

	off, err := rundir.Start(rundir.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Registry == nil || off.Collector != nil || off.Tracer != nil || off.Profiler != nil {
		t.Errorf("zero Config started %+v, want a registry and nothing else", off)
	}
	off.Profiler.Trigger("stall")
	off.Watch(func(*series.HealthReport) { t.Error("a run without a collector built a report") })
	for _, path := range []string{"/debug/timeseries", "/debug/slo"} {
		rr := httptest.NewRecorder()
		off.Mux().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 404 {
			t.Errorf("%s without a collector = %d, want 404", path, rr.Code)
		}
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterFlags parses the shared flag set the way both binaries
// do: -slo keeps, clears or replaces the caller's objectives, and the
// defaults leave tracing off and the collector and ring cadence on.
func TestRegisterFlags(t *testing.T) {
	parse := func(args ...string) rundir.Config {
		t.Helper()
		cfg := rundir.Config{Signals: series.GplusdSignals()}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		cfg.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	def := parse()
	if def.Dir != "" || def.Series.Interval != time.Second || def.Trace.SampleRate != 0 ||
		def.Prof.Interval != 30*time.Second || len(def.Signals.Objectives) != len(series.DefaultGplusdObjectives()) {
		t.Errorf("defaults: %+v", def)
	}
	if got := parse("-slo", "default"); len(got.Signals.Objectives) != len(def.Signals.Objectives) {
		t.Errorf("-slo default changed the objectives: %v", got.Signals.Objectives)
	}
	if got := parse("-slo", ""); len(got.Signals.Objectives) != 0 {
		t.Errorf(`-slo "" kept %v`, got.Signals.Objectives)
	}
	got := parse("-obs-dir", "d", "-trace-sample", "0.5", "-sample-interval", "0", "-profile-interval", "10s",
		"-slo", "avail,error_ratio,bad=gplusd_chaos_faults_total,total=gplusd_requests_total,max=1%,window=1m")
	if got.Dir != "d" || got.Trace.SampleRate != 0.5 || got.Series.Interval != 0 || got.Prof.Interval != 10*time.Second ||
		len(got.Signals.Objectives) != 1 || got.Signals.Objectives[0].Name != "avail" {
		t.Errorf("parsed: %+v", got)
	}
}

// TestSLOEndpoint: /debug/slo serves the watcher's latest report as
// the text `gplusanalyze metrics` prints.
func TestSLOEndpoint(t *testing.T) {
	run, err := rundir.Start(rundir.Config{
		// Ticks are taken by hand below; the sampling goroutine never fires.
		Series: series.Options{Interval: time.Hour},
		Signals: series.Signals{Name: "test", Objectives: []series.Objective{{
			Name: "avail", Kind: series.ErrorRatio,
			Bad: []string{"errs_total"}, Total: []string{"reqs_total"}, Max: 0.01,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	errs, reqs := run.Registry.Counter("errs_total"), run.Registry.Counter("reqs_total")
	var reports []*series.HealthReport
	run.Watch(func(r *series.HealthReport) { reports = append(reports, r) })
	get := func(path string) string {
		t.Helper()
		rr := httptest.NewRecorder()
		run.Mux().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s = %d", path, rr.Code)
		}
		return rr.Body.String()
	}
	sample := func(bad, total int64) {
		time.Sleep(time.Millisecond)
		errs.Add(bad)
		reqs.Add(total)
		run.Collector.Sample(time.Now())
	}
	// served checks that /debug/slo is the latest report's text, byte for
	// byte, and returns it.
	served := func() string {
		t.Helper()
		text := get("/debug/slo")
		var want strings.Builder
		reports[len(reports)-1].WriteText(&want, 0)
		if text != want.String() {
			t.Errorf("/debug/slo differs from the latest report:\n%s\n--- report:\n%s", text, want.String())
		}
		return text
	}

	sample(0, 100)
	if text := served(); !strings.Contains(text, "test health") || !strings.Contains(text, "avail") ||
		!strings.Contains(text, "OK") || !strings.Contains(text, "no violation spans") {
		t.Errorf("healthy text report:\n%s", text)
	}
	sample(50, 100)
	if text := served(); !strings.Contains(text, "PAGE") || !strings.Contains(text, "VIOLATION avail") {
		t.Errorf("paging text report:\n%s", text)
	}
	r := reports[len(reports)-1]
	if len(r.Statuses) != 1 || r.Statuses[0].State != series.StatePage || len(r.Violations) != 1 {
		t.Errorf("paging report: statuses %+v, violations %+v", r.Statuses, r.Violations)
	}
	if !slices.Equal(r.PageOnset, []string{"avail"}) {
		t.Errorf("the paging tick's report has PageOnset %v", r.PageOnset)
	}
}
