package rundir_test

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
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

func readExemplars(t *testing.T, dir string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, rundir.ExemplarsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trs, _, err := trace.ReadTraces(f)
	if err != nil {
		t.Fatalf("exemplar stream unreadable: %v", err)
	}
	var names []string
	for _, tr := range trs {
		names = append(names, tr.Root().Name)
	}
	return names
}

// TestExemplarStreamSurvivesKillAndResume is the regression test for
// the two events the stream exists for. A crawl killed mid-append
// leaves a torn last line, and resuming into the same directory opens
// the stream again: the second session must neither truncate the first
// session's exemplars nor fuse its own onto the torn tail, and a reader
// must get every complete trace of both sessions.
func TestExemplarStreamSurvivesKillAndResume(t *testing.T) {
	dir := t.TempDir()
	cfg := rundir.Config{Dir: dir, Trace: trace.Config{SampleRate: 1}}
	path := filepath.Join(dir, rundir.ExemplarsFile)

	first, err := rundir.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exemplar(first, "one")
	// Each exemplar is handed to the kernel as it trips: it is in the
	// file before the session ends, which is what lets it outlive a
	// SIGKILL.
	if got := readExemplars(t, dir); !slices.Equal(got, []string{"one"}) {
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
	if got := readExemplars(t, dir); !slices.Equal(got, []string{"one"}) {
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
	if got := readExemplars(t, dir); !slices.Equal(got, []string{"one", "three"}) {
		t.Fatalf("resumed stream reads back %v, want [one three]", got)
	}
}

// TestRunDirectoryLayout starts everything, closes, and requires the
// documented layout — and that a run with no directory and nothing
// switched on is still a usable, nil-safe stack.
func TestRunDirectoryLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run") // Start creates it
	run, err := rundir.Start(rundir.Config{
		Dir:        dir,
		Series:     series.Options{Interval: 5 * time.Millisecond},
		Objectives: series.DefaultCrawlObjectives(),
		Trace:      trace.Config{SampleRate: 1},
		Prof:       prof.Options{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Registry.Counter("crawler_profiles_total").Inc()
	exemplar(run, "req")
	srv := httptest.NewServer(run.Mux())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/debug/traces", "/debug/timeseries", "/debug/slo"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	f, err := os.Open(filepath.Join(dir, rundir.SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	dump := series.NewDump()
	_, err = dump.ReadJSONL(f)
	f.Close()
	if err != nil || len(dump.PointsSince("crawler_profiles_total", time.Time{})) == 0 {
		t.Errorf("series.jsonl lacks the counter (err=%v)", err)
	}
	f, err = os.Open(filepath.Join(dir, rundir.TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	trs, torn, err := trace.ReadTraces(f)
	f.Close()
	if err != nil || torn != 0 || len(trs) != 1 {
		t.Errorf("traces.jsonl holds %d traces (err=%v), want 1", len(trs), err)
	}
	if got := readExemplars(t, dir); !slices.Equal(got, []string{"req"}) {
		t.Errorf("exemplars.jsonl holds %v", got)
	}
	if captures, _ := filepath.Glob(filepath.Join(dir, rundir.ProfilesDir, "*.pb.gz")); len(captures) == 0 {
		t.Error("profiles/ ring is empty")
	}

	off, err := rundir.Start(rundir.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Registry == nil || off.Collector != nil || off.Engine != nil || off.Tracer != nil || off.Profiler != nil {
		t.Errorf("zero Config started %+v, want a registry and nothing else", off)
	}
	off.Profiler.Trigger("stall")
	rr := httptest.NewRecorder()
	off.Mux().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeseries", nil))
	if rr.Code != 404 {
		t.Errorf("/debug/timeseries without a collector = %d, want 404", rr.Code)
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
		cfg := rundir.Config{Objectives: series.DefaultGplusdObjectives()}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		cfg.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	def := parse()
	if def.Dir != "" || def.Series.Interval != time.Second || def.Trace.SampleRate != 0 ||
		def.Prof.Interval != 30*time.Second || len(def.Objectives) != len(series.DefaultGplusdObjectives()) {
		t.Errorf("defaults: %+v", def)
	}
	if got := parse("-slo", "default"); len(got.Objectives) != len(def.Objectives) {
		t.Errorf("-slo default changed the objectives: %v", got.Objectives)
	}
	if got := parse("-slo", ""); len(got.Objectives) != 0 {
		t.Errorf(`-slo "" kept %v`, got.Objectives)
	}
	got := parse("-obs-dir", "d", "-trace-sample", "0.5", "-sample-interval", "0", "-profile-interval", "10s",
		"-slo", "avail,error_ratio,bad=gplusd_chaos_faults_total,total=gplusd_requests_total,max=1%,window=1m")
	if got.Dir != "d" || got.Trace.SampleRate != 0.5 || got.Series.Interval != 0 || got.Prof.Interval != 10*time.Second ||
		len(got.Objectives) != 1 || got.Objectives[0].Name != "avail" {
		t.Errorf("parsed: %+v", got)
	}
}
