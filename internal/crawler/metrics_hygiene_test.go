package crawler

import (
	"bufio"
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gplus/internal/gplusapi"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/obs"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
)

// promFamilyRe is the Prometheus metric-name grammar; every family the
// repo registers must match it or scrapes break.
var promFamilyRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// TestMetricsHygiene populates both registries the way a real chaos
// crawl does — server with faults armed, client crawl with the full
// rundir stack (runtime metrics, collector and its health watcher,
// tracer, and the continuous profiler) — then parses the Prometheus
// exposition of each and asserts every family matches the naming
// grammar, carries a HELP line, and every sample belongs to a declared
// TYPE, and that every sample name parses as a series whose label keys
// all come from the vocabulary of internal/obs/labels.go. This is the
// `make check` gate against unparseable or
// undocumented metrics sneaking in. It also resolves every selector the
// health reports read — both Signals values and their default
// objectives — against the series those two runs recorded, so a renamed
// family cannot silently flatten a report.
func TestMetricsHygiene(t *testing.T) {
	u := crawlUniverse(t)

	sreg := obs.NewRegistry()
	url := startService(t, u, gplusd.Options{
		Metrics:       sreg,
		RatePerSecond: 10_000,
		Faults: &gplusd.FaultSpec{Seed: 7, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultUnavailable, Rate: 0.05},
			{Kind: gplusd.FaultOutage, Every: time.Hour, Down: 10 * time.Millisecond},
			{Kind: gplusd.FaultBrownout, Every: time.Hour, Down: time.Millisecond, Delay: time.Millisecond, Squeeze: 0.5},
		}},
		Admission: 64,
	})

	run := startRun(t, rundir.Config{
		Dir:     t.TempDir(),
		Series:  series.Options{Interval: 10 * time.Millisecond, Capacity: 256},
		Signals: series.CrawlSignals(),
		Trace:   trace.Config{SampleRate: 1},
		Prof:    prof.Options{Interval: 50 * time.Millisecond, CPUDuration: 20 * time.Millisecond},
	})
	creg := run.Registry
	jrnl, err := OpenJournal(t.TempDir()+"/crawl.journal", JournalOptions{Metrics: creg})
	if err != nil {
		t.Fatal(err)
	}
	_, err = crawlInRAM(context.Background(), Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
		MaxProfiles: 80,
		MaxRetries:  16, RetryBackoffBase: time.Millisecond,
		Metrics: creg,
		Journal: jrnl,
		Tracer:  run.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}
	// One request at a closed port: the transport-error family only
	// exists once a connection has failed below HTTP.
	dead := &gplusapi.Client{BaseURL: "http://127.0.0.1:1", Metrics: creg, MaxRetries: 1, BackoffBase: time.Millisecond}
	if _, err := dead.FetchSeed(context.Background()); err == nil {
		t.Fatal("seed fetch from a closed port succeeded")
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	served := series.NewCollector(sreg, series.Options{})
	served.Sample(time.Now())
	checkSelectors(t, "gplusd", served, series.GplusdSignals())
	checkSelectors(t, "crawl", run.Collector, series.CrawlSignals())

	// The out-of-core storage path registers its diskcsr_* family on the
	// same client registry a segment-streaming crawl would use; exercise
	// a tiny segment->compact->mmap cycle so every family carries samples.
	dm := diskcsr.NewMetrics(creg)
	segDir := t.TempDir()
	w, err := diskcsr.NewWriter(segDir, 4, dm)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {0, 2}, {2, 1}} {
		if err := w.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v2 := t.TempDir() + "/graph.v2"
	if _, err := diskcsr.Compact(segDir, v2, diskcsr.CompactOptions{Metrics: dm}); err != nil {
		t.Fatal(err)
	}
	m, err := diskcsr.Open(v2, diskcsr.Options{Metrics: dm})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	checkExposition(t, "gplusd", sreg)
	checkExposition(t, "crawl", creg)
}

// checkSelectors asks the collector's /debug/timeseries for each
// selector of sig — its ?name= filter is the matcher the reports use —
// and reads the dump back as `gplusanalyze metrics` would; every one
// must hold a series.
func checkSelectors(t *testing.T, side string, c *series.Collector, sig series.Signals) {
	t.Helper()
	selectors := append([]string{sig.Work.Selector, sig.Activity.Selector, sig.Backlog.Selector, sig.Lag.Selector}, sig.Errors...)
	for _, s := range sig.Also {
		selectors = append(selectors, s.Selector)
	}
	for _, o := range sig.Objectives {
		selectors = append(append(append(selectors, o.Bad...), o.Total...), o.Hist)
	}
	for _, sel := range selectors {
		if sel == "" {
			continue
		}
		rec := httptest.NewRecorder()
		series.Handler{C: c}.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeseries?name="+url.QueryEscape(sel), nil))
		dump, _, err := series.ReadTicks(rec.Body)
		if err != nil {
			t.Errorf("%s: health selector %s: %d %v", side, sel, rec.Code, err)
			continue
		}
		if !slices.ContainsFunc(dump.Ticks(), func(tk series.Tick) bool {
			return len(tk.Counters)+len(tk.Gauges)+len(tk.Histograms) > 0
		}) {
			t.Errorf("%s: health selector %s matches no recorded series", side, sel)
		}
	}
}

// labelVocabulary reads the Key* constants of internal/obs/labels.go —
// the one file that spells label keys.
func labelVocabulary(t *testing.T) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../obs/labels.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	names := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "Key") {
				continue
			}
			names++
			key := ""
			if i < len(spec.Values) {
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					key, _ = strconv.Unquote(lit.Value) // the parser accepted the literal
				}
			}
			if key == "" {
				t.Fatalf("labels.go: %s is not spelled as a non-empty string literal", name.Name)
			}
			keys[key] = true
		}
		return true
	})
	if names == 0 || len(keys) != names {
		t.Fatalf("labels.go: %d Key* constants spell %d distinct keys; want one key each, and at least one", names, len(keys))
	}
	return keys
}

func checkExposition(t *testing.T, side string, reg *obs.Registry) {
	t.Helper()
	vocabulary := labelVocabulary(t)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("%s: WritePrometheus: %v", side, err)
	}
	help := map[string]bool{}
	typed := map[string]string{} // family -> counter|gauge|histogram
	families := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || strings.TrimSpace(parts[1]) == "" {
				t.Errorf("%s: HELP line without text: %q", side, line)
				continue
			}
			help[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("%s: malformed TYPE line: %q", side, line)
				continue
			}
			fam, kind := parts[0], parts[1]
			if !promFamilyRe.MatchString(fam) {
				t.Errorf("%s: family %q violates the Prometheus naming grammar", side, fam)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("%s: family %q has unknown type %q", side, fam, kind)
			}
			if !help[fam] {
				t.Errorf("%s: family %q has no HELP line", side, fam)
			}
			typed[fam] = kind
			families++
		case line == "":
		default:
			// A sample line: family is the text before '{' or ' '.
			fam := line
			if i := strings.IndexAny(fam, "{ "); i >= 0 {
				fam = fam[:i]
			}
			base := fam
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if s, ok := strings.CutSuffix(fam, suf); ok && typed[s] == "histogram" {
					base = s
					break
				}
			}
			if _, ok := typed[base]; !ok {
				t.Errorf("%s: sample %q has no TYPE declaration", side, line)
			}
			name := line[:strings.LastIndexByte(line, ' ')]
			id, err := obs.ParseSeries(name)
			if err != nil {
				t.Errorf("%s: %v", side, err)
			}
			for _, l := range id.Labels {
				if !vocabulary[l.Key] {
					t.Errorf("%s: sample %s carries label key %q, which is not a Key* constant of internal/obs/labels.go", side, name, l.Key)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: scanning exposition: %v", side, err)
	}
	if families == 0 {
		t.Fatalf("%s: exposition is empty; the fixture populated nothing", side)
	}
}
