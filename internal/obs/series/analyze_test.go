package series

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gplus/internal/obs"
)

// testSignals reads the recorded crawl below: the crawl's signals with
// one availability objective whose window fits the recording.
func testSignals() Signals {
	sig := CrawlSignals()
	sig.Objectives = []Objective{{
		Name: "availability", Kind: ErrorRatio,
		Bad: []string{apiOverloaded}, Total: []string{apiResponses},
		Max: 0.01, Window: 15 * time.Second,
	}}
	return sig
}

// recordCrawl drives a crawl's metric evolution through the collector
// tick by tick with the live watcher attached: steady throughput, an
// error spike during which nothing is fetched, a worker paging through
// one huge circle list (pages but no profile: not a stall), a stall
// (zero pages, non-empty frontier) and a drain. It returns the collector
// and the report the watcher built at each tick.
func recordCrawl(t *testing.T) (*Collector, []*HealthReport) {
	t.Helper()
	reg := obs.NewRegistry()
	profiles := reg.Counter("crawler_profiles_crawled_total")
	pages := reg.Counter("crawler_pages_fetched_total")
	errs := reg.Counter("gplusapi_responses_total", obs.Label{Key: obs.KeyCode, Value: "503"})
	oks := reg.Counter("gplusapi_responses_total", obs.Label{Key: obs.KeyCode, Value: "200"})
	frontier := reg.Gauge("crawler_frontier_depth")
	c := NewCollector(reg, Options{Capacity: 256})
	var live []*HealthReport
	Watch(c, testSignals(), func(r *HealthReport) { live = append(live, r) })

	n := 0
	c.Sample(tick(n)) // zero baseline so increases count the first tick
	n++
	step := func(times int, prof, page, bad, good, depth int64) {
		for i := 0; i < times; i++ {
			profiles.Add(prof)
			pages.Add(page)
			errs.Add(bad)
			oks.Add(good)
			frontier.Set(depth)
			c.Sample(tick(n))
			n++
		}
	}
	step(20, 10, 20, 0, 30, 100) // healthy
	step(10, 0, 0, 8, 2, 100)    // outage: errors spike, nothing fetched
	step(15, 10, 20, 0, 30, 50)  // recovered
	step(5, 0, 20, 0, 20, 50)    // one 10 000-entry circle list: pages, no profile
	step(6, 0, 0, 0, 0, 40)      // stall: no page, work still queued
	step(5, 10, 20, 0, 30, 0)    // drain out
	return c, live
}

// dumpOf round-trips the collector's store through series.jsonl.
func dumpOf(t *testing.T, c *Collector) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTicks(&buf, c.Ticks()); err != nil {
		t.Fatal(err)
	}
	s, _, err := ReadTicks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDumpRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total").Add(7)
	reg.Gauge("g_depth").Set(3)
	reg.Histogram("h_seconds", []float64{1}).Observe(0.5)
	c := NewCollector(reg, Options{Capacity: 8})
	c.Sample(tick(0))
	reg.Counter("c_total").Add(3)
	c.Sample(tick(1))

	d := dumpOf(t, c)
	if got, want := d.names, c.names; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("names: %v vs %v", got, want)
	}
	dt, ct := d.Ticks(), c.Ticks()
	if len(dt) != len(ct) {
		t.Fatalf("%d vs %d ticks", len(dt), len(ct))
	}
	for _, name := range d.names {
		dk, ck := d.kinds[name], c.kinds[name]
		if dk != ck {
			t.Errorf("%s kind %q vs %q", name, dk, ck)
		}
		for i := range dt {
			if dv, cv := dt[i].value(name, dk), ct[i].value(name, ck); !dt[i].T.Equal(ct[i].T) || dv != cv {
				t.Errorf("%s[%d]: %v %g vs %v %g", name, i, dt[i].T, dv, ct[i].T, cv)
			}
		}
	}
	if h := dt[0].Histograms["h_seconds"]; h.Count != 1 || len(h.Counts) != 2 {
		t.Errorf("histogram snapshot lost in round trip: %+v", h)
	}
	if len(dt) != 2 || !dt[0].T.Equal(tick(0)) {
		t.Errorf("ticks = %+v", dt)
	}
}

func TestReadTicksRejectsGarbage(t *testing.T) {
	const a = `{"t":"2026-01-01T00:00:00Z","counters":{"a_total":1}}` + "\n"
	for _, bad := range []string{a + "not json\n", a + `{"counters":{"a_total":1}}` + "\n"} {
		if _, _, err := ReadTicks(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q: err = %v, want one naming line 2", bad, err)
		}
	}
	// A log cut mid-line (a killed writer, a truncated download) loads up
	// to its last whole tick instead of failing whole, and says so.
	cut, torn, err := ReadTicks(strings.NewReader(a + `{"t":"2026-01-01T00:00:01Z","coun`))
	if err != nil || torn != 1 {
		t.Errorf("cut log: torn=%d err=%v, want torn=1", torn, err)
	}
	if ticks := cut.Ticks(); len(ticks) != 1 || ticks[0].Counters["a_total"] != 1 {
		t.Errorf("cut log holds %+v, want the 1 whole tick", ticks)
	}
}

func TestBuildReport(t *testing.T) {
	c, _ := recordCrawl(t)
	r := BuildReport(dumpOf(t, c), testSignals())

	if r.Ticks != 62 {
		t.Fatalf("Ticks = %d", r.Ticks)
	}
	// Profiles, not pages: 40 ticks completed 10 profiles each while 45
	// fetched 20 pages each.
	if r.Total != 400 {
		t.Errorf("Total = %g, want 400", r.Total)
	}
	if r.TotalErrors != 80 {
		t.Errorf("TotalErrors = %g, want 80", r.TotalErrors)
	}
	if r.PeakThroughput != 10 || r.AvgThroughput <= 0 || r.AvgThroughput >= 10 {
		t.Errorf("throughput stats: avg %g peak %g", r.AvgThroughput, r.PeakThroughput)
	}

	// The error spike must cover the outage ticks [21, 30].
	if len(r.ErrorSpikes) != 1 {
		t.Fatalf("ErrorSpikes = %+v", r.ErrorSpikes)
	}
	if spike := r.ErrorSpikes[0]; !spike.Start.Equal(tick(21)) || !spike.End.Equal(tick(30)) || spike.Peak != 8 {
		t.Errorf("spike %v..%v peak %g, want ticks 21..30 at 8 err/s", spike.Start, spike.End, spike.Peak)
	}

	// The outage fetches nothing with a full frontier, the explicit
	// stall is the second one; the five ticks of pages without a
	// completed profile in between are not a stall.
	if len(r.Stalls) != 2 || !r.Stalls[0].Start.Equal(tick(21)) || !r.Stalls[0].End.Equal(tick(30)) ||
		!r.Stalls[1].Start.Equal(tick(51)) || !r.Stalls[1].End.Equal(tick(56)) {
		t.Errorf("Stalls = %+v, want ticks 21..30 and 51..56", r.Stalls)
	}

	// SLO replay: the availability objective must violate during the
	// outage, within a window's slack of the schedule.
	if len(r.Violations) == 0 {
		t.Fatal("no SLO violation spans")
	}
	v := r.Violations[0]
	if v.Name != "availability" {
		t.Errorf("violation names %q", v.Name)
	}
	if v.Start.Before(tick(20)) || v.Start.After(tick(22)) {
		t.Errorf("violation starts %v, want within a tick or two of the outage start (tick 20)", v.Start)
	}
	if v.End.Before(tick(29)) || v.End.After(tick(46)) {
		t.Errorf("violation ends %v, want between outage end and a window later", v.End)
	}

	var sb strings.Builder
	r.WriteText(&sb, 40)
	out := sb.String()
	for _, want := range []string{"crawl health", "profiles/s", "pages/s", "frontier", "total 400 profiles", "spike", "VIOLATION availability", "stall"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
	t.Logf("%s\n%s", out, r.ProgressLine())
}

// TestLiveEqualsOffline is the one proof that the live surfaces and the
// post-mortem cannot disagree: the watcher's report at the last tick and
// BuildReport over the log written from the same store render the same
// text and the same progress line, and along the way the stall trigger
// fired at exactly one tick per stall — the StallAfter-th of each.
func TestLiveEqualsOffline(t *testing.T) {
	c, live := recordCrawl(t)
	offline := BuildReport(dumpOf(t, c), testSignals())
	final := live[len(live)-1]

	var want, got strings.Builder
	offline.WriteText(&want, 0)
	final.WriteText(&got, 0)
	if got.String() != want.String() {
		t.Errorf("live report at the last tick:\n%s\noffline report of the dump:\n%s", &got, &want)
	}
	if got, want := final.ProgressLine(), offline.ProgressLine(); got != want {
		t.Errorf("progress lines differ:\nlive    %s\noffline %s", got, want)
	}
	if want := "crawl progress: crawled=400 profiles/s=10.0 pages/s=20.0 edges/s=0.0 frontier=0 journal_lag=0s errors=80 eta=? window=1m1s"; final.ProgressLine() != want {
		t.Errorf("progress line:\n got %s\nwant %s", final.ProgressLine(), want)
	}

	var onsets []time.Time
	for _, r := range live {
		if r.StallOnset {
			onsets = append(onsets, r.End)
		}
	}
	if len(onsets) != 2 || !onsets[0].Equal(tick(23)) || !onsets[1].Equal(tick(53)) {
		t.Errorf("stall trigger fired at %v, want once per stall: ticks 23 and 53", onsets)
	}

	// An objective whose window reaches far past the live view, over an
	// uneven error pattern: the watcher's final status must count what
	// Evaluate over the dump counts at the last tick, not the view's share.
	reg := obs.NewRegistry()
	errs := reg.Counter("gplusapi_responses_total", obs.Label{Key: obs.KeyCode, Value: "503"})
	oks := reg.Counter("gplusapi_responses_total", obs.Label{Key: obs.KeyCode, Value: "200"})
	long := Objective{
		Name: "availability", Kind: ErrorRatio,
		Bad: []string{apiOverloaded}, Total: []string{apiResponses},
		Max: 0.01, Window: 5 * time.Minute,
	}
	c = NewCollector(reg, Options{Capacity: 512})
	var last *HealthReport
	Watch(c, Signals{Objectives: []Objective{long}}, func(r *HealthReport) { last = r })
	const ticks = 320
	for n := 0; n < ticks; n++ {
		switch {
		case n >= 40 && n < 70: // an outage the live view has long scrolled past
			errs.Add(9)
		case n >= 290:
			errs.Add(1)
		case n%17 == 0:
			errs.Add(2)
		}
		oks.Add(30 + int64(n%7))
		c.Sample(tick(n))
	}
	if span := last.End.Sub(last.Start); span >= long.Window {
		t.Fatalf("live view spans %v, not shorter than the %v window", span, long.Window)
	}
	off, on := evaluate(dumpOf(t, c), long, tick(ticks-1)), last.Statuses[0]
	if on.Bad != off.Bad || on.Total != off.Total || on.BurnLong != off.BurnLong || on.State != off.State {
		t.Errorf("live status bad=%g total=%g burn=%g %v, Evaluate over the dump bad=%g total=%g burn=%g %v",
			on.Bad, on.Total, on.BurnLong, on.State, off.Bad, off.Total, off.BurnLong, off.State)
	}
}

// TestWatchEvaluatesOncePerTick: a live tick evaluates an objective as
// often with 300 ticks of history as with one — once per tick, at the
// tick, never replayed over the trailing window.
func TestWatchEvaluatesOncePerTick(t *testing.T) {
	reg := obs.NewRegistry()
	bad, total := reg.Counter("errs_total"), reg.Counter("reqs_total")
	c := NewCollector(reg, Options{Capacity: 512})
	o := Objective{Name: "avail", Kind: ErrorRatio, Bad: []string{"errs_total"}, Total: []string{"reqs_total"}, Max: 0.01, Window: 10 * time.Minute}
	var evals []time.Time // the instant of every evaluation
	counted := func(s *Store, o Objective, now time.Time) Status {
		evals = append(evals, now)
		return evaluate(s, o, now)
	}
	watch(c, Signals{Objectives: []Objective{o}}, counted, func(*HealthReport) {})
	for n := 0; n < 300; n++ {
		before := len(evals)
		bad.Add(int64(n % 3))
		total.Add(100)
		c.Sample(tick(n))
		if got := evals[before:]; len(got) != 1 || !got[0].Equal(tick(n)) {
			t.Fatalf("tick %d evaluated the objective at %v, want once, at the tick", n, got)
		}
	}
}

// TestDuplicateAndSwappedTicks reads a series.jsonl whose tick times are
// not a clean axis: the tick at 12:00:05 is written twice, the counters
// having moved between the two, and the ticks at 12:00:07 and 12:00:08
// are swapped. ReadTicks puts the file in time order. The two samples at
// 12:00:05 are one instant: a rate at either reads the one interval into
// that instant (not zero), and a gauge the instant's samples summed.
func TestDuplicateAndSwappedTicks(t *testing.T) {
	var log strings.Builder
	for _, r := range []struct{ sec, profiles, pages, ok, shed, frontier int64 }{
		{0, 0, 0, 0, 0, 5},
		{1, 10, 20, 30, 0, 8},
		{2, 20, 40, 60, 1, 9},
		{3, 30, 60, 90, 1, 9},
		{4, 40, 80, 120, 5, 9},
		{5, 50, 100, 150, 5, 7},
		{5, 55, 110, 160, 6, 6}, // the same tick time again
		{6, 60, 120, 180, 6, 6},
		{8, 80, 160, 240, 6, 3}, // swapped with the next
		{7, 70, 140, 210, 6, 4},
		{9, 90, 180, 270, 6, 0},
	} {
		fmt.Fprintf(&log, `{"t":"2026-01-01T12:00:%02dZ","counters":{"crawler_pages_fetched_total":%d,"crawler_profiles_crawled_total":%d,`+
			`"gplusapi_responses_total{code=\"200\"}":%d,"gplusapi_responses_total{code=\"503\"}":%d},"gauges":{"crawler_frontier_depth":%d},`+
			`"histograms":{"gplusapi_request_seconds":{"bounds":[0.25,1],"counts":[%d,%d,0],"count":%d,"sum":0}}}`+"\n",
			r.sec, r.pages, r.profiles, r.ok, r.shed, r.frontier, r.ok, r.shed, r.ok+r.shed)
	}
	s, _, err := ReadTicks(strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	r := BuildReport(s, CrawlSignals())
	var text strings.Builder
	r.WriteText(&text, 40)
	// The tick after the duplicate (12:00:06) reads 5/s: its interval
	// starts from the second sample at 12:00:05.
	const want = `crawl health  2026-01-01T12:00:00Z .. 2026-01-01T12:00:09Z  (9s, 11 ticks)

profiles/s   ██████▄███  10.0
             avg 9.50/s  peak 10.00/s  total 90 profiles
pages/s      ██████▄███  20.0
edges/s      ▁▁▁▁▁▁▁▁▁▁  0.0
frontier     ▅▅▅▅██▄▃▂▁  0
journal_lag  ▁▁▁▁▁▁▁▁▁▁  0s
errors/s     ▁▂▁█▁▁▁▁▁▁  0.0
             total 6 errors
  spike  12:00:04 .. 12:00:04  peak 4.00 err/s

SLOs:
  availability     error_ratio(gplusapi_responses_total{code="503"}+gplusapi_transport_errors_total / gplusapi_responses_total+gplusapi_transport_errors_total) < 1% @1m0s OK   burn=2.17
  api-latency      p99(gplusapi_request_seconds) < 1s @1m0s         OK   burn=0.00
  VIOLATION availability 12:00:02 .. 12:00:09  (7s, peak burn 4.00)
`
	if text.String() != want {
		t.Errorf("report:\n%s\nwant:\n%s", &text, want)
	}
	const progress = "crawl progress: crawled=90 profiles/s=10.0 pages/s=20.0 edges/s=0.0 frontier=0 journal_lag=0s errors=6 eta=? window=9s"
	if got, want := r.ProgressLine(), progress; got != want {
		t.Errorf("progress line:\n got %s\nwant %s", got, want)
	}
}

func TestBuildReportEmptyDump(t *testing.T) {
	r := BuildReport(newStore(0), CrawlSignals())
	if r.Ticks != 0 {
		t.Fatalf("Ticks = %d", r.Ticks)
	}
	var sb strings.Builder
	r.WriteText(&sb, 0)
	if !strings.Contains(sb.String(), "no samples") {
		t.Errorf("empty report: %q", sb.String())
	}
}
