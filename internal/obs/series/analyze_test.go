package series

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gplus/internal/obs"
)

// buildCrawlDump simulates a crawl's metric evolution through the
// collector and round-trips it through the JSONL dump format: steady
// throughput, an error spike with a throughput dip in the middle, and a
// stall (zero throughput, non-empty frontier) near the end.
func buildCrawlDump(t *testing.T) *Dump {
	t.Helper()
	reg := obs.NewRegistry()
	profiles := reg.Counter("crawler_pages_fetched_total")
	errs := reg.Counter(`gplusapi_responses_total{code="503"}`)
	oks := reg.Counter(`gplusapi_responses_total{code="200"}`)
	frontier := reg.Gauge("crawler_frontier_depth")
	c := NewCollector(reg, Options{Capacity: 256})

	n := 0
	c.Sample(tick(n)) // zero baseline so increases count the first tick
	n++
	step := func(prof, bad, good, depth int64) {
		profiles.Add(prof)
		errs.Add(bad)
		oks.Add(good)
		frontier.Set(depth)
		c.Sample(tick(n))
		n++
	}

	for i := 0; i < 20; i++ { // healthy
		step(10, 0, 10, 100)
	}
	for i := 0; i < 10; i++ { // outage: errors spike, throughput dies
		step(0, 8, 2, 100)
	}
	for i := 0; i < 20; i++ { // recovered
		step(10, 0, 10, 50)
	}
	for i := 0; i < 6; i++ { // stall: no throughput, work still queued
		step(0, 0, 0, 40)
	}
	for i := 0; i < 5; i++ { // drain out
		step(10, 0, 10, 0)
	}

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
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

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Names(), c.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("names: %v vs %v", got, want)
	}
	for _, name := range d.Names() {
		dk, _ := d.SeriesKind(name)
		ck, _ := c.SeriesKind(name)
		if dk != ck {
			t.Errorf("%s kind %q vs %q", name, dk, ck)
		}
		dp := d.PointsSince(name, time.Time{})
		cp := c.PointsSince(name, time.Time{})
		if len(dp) != len(cp) {
			t.Fatalf("%s: %d vs %d points", name, len(dp), len(cp))
		}
		for i := range dp {
			if !dp[i].T.Equal(cp[i].T) || dp[i].V != cp[i].V {
				t.Errorf("%s[%d]: %+v vs %+v", name, i, dp[i], cp[i])
			}
		}
	}
	hp := d.PointsSince("h_seconds", time.Time{})
	if hp[0].Hist == nil || hp[0].Hist.Count != 1 {
		t.Errorf("histogram snapshot lost in round trip: %+v", hp[0])
	}
	if ticks := d.Times(); len(ticks) != 2 || !ticks[0].Equal(tick(0)) {
		t.Errorf("Times = %v", ticks)
	}
}

func TestReadDumpMergesAndRejectsGarbage(t *testing.T) {
	d := NewDump()
	if torn, err := d.ReadJSONL(strings.NewReader(`{"name":"a_total","kind":"counter","t":"2026-01-01T00:00:00Z","v":1}` + "\n")); err != nil || torn != 0 {
		t.Fatal(err)
	}
	if _, err := d.ReadJSONL(strings.NewReader(`{"name":"a_total","kind":"counter","t":"2026-01-01T00:00:01Z","v":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if pts := d.PointsSince("a_total", time.Time{}); len(pts) != 2 || pts[1].V != 2 {
		t.Errorf("merge: %+v", pts)
	}
	if _, err := NewDump().ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line should error")
	}
	if _, err := NewDump().ReadJSONL(strings.NewReader(`{"kind":"counter","v":1}` + "\n")); err == nil {
		t.Error("missing name should error")
	}
	// A dump cut mid-record (a killed writer, a truncated download) loads
	// up to its last complete point instead of failing whole, and says so.
	cut := NewDump()
	if torn, err := cut.ReadJSONL(strings.NewReader(`{"name":"a_total","kind":"counter","t":"2026-01-01T00:00:00Z","v":1}` + "\n" + `{"name":"a_total","kind":"cou`)); err != nil || torn != 1 {
		t.Errorf("cut dump: torn=%d err=%v, want torn=1", torn, err)
	}
	if pts := cut.PointsSince("a_total", time.Time{}); len(pts) != 1 {
		t.Errorf("cut dump holds %d points, want the 1 complete one", len(pts))
	}
}

func TestBuildReport(t *testing.T) {
	d := buildCrawlDump(t)
	r := BuildReport(d, ReportOptions{
		Objectives: []Objective{{
			Name: "availability", Kind: ErrorRatio,
			Bad:   []string{`gplusapi_responses_total{code="503"}`},
			Total: []string{"gplusapi_responses_total"},
			Max:   0.01, Window: 15 * time.Second,
		}},
	})

	if r.Ticks != 62 {
		t.Fatalf("Ticks = %d", r.Ticks)
	}
	if r.TotalProfiles != 450 {
		t.Errorf("TotalProfiles = %g, want 450", r.TotalProfiles)
	}
	if r.TotalErrors != 80 {
		t.Errorf("TotalErrors = %g, want 80", r.TotalErrors)
	}
	if r.PeakThroughput != 10 || r.AvgThroughput <= 0 || r.AvgThroughput >= 10 {
		t.Errorf("throughput stats: avg %g peak %g", r.AvgThroughput, r.PeakThroughput)
	}

	// The error spike must cover the outage ticks [20, 30).
	if len(r.ErrorSpikes) != 1 {
		t.Fatalf("ErrorSpikes = %+v", r.ErrorSpikes)
	}
	spike := r.ErrorSpikes[0]
	if spike.Start.Before(tick(19)) || spike.Start.After(tick(21)) || spike.End.Before(tick(28)) || spike.End.After(tick(30)) {
		t.Errorf("spike span %v..%v, want ~[20, 29]", spike.Start, spike.End)
	}
	if spike.Peak != 8 {
		t.Errorf("spike peak = %g err/s, want 8", spike.Peak)
	}

	// The outage also stalls throughput with a full frontier; the
	// explicit stall phase at [50, 56) is the second stall.
	if len(r.Stalls) < 1 {
		t.Fatalf("Stalls = %+v", r.Stalls)
	}
	foundLate := false
	for _, s := range r.Stalls {
		if !s.Start.Before(tick(49)) && !s.End.After(tick(56)) {
			foundLate = true
		}
	}
	if !foundLate {
		t.Errorf("late stall not detected: %+v", r.Stalls)
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
	for _, want := range []string{"crawl health", "throughput", "spike", "VIOLATION availability", "stall"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

func TestBuildReportEmptyDump(t *testing.T) {
	r := BuildReport(NewDump(), ReportOptions{})
	if r.Ticks != 0 {
		t.Fatalf("Ticks = %d", r.Ticks)
	}
	var sb strings.Builder
	r.WriteText(&sb, 0)
	if !strings.Contains(sb.String(), "no samples") {
		t.Errorf("empty report: %q", sb.String())
	}
}
