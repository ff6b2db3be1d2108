package crawler

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
)

// TestSeriesChaosReportE2E is the observability pipeline proof: a crawl
// against a service with a scheduled outage runs under the time-series
// collector with the live watcher attached, every tick is appended to
// the run directory, and the offline health report built from that log
// must surface the injected outage as both an error-rate spike and an
// SLO violation span whose timestamps match the chaos schedule — and
// must be the report the watcher built at the last tick: the live
// progress line, the crawl's own Stats and the post-mortem count the
// same profiles.
func TestSeriesChaosReportE2E(t *testing.T) {
	u := crawlUniverse(t)

	// One outage at the start of the service's life: the rule is "down
	// when (time since start) % Every < Down", so with Every far beyond
	// the test's runtime the outage is exactly [t0, t0+Down).
	const outageDown = 400 * time.Millisecond
	t0 := time.Now()
	url := startService(t, u, gplusd.Options{
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultOutage, Every: 10 * time.Minute, Down: outageDown},
		}},
	})
	outageEnd := t0.Add(outageDown)

	sig := series.CrawlSignals()
	sig.Objectives = []series.Objective{{
		Name: "availability", Kind: series.ErrorRatio,
		Bad:   []string{`gplusapi_responses_total{code="503"}`},
		Total: []string{"gplusapi_responses_total"},
		Max:   0.01,
		// A short window keeps the violation span tight around the
		// outage instead of smearing a minute past it.
		Window: 500 * time.Millisecond,
		Fast:   100 * time.Millisecond,
	}}
	dir := t.TempDir()
	run := startRun(t, rundir.Config{
		Dir:     dir,
		Series:  series.Options{Interval: 25 * time.Millisecond, Capacity: 4096},
		Signals: sig,
	})
	var live *series.HealthReport // the latest; read once run.Close has stopped the sampling
	run.Watch(func(r *series.HealthReport) { live = r })

	// Retries ride out the outage (cumulative backoff comfortably spans
	// 400ms); politeness stretches the crawl so the collector records a
	// healthy recovery phase after the outage.
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
		MaxProfiles:      600,
		Politeness:       time.Millisecond,
		AttemptTimeout:   time.Second,
		MaxRetries:       16,
		RetryBackoffBase: 4 * time.Millisecond,
		Metrics:          run.Registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfilesCrawled == 0 {
		t.Fatal("crawl made no progress")
	}

	// Every tick went to <dir>/series.jsonl as it was sampled, as under
	// gpluscrawl -obs-dir; rebuild the report offline from that file.
	f, err := os.Open(filepath.Join(dir, rundir.SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	dump, _, err := series.ReadTicks(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	report := series.BuildReport(dump, sig)

	if report.Ticks < 10 {
		t.Fatalf("only %d ticks collected; crawl too fast for the 25ms cadence", report.Ticks)
	}
	if report.Total != float64(res.Stats.ProfilesCrawled) || report.PeakThroughput == 0 {
		t.Errorf("report counts %.0f profiles (peak %.1f/s), the crawl %d", report.Total, report.PeakThroughput, res.Stats.ProfilesCrawled)
	}
	if want := fmt.Sprintf("crawl progress: crawled=%d ", res.Stats.ProfilesCrawled); !strings.HasPrefix(live.ProgressLine(), want) {
		t.Errorf("last live progress line %q, want %q...", live.ProgressLine(), want)
	}
	// The watcher reads the trailing 120 ticks; a run that fit in them
	// (this one does, short of a badly overloaded machine) must render
	// the same live as offline, spans and all.
	if live.Start.Equal(report.Start) {
		var liveText, offlineText strings.Builder
		live.WriteText(&liveText, 0)
		report.WriteText(&offlineText, 0)
		if liveText.String() != offlineText.String() || live.ProgressLine() != report.ProgressLine() {
			t.Errorf("live report at the last tick:\n%s%s\noffline report of series.jsonl:\n%s%s",
				&liveText, live.ProgressLine(), &offlineText, report.ProgressLine())
		}
	} else {
		t.Logf("run outlasted the live window (%d of %d ticks): live and offline text not compared", live.Ticks, report.Ticks)
	}
	// Outage 503s are retried into successes, so the dataset is clean but
	// the error timeline must still record them.
	if report.TotalErrors == 0 {
		t.Fatal("no 503s recorded despite the outage")
	}

	// Timestamps are sample-aligned: allow a few ticks of slack on each
	// edge of the schedule.
	const slack = 250 * time.Millisecond

	if len(report.ErrorSpikes) == 0 {
		t.Fatal("outage produced no error-rate spike span")
	}
	for _, s := range report.ErrorSpikes {
		if s.Start.Before(t0.Add(-slack)) || s.End.After(outageEnd.Add(slack)) {
			t.Errorf("error spike %v..%v outside the outage schedule %v..%v",
				s.Start, s.End, t0, outageEnd)
		}
	}

	if len(report.Violations) == 0 {
		t.Fatal("outage produced no SLO violation span")
	}
	v := report.Violations[0]
	if v.Name != "availability" {
		t.Errorf("violation objective = %q", v.Name)
	}
	if v.Start.Before(t0.Add(-slack)) || v.Start.After(outageEnd.Add(slack)) {
		t.Errorf("violation starts %v, want during the outage %v..%v", v.Start, t0, outageEnd)
	}
	// The long window holds the errors for Window past the outage; beyond
	// that the SLI must have recovered.
	if v.End.After(outageEnd.Add(500*time.Millisecond + slack)) {
		t.Errorf("violation ends %v, want within a window of the outage end %v", v.End, outageEnd)
	}

	// The rendered report names the outage both ways.
	var sb strings.Builder
	report.WriteText(&sb, 60)
	out := sb.String()
	if !strings.Contains(out, "spike") || !strings.Contains(out, "VIOLATION availability") {
		t.Errorf("report text missing outage evidence:\n%s", out)
	}
}
