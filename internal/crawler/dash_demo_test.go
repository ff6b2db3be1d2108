package crawler

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
)

// ansiRe strips the terminal control sequences the dashboard emits so
// its frames are readable in test logs.
var ansiRe = regexp.MustCompile(`\x1b\[[0-9;]*[A-Za-z]`)

// TestDashDemo is the `make dash-demo` entry point: a short chaos crawl
// rendered through the live dashboard, frame by frame, exactly as
// `gpluscrawl -dash` wires it. -v prints the final frame and the
// offline health report rebuilt from the same store.
func TestDashDemo(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultOutage, Every: 10 * time.Minute, Down: 200 * time.Millisecond},
		}},
	})

	run := startRun(t, rundir.Config{
		Series:  series.Options{Interval: 25 * time.Millisecond, Capacity: 4096},
		Signals: series.CrawlSignals(),
	})
	collector := run.Collector

	var screen bytes.Buffer
	run.Watch(series.NewDash(&screen).Frame)

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
		MaxProfiles:      400,
		Politeness:       time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
		Metrics:          run.Registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfilesCrawled == 0 {
		t.Fatal("demo crawl made no progress")
	}
	// Every frame starts with one cursor-home sequence.
	rendered := strings.Count(screen.String(), "\x1b[H")
	if rendered < 2 {
		t.Fatalf("dashboard rendered %d frames, want a live sequence", rendered)
	}

	// The final frame, as the terminal would show it after the last
	// repaint: everything since the last clear/home sequence.
	frames := ansiRe.Split(screen.String(), -1)
	last := strings.TrimSpace(strings.Join(frames, ""))
	if !strings.Contains(last, "profiles/s") || !strings.Contains(last, "crawl progress: crawled=") {
		t.Fatalf("final frame missing panels:\n%s", last)
	}
	t.Logf("dashboard: %d frames rendered; final frame:\n%s", rendered, ansiRe.ReplaceAllString(lastFrame(screen.String()), ""))

	// The same store replays, through series.jsonl lines, into the
	// offline health report.
	var dumpBuf bytes.Buffer
	if err := series.WriteTicks(&dumpBuf, collector.Ticks()); err != nil {
		t.Fatal(err)
	}
	dump, _, err := series.ReadTicks(&dumpBuf)
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	series.BuildReport(dump, series.SignalsFor(dump)).WriteText(&report, 60)
	if !strings.Contains(report.String(), "crawl health") {
		t.Fatalf("health report missing:\n%s", report.String())
	}
	t.Logf("offline replay of the same store:\n%s", report.String())
}

// lastFrame returns everything after the final cursor-home sequence —
// the content of the terminal's last repaint.
func lastFrame(s string) string {
	const home = "\x1b[H"
	if i := strings.LastIndex(s, home); i >= 0 {
		return s[i+len(home):]
	}
	return s
}
