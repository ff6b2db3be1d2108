package series

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gplus/internal/obs"
)

// loadedRegistry builds a registry about the size a real crawl carries:
// a few dozen counters (some labeled), gauges, and histograms.
func loadedRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	for i := 0; i < 30; i++ {
		reg.Counter("bench_requests_total", obs.Label{Key: obs.KeyEndpoint, Value: fmt.Sprint("e", i)}).Add(int64(i))
	}
	for i := 0; i < 10; i++ {
		reg.Gauge(fmt.Sprintf("bench_depth_%d", i)).Set(int64(i))
	}
	for i := 0; i < 5; i++ {
		h := reg.Histogram(fmt.Sprintf("bench_seconds_%d", i), nil)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) * 0.001)
		}
	}
	return reg
}

// TestCollectorOverheadBudget enforces the acceptance bound: sampling
// must cost well under 1% of the sampling interval, so the collector is
// invisible next to a crawl's real work.
func TestCollectorOverheadBudget(t *testing.T) {
	reg := loadedRegistry()
	c := NewCollector(reg, Options{Interval: time.Second, Capacity: 720})
	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		c.Sample(tick(i))
	}
	mean := time.Since(start) / rounds
	budget := c.Interval() / 100 // 1% of the interval
	if mean > budget {
		t.Errorf("mean Sample() cost %v exceeds 1%% of the %v interval (%v)", mean, c.Interval(), budget)
	}
	t.Logf("mean Sample() cost %v over %d series (budget %v)", mean, len(c.Names()), budget)
}

func BenchmarkCollectorSample(b *testing.B) {
	reg := loadedRegistry()
	c := NewCollector(reg, Options{Interval: time.Second, Capacity: 720})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sample(tick(i))
	}
}

func BenchmarkEvaluateObjective(b *testing.B) {
	reg := obs.NewRegistry()
	bad := reg.Counter("errs_total")
	total := reg.Counter("reqs_total")
	c := NewCollector(reg, Options{Capacity: 720})
	for i := 0; i < 120; i++ {
		bad.Add(1)
		total.Add(100)
		c.Sample(tick(i))
	}
	o := Objective{Name: "avail", Kind: ErrorRatio,
		Bad: []string{"errs_total"}, Total: []string{"reqs_total"},
		Max: 0.01, Window: time.Minute}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(c, o, tick(120))
	}
}

// TestDashFrame draws a populated collector's live reports: every frame
// is the report's text plus the progress line, repainted in place
// (cursor-home, per-line erase) rather than scrolled.
func TestDashFrame(t *testing.T) {
	reg := obs.NewRegistry()
	profiles := reg.Counter("crawler_profiles_crawled_total")
	reg.Counter("crawler_edges_observed_total").Add(10)
	reg.Gauge("crawler_frontier_depth").Set(42)
	c := NewCollector(reg, Options{Capacity: 64})

	var sb, text strings.Builder
	d := NewDash(&sb)
	Watch(c, CrawlSignals(), func(r *HealthReport) {
		d.Frame(r)
		text.Reset()
		r.WriteText(&text, 0)
	})
	for i := 0; i < 5; i++ {
		profiles.Add(7)
		c.Sample(tick(i))
	}
	out := sb.String()
	if !strings.HasPrefix(out, ansiClear) || strings.Count(out, ansiClear) != 1 {
		t.Error("the first frame, and only it, should clear the screen")
	}
	if strings.Count(out, ansiHome) != 5 {
		t.Errorf("every frame should home the cursor, got %d", strings.Count(out, ansiHome))
	}
	// The last frame, stripped of its framing, is the report itself:
	// a -dash frame and `gplusanalyze metrics` print the same rows.
	last := out[strings.LastIndex(out, ansiHome)+len(ansiHome):]
	last = strings.NewReplacer(ansiEraseLine, "", ansiEraseBelow, "").Replace(last)
	if !strings.HasPrefix(last, text.String()) {
		t.Errorf("frame is not the report's text:\n%s\nreport:\n%s", last, &text)
	}
	// Rates render (7 profiles per 1s tick), and the progress line
	// closes the frame.
	for _, want := range []string{"profiles/s", "7.0", "frontier", "total 35 profiles", "availability", "crawl progress: crawled=35 "} {
		if !strings.Contains(last, want) {
			t.Errorf("frame missing %q:\n%s", want, last)
		}
	}
}
