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
	t.Logf("mean Sample() cost %v over %d series (budget %v)", mean, len(c.names), budget)
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
		evaluate(c.Store, o, tick(120))
	}
}

// crawlRegistry is loadedRegistry plus every family CrawlSignals reads —
// 63 series, the shape of a crawl's registry — and advance, which moves
// them by one tick of a healthy crawl with a trickle of 503s.
func crawlRegistry() (reg *obs.Registry, advance func()) {
	reg = loadedRegistry()
	code := func(c string) obs.Label { return obs.Label{Key: obs.KeyCode, Value: c} }
	endpoint := func(e string) obs.Label { return obs.Label{Key: obs.KeyEndpoint, Value: e} }
	var counters []*obs.Counter
	for _, name := range []string{"crawler_profiles_crawled_total", "crawler_pages_fetched_total",
		"crawler_edges_observed_total", "crawler_discovered_total", "crawler_requeued_total",
		"gplusapi_retries_total", "crawler_profile_errors_total", "crawler_circle_errors_total",
		"gplusapi_transport_errors_total"} {
		counters = append(counters, reg.Counter(name))
	}
	ok, shed, limited := reg.Counter("gplusapi_responses_total", code("200")),
		reg.Counter("gplusapi_responses_total", code("503")), reg.Counter("gplusapi_responses_total", code("429"))
	hists := []*obs.Histogram{
		reg.Histogram("gplusapi_request_seconds", nil, endpoint("profile")),
		reg.Histogram("gplusapi_request_seconds", nil, endpoint("circles")),
	}
	frontier, lag := reg.Gauge("crawler_frontier_depth"), reg.Gauge("crawler_journal_flush_lag_seconds")
	reg.Gauge("crawler_workers").Set(11)
	n := int64(0)
	return reg, func() {
		n++
		for i, c := range counters {
			c.Add(int64(10 - i))
		}
		ok.Add(100)
		shed.Add(n % 3)
		limited.Add(n % 2)
		for i, h := range hists {
			for j := 0; j < 20; j++ {
				h.Observe(float64(i+j) * 0.01)
			}
		}
		frontier.Set(1000 - n%100)
		lag.Set(n % 2)
	}
}

// BenchmarkWatchTick is one live tick as rundir runs it: a sample of a
// crawl-sized registry, then the watcher's health report under the
// crawl's signals and default objectives, with 120 ticks of history.
func BenchmarkWatchTick(b *testing.B) {
	reg, advance := crawlRegistry()
	c := NewCollector(reg, Options{})
	Watch(c, CrawlSignals(), func(*HealthReport) {})
	n := 0
	for ; n < liveTicks; n++ {
		advance()
		c.Sample(tick(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance()
		c.Sample(tick(n))
		n++
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
