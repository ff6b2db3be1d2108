package series

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"gplus/internal/obs"
)

func tick(n int) time.Time { return time.Unix(1_000_000, 0).Add(time.Duration(n) * time.Second) }

// TestStoreRetention: a store of capacity 4 keeps growing to 7 ticks,
// and the 8th drops it back to the newest 4 — the one retention rule the
// run directory's series.jsonl follows.
func TestStoreRetention(t *testing.T) {
	s := newStore(4)
	for i := 0; i < 8; i++ {
		snap := obs.Snapshot{Counters: map[string]int64{"c_total": int64(i)}}
		if dropped := s.add(Tick{T: tick(i), Snapshot: snap}); dropped != (i == 7) {
			t.Errorf("tick %d: dropped = %v", i, dropped)
		}
		if n := len(s.Ticks()); i < 7 && n != i+1 {
			t.Errorf("after tick %d the store holds %d ticks, want %d", i, n, i+1)
		}
	}
	// The store retains the newest 4 ticks: 4, 5, 6, 7.
	if ticks := s.Ticks(); len(ticks) != 4 || !ticks[0].T.Equal(tick(4)) {
		t.Fatalf("retained %d ticks from %v, want ticks 4..7", len(ticks), ticks[0].T)
	}
	// A window holds its ticks plus one baseline tick before them.
	w := s.window(tick(6), time.Time{})
	if len(w) != 3 || w[0].Counters["c_total"] != 5 || w[2].Counters["c_total"] != 7 {
		t.Errorf("window(6) = %+v, want baseline 5 then 6, 7", w)
	}
	// since before everything retained: all ticks, no phantom baseline.
	if w := s.window(tick(0), time.Time{}); len(w) != 4 {
		t.Errorf("window(0) holds %d ticks, want 4", len(w))
	}
}

func TestIncreaseCounterReset(t *testing.T) {
	var ticks []Tick
	for i, v := range []int64{
		100,
		150, // +50
		10,  // reset: the post-reset value counts in full
		30,  // +20
	} {
		ticks = append(ticks, Tick{T: tick(i), Snapshot: obs.Snapshot{Counters: map[string]int64{"c_total": v}}})
	}
	if got := increase(ticks, "c_total", KindCounter); got != 80 {
		t.Errorf("increase = %g, want 80", got)
	}
	var rates []float64
	for i := 1; i < len(ticks); i++ {
		v, _ := perSecond(ticks, i, "c_total", KindCounter)
		rates = append(rates, v)
	}
	if len(rates) != 3 || rates[0] != 50 || rates[1] != 10 || rates[2] != 20 {
		t.Errorf("rates = %v", rates)
	}
}

func TestMatchesSelector(t *testing.T) {
	cases := []struct {
		sel, name string
		want      bool
	}{
		{"reqs_total", "reqs_total", true},
		{"reqs_total", `reqs_total{code="503"}`, true},
		{`reqs_total{code="503"}`, `reqs_total{code="503"}`, true},
		{`reqs_total{code="503"}`, `reqs_total{endpoint="profile",code="503"}`, true},
		{`reqs_total{code="503"}`, `reqs_total{code="200"}`, false},
		{`reqs_total{code="503"}`, "reqs_total", false},
		{"reqs_total", "other_total", false},
		{`reqs_total{a="1",b="2"}`, `reqs_total{b="2",a="1"}`, true},
		{`reqs_total{a="1",b="2"}`, `reqs_total{a="1"}`, false},
		{`reqs_total{a="1"}`, `reqs_total{b="x,a=\"1\""}`, false},
		{`reqs_total{b="x,a=\"1\""}`, `reqs_total{a="1",b="x,a=\"1\""}`, true},
	}
	for _, c := range cases {
		sel, err := obs.ParseSeries(c.sel)
		if err != nil {
			t.Fatal(err)
		}
		name, err := obs.ParseSeries(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := matches(sel, name); got != c.want {
			t.Errorf("matches(%q, %q) = %v, want %v", c.sel, c.name, got, c.want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8); got != "▁▂▃▄▅▆▇█" {
		t.Errorf("Sparkline ramp = %q", got)
	}
	if got := Sparkline([]float64{0, 0, 0}, 3); got != "▁▁▁" {
		t.Errorf("all-zero = %q", got)
	}
	// Downsampling keeps each bucket's max, so a single spike survives.
	vals := make([]float64, 100)
	vals[50] = 10
	got := Sparkline(vals, 10)
	if len([]rune(got)) != 10 {
		t.Fatalf("width = %d, want 10", len([]rune(got)))
	}
	if []rune(got)[5] != '█' {
		t.Errorf("spike lost in downsampling: %q", got)
	}
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate inputs should render empty")
	}
}

func TestCollectorSamplesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("c_total")
	g := reg.Gauge("g_depth")
	h := reg.Histogram("h_seconds", []float64{1})

	c := NewCollector(reg, Options{Capacity: 8})
	ctr.Add(5)
	g.Set(3)
	h.Observe(0.5)
	c.Sample(tick(0))
	ctr.Add(5)
	h.Observe(2)
	c.Sample(tick(1))

	if n := len(c.Ticks()); n != 2 {
		t.Fatalf("store holds %d ticks, want 2", n)
	}
	if len(c.names) != 3 {
		t.Fatalf("names = %v", c.names)
	}
	if k := c.kinds["c_total"]; k != KindCounter {
		t.Errorf("c_total kind = %q", k)
	}
	ticks := c.Ticks()
	if len(ticks) != 2 || ticks[0].Counters["c_total"] != 5 || ticks[1].Counters["c_total"] != 10 {
		t.Errorf("counter ticks = %+v", ticks)
	}
	if hp := ticks[len(ticks)-1]; hp.Histograms["h_seconds"].Count != 2 || hp.value("h_seconds", KindHistogram) != 2 {
		t.Errorf("histogram latest = %+v", hp.Histograms)
	}
	if names := c.selectNames("nope"); names != nil {
		t.Errorf("unknown series selects %v", names)
	}

	// OnSample hooks observe each tick.
	var seen []time.Time
	c.OnSample(func(t Tick, _ bool) { seen = append(seen, t.T) })
	c.Sample(tick(2))
	if len(seen) != 1 || !seen[0].Equal(tick(2)) {
		t.Errorf("hook saw %v", seen)
	}
}

// A counter born after sampling has begun accumulated its whole value
// since the previous tick; it reads as zero at the ticks before it was
// born, so Increase sees the initial burst (an outage's 503s all land in
// the first few samples and then never grow again).
func TestCollectorSeriesBornMidCollection(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(reg, Options{Capacity: 8})
	c.Sample(tick(0)) // empty registry: no series yet
	c.Sample(tick(1))

	reg.Counter("late_total").Add(7)
	reg.Histogram("late_seconds", []float64{1}).Observe(0.5)
	c.Sample(tick(2))
	c.Sample(tick(3))

	ticks := c.Ticks()
	if len(ticks) != 4 || !ticks[0].T.Equal(tick(0)) || ticks[0].value("late_total", KindCounter) != 0 || ticks[1].value("late_total", KindCounter) != 0 {
		t.Fatalf("counter ticks = %+v, want zeros at ticks 0 and 1", ticks)
	}
	if got := increase(ticks, "late_total", KindCounter); got != 7 {
		t.Errorf("increase = %v, want the full first-seen value 7", got)
	}
	if ticks[1].value("late_seconds", KindHistogram) != 0 || ticks[1].Histograms["late_seconds"].Count != 0 {
		t.Fatalf("histogram at tick 1 = %+v, want zeros before birth", ticks[1].Histograms)
	}
	if d, ok := histIncrease(ticks, "late_seconds"); !ok || d.Count != 1 {
		t.Errorf("histIncrease = %+v (ok=%v), want the full first-seen count 1", d, ok)
	}

	// Series present from the very first sample start at their value:
	// whatever they accumulated before collection started is history.
	reg2 := obs.NewRegistry()
	reg2.Counter("early_total").Add(3)
	c2 := NewCollector(reg2, Options{Capacity: 8})
	c2.Sample(tick(0))
	c2.Sample(tick(1))
	if ticks := c2.Ticks(); len(ticks) != 2 || ticks[0].Counters["early_total"] != 3 {
		t.Errorf("early counter ticks = %+v, want exactly the 2 samples", ticks)
	}
}

func TestCollectorNilSafety(t *testing.T) {
	var c *Collector
	c.Start()
	c.Stop()
	c.Sample(tick(0))
	if c.Interval() != 0 {
		t.Error("nil collector should be empty")
	}
	c.OnSample(func(Tick, bool) { t.Error("nil collector ran a hook") })
	Watch(c, CrawlSignals(), func(*HealthReport) { t.Error("nil collector built a report") })
}

func TestCollectorStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total").Add(1)
	c := NewCollector(reg, Options{Interval: 5 * time.Millisecond, Capacity: 64})
	c.Start()
	time.Sleep(30 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	n := len(c.Ticks())
	if n < 2 {
		t.Fatalf("store holds %d ticks, want at least an initial sample plus ticks", n)
	}
	time.Sleep(15 * time.Millisecond)
	if len(c.Ticks()) != n {
		t.Error("sampling continued after Stop")
	}
}

func TestHistIncrease(t *testing.T) {
	mk := func(n int, c0, c1 int64) Tick {
		return Tick{T: tick(n), Snapshot: obs.Snapshot{Histograms: map[string]obs.HistogramSnapshot{"h": {
			Bounds: []float64{1},
			Counts: []int64{c0, c1},
			Count:  c0 + c1,
			Sum:    float64(c0)*0.5 + float64(c1)*2,
		}}}}
	}
	ticks := []Tick{
		mk(0, 2, 0),
		mk(1, 5, 1), // +3, +1
		mk(2, 6, 1), // +1, +0
	}
	d, ok := histIncrease(ticks, "h")
	if !ok || d.Count != 5 || d.Counts[0] != 4 || d.Counts[1] != 1 {
		t.Errorf("histIncrease = %+v ok=%v", d, ok)
	}
	if _, ok := histIncrease(ticks[:1], "h"); ok {
		t.Error("single tick has no increase")
	}
}

// promSampleRe is the text-format grammar of one sample line, spelled
// without the code under test: values hold no raw quote, backslash or
// newline outside the \\, \" and \n escapes.
var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\\\|\\"|\\n)*")*\})? [0-9]+$`)

// TestHostileLabelValuesSelectable drives label values no comma-split
// substring matcher could handle — an -slo objective name reaches
// obsprof_captures_total's trigger label verbatim — through every
// stage a series name passes: registration, the Prometheus exposition,
// series.jsonl, ReadTicks and selector matching. Each value must
// select exactly its own series at the end.
func TestHostileLabelValuesSelectable(t *testing.T) {
	hostile := []string{
		`a,b`, `say "hi"`, `back\slash`, "two\nlines", `ünï-cødé ✓`, `}`, `{x="y"}`,
		`trailing\`, `x",kind="cpu`, `\"`, `a\nb`, ``, ` spaced , out `,
	}
	reg := obs.NewRegistry()
	for i, v := range hostile {
		reg.Counter("obsprof_captures_total", obs.Label{Key: obs.KeyKind, Value: "cpu"},
			obs.Label{Key: obs.KeyTrigger, Value: "slo-page:" + v}).Add(int64(i + 1))
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(expo.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		samples++
		if !promSampleRe.MatchString(line) {
			t.Errorf("exposition line %q violates the text-format grammar", line)
		}
	}
	if samples != len(hostile) {
		t.Fatalf("%d sample lines for %d series:\n%s", samples, len(hostile), expo.String())
	}

	c := NewCollector(reg, Options{Capacity: 4})
	c.Sample(tick(0))
	c.Sample(tick(1))
	var jsonl bytes.Buffer
	if err := WriteTicks(&jsonl, c.Ticks()); err != nil {
		t.Fatal(err)
	}
	d, _, err := ReadTicks(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range hostile {
		sel := obs.Series{Family: "obsprof_captures_total", Labels: []obs.Label{{Key: obs.KeyTrigger, Value: "slo-page:" + v}}}.String()
		for side, s := range map[string]*Store{"live": c.Store, "read back": d} {
			names := s.selectNames(sel)
			if len(names) != 1 {
				t.Errorf("%s: selector %s matched %q, want exactly its own series", side, sel, names)
				continue
			}
			if ticks := s.Ticks(); len(ticks) != 2 || ticks[1].Counters[names[0]] != int64(i+1) {
				t.Errorf("%s: selector %s read %+v, want the series counting %d", side, sel, ticks, i+1)
			}
		}
	}
	if got := len(d.selectNames(`obsprof_captures_total{kind="cpu"}`)); got != len(hostile) {
		t.Errorf(`{kind="cpu"} selected %d series, want all %d`, got, len(hostile))
	}
}
