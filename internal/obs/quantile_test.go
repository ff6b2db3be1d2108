package obs

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func snapshotOf(bounds []float64, values ...float64) HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds: bounds,
		Counts: make([]int64, len(bounds)+1),
	}
	for _, v := range values {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		hs.Counts[i]++
		hs.Count++
		hs.Sum += v
	}
	return hs
}

func TestQuantileInterpolation(t *testing.T) {
	// 100 observations uniform in (0, 1]: value k/100 lands in bucket
	// (lo, hi]. With uniform data the interpolated quantile should track
	// the exact empirical quantile within one bucket's width.
	bounds := []float64{0.1, 0.25, 0.5, 1, 2.5}
	var values []float64
	for k := 1; k <= 100; k++ {
		values = append(values, float64(k)/100)
	}
	hs := snapshotOf(bounds, values...)
	sort.Float64s(values)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := hs.Quantile(q)
		exact := values[int(math.Ceil(q*100))-1]
		// The estimator is exact at bucket edges and linear between; for
		// uniform data the error is bounded by the bucket width.
		if math.Abs(got-exact) > 0.06 {
			t.Errorf("Quantile(%g) = %g, exact %g (diff %g)", q, got, exact, got-exact)
		}
	}
	// Exact at a bucket boundary: 50 of 100 observations are <= 0.5, so
	// q=0.5's rank lands exactly at the 0.5 bound.
	if got := hs.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Quantile(0.5) = %g, want 0.5 exactly", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2}
	hs := snapshotOf(bounds, 0.5, 1.5, 5)

	if got := hs.Quantile(1); got != 2 {
		t.Errorf("q=1 with an observation in +Inf: got %g, want last finite bound 2", got)
	}
	if got := hs.Quantile(0); got <= 0 || got > 1 {
		t.Errorf("q=0 should land in the first non-empty bucket (0,1]: got %g", got)
	}
	if got := snapshotOf(bounds).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty snapshot: got %g, want NaN", got)
	}
	if got := hs.Quantile(1.5); !math.IsNaN(got) {
		t.Errorf("q out of range: got %g, want NaN", got)
	}
	if got := hs.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("q NaN: got %g, want NaN", got)
	}
	malformed := HistogramSnapshot{Bounds: bounds, Counts: []int64{1}, Count: 1}
	if got := malformed.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("malformed counts: got %g, want NaN", got)
	}
}

func TestCountBelow(t *testing.T) {
	bounds := []float64{1, 2}
	// 2 obs in (0,1], 4 in (1,2], 1 above.
	hs := snapshotOf(bounds, 0.2, 0.8, 1.2, 1.4, 1.6, 1.8, 9)

	cases := []struct {
		v    float64
		want float64
	}{
		{0, 0},
		{1, 2},
		{1.5, 4}, // 2 + half of the (1,2] bucket
		{2, 6},   // everything finite
		{100, 6}, // finite past the last bound: +Inf bucket excluded
		{math.Inf(1), 7},
	}
	for _, c := range cases {
		if got := hs.CountBelow(c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CountBelow(%g) = %g, want %g", c.v, got, c.want)
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	bounds := []float64{1, 2}
	prev := snapshotOf(bounds, 0.5, 1.5)
	cur := snapshotOf(bounds, 0.5, 1.5, 1.7, 3)

	d := cur.Sub(prev)
	if d.Count != 2 || d.Counts[1] != 1 || d.Counts[2] != 1 || math.Abs(d.Sum-4.7) > 1e-9 {
		t.Errorf("Sub delta wrong: %+v", d)
	}

	// Reset (count decreased): the newer snapshot is the whole window.
	reset := snapshotOf(bounds, 0.5)
	if got := reset.Sub(cur); got.Count != reset.Count || got.Counts[0] != reset.Counts[0] {
		t.Errorf("Sub after reset should return the newer snapshot, got %+v", got)
	}

	// Per-bucket decrease with equal totals is also a reset.
	a := snapshotOf(bounds, 0.5, 0.6)
	b := snapshotOf(bounds, 1.5, 1.6)
	if got := b.Sub(a); got.Counts[0] != b.Counts[0] || got.Counts[1] != b.Counts[1] {
		t.Errorf("Sub with shrinking bucket should return the newer snapshot, got %+v", got)
	}
}

func TestExpositionEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Help("esc_total", "line one\nline two with \\ backslash")
	reg.Counter("esc_total", Label{"path", `/a"b`}, Label{"q", "x\ny"}).Add(3)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if !strings.Contains(out, `# HELP esc_total line one\nline two with \\ backslash`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	// The raw newline inside the q value must be emitted as \n and the
	// raw quote inside the path value as \".
	if !strings.Contains(out, `esc_total{path="/a\"b",q="x\ny"} 3`) {
		t.Errorf("label values not escaped:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "x") && strings.Contains(line, "y") && !strings.Contains(line, `\n`) {
			t.Errorf("raw newline leaked into exposition line %q", line)
		}
	}
}

func TestExpositionEscapingHistogramLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("esc_seconds", []float64{1}, Label{"op", "a\nb"}).Observe(0.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `esc_seconds_bucket{op="a\nb",le="1"} 1`) {
		t.Errorf("histogram label not escaped:\n%s", out)
	}
}

func TestRegisterSampler(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("sampled_value")
	n := int64(0)
	reg.RegisterSampler(func() {
		n++
		g.Set(n)
	})
	if v := reg.Snapshot().Gauges["sampled_value"]; v != 1 {
		t.Errorf("first snapshot: gauge = %d, want 1", v)
	}
	if v := reg.Snapshot().Gauges["sampled_value"]; v != 2 {
		t.Errorf("second snapshot: gauge = %d, want 2", v)
	}
	// Nil receiver / nil fn are no-ops.
	var nilReg *Registry
	nilReg.RegisterSampler(func() {})
	reg.RegisterSampler(nil)
}

func TestRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	snap := reg.Snapshot()
	if snap.Gauges["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %d, want > 0", snap.Gauges["go_goroutines"])
	}
	if snap.Gauges["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", snap.Gauges["go_heap_alloc_bytes"])
	}
	if _, ok := snap.Histograms["go_gc_pause_seconds"]; !ok {
		t.Error("go_gc_pause_seconds histogram missing")
	}
	// Exposition must carry HELP for the runtime families.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# HELP go_goroutines") {
		t.Error("runtime metrics missing HELP lines")
	}
	// Nil registry is a no-op.
	RegisterRuntimeMetrics(nil)
}
