package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// Every operation on nil metrics must be a safe no-op.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(0.5)
	r.Help("c", "text")
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 || h.Snapshot().Sum != 0 {
		t.Error("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", buf.String(), err)
	}
	// And the handler must still answer.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Errorf("nil registry handler status = %d", rec.Code)
	}
}

func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		iters      = 2000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Lookups race with updates on purpose: the registry must
			// return the same instance to all goroutines.
			c := r.Counter("hits_total")
			g := r.Gauge("depth")
			h := r.Histogram("latency_seconds", nil)
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j%7) * 0.01)
				if j%100 == 0 {
					r.Snapshot() // snapshots race with writers
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("hits_total").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced add/sub", got)
	}
	h := r.Histogram("latency_seconds", nil)
	if got := h.Snapshot().Count; got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
	// Sum of 0..6 (*0.01) over iters/7 cycles per goroutine.
	var want float64
	for j := 0; j < iters; j++ {
		want += float64(j%7) * 0.01
	}
	want *= goroutines
	if got := h.Snapshot().Sum; got < want*0.999 || got > want*1.001 {
		t.Errorf("histogram sum = %g, want ~%g", got, want)
	}
}

func TestSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 0.5, 5} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs, ok := snap.Histograms["lat"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("counts len %d, bounds len %d", len(hs.Counts), len(hs.Bounds))
	}
	var total int64
	for _, c := range hs.Counts {
		total += c
	}
	if total != hs.Count {
		t.Errorf("bucket counts sum to %d, Count = %d", total, hs.Count)
	}
	if want := []int64{1, 2, 1}; hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] {
		t.Errorf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Sum != 6.05 {
		t.Errorf("sum = %g, want 6.05", hs.Sum)
	}
	// Snapshots are copies: mutating after must not change the snapshot.
	h.Observe(100)
	if hs2 := r.Snapshot().Histograms["lat"]; hs2.Count == hs.Count {
		t.Error("second snapshot did not observe the new value")
	}
	if hs.Count != 4 {
		t.Error("first snapshot mutated by later observation")
	}
}

func TestPrometheusTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", Label{KeyEndpoint, EndpointProfile}).Add(7)
	r.Counter("requests_total", Label{KeyEndpoint, EndpointCircles}).Add(3)
	r.Help("requests_total", "Requests served by endpoint.")
	r.Gauge("in_flight").Set(2)
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1}, Label{KeyEndpoint, EndpointProfile})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE in_flight gauge
in_flight 2
# TYPE latency_seconds histogram
latency_seconds_bucket{endpoint="profile",le="0.01"} 1
latency_seconds_bucket{endpoint="profile",le="0.1"} 2
latency_seconds_bucket{endpoint="profile",le="+Inf"} 3
latency_seconds_sum{endpoint="profile"} 0.555
latency_seconds_count{endpoint="profile"} 3
# HELP requests_total Requests served by endpoint.
# TYPE requests_total counter
requests_total{endpoint="circles"} 3
requests_total{endpoint="profile"} 7
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestHandlerFormats: /metrics has one exposition. A JSON query or
// Accept header still gets Prometheus text.
func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()

	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/metrics", nil),
		httptest.NewRequest("GET", "/metrics?format=json", nil),
		func() *http.Request {
			req := httptest.NewRequest("GET", "/metrics", nil)
			req.Header.Set("Accept", "application/json")
			return req
		}(),
	} {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s (Accept %q): Content-Type = %q", req.URL, req.Header.Get("Accept"), ct)
		}
		if rec.Body.String() != "# TYPE c counter\nc 1\n" {
			t.Errorf("%s (Accept %q): body = %q", req.URL, req.Header.Get("Accept"), rec.Body.String())
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5 (negative add ignored)", c.Value())
	}
}

// TestHistogramSnapshotConsistentUnderConcurrentObserve races snapshots
// against a storm of identical observations and checks the invariant the
// hot/cold scheme exists to provide: every snapshot's Count, Sum, and
// bucket totals describe exactly the same set of observations. Run with
// -race to also exercise the memory-ordering claims.
func TestHistogramSnapshotConsistentUnderConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1})
	const (
		writers = 8
		iters   = 5000
		v       = 0.5
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				h.Observe(v)
			}
		}()
	}
	snapshots := 0
	check := func(hs HistogramSnapshot) {
		snapshots++
		var buckets int64
		for _, c := range hs.Counts {
			buckets += c
		}
		if buckets != hs.Count {
			t.Fatalf("snapshot %d: bucket counts sum to %d, Count = %d", snapshots, buckets, hs.Count)
		}
		if want := v * float64(hs.Count); hs.Sum != want {
			t.Fatalf("snapshot %d: Sum = %g for Count %d, want %g — count/sum tore", snapshots, hs.Sum, hs.Count, want)
		}
	}
	go func() {
		wg.Wait()
		close(stop)
	}()
	for {
		select {
		case <-stop:
			final := h.Snapshot()
			check(final)
			if final.Count != writers*iters {
				t.Fatalf("final Count = %d, want %d", final.Count, writers*iters)
			}
			t.Logf("validated %d concurrent snapshots", snapshots)
			return
		default:
			check(h.Snapshot())
		}
	}
}
