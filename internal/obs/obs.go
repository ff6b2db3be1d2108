// Package obs is the reproduction's dependency-free metrics layer: atomic
// counters, gauges, and fixed-bucket latency histograms living in a named
// registry, with snapshotting and Prometheus-text / JSON exposition over
// HTTP. The paper's 45-day, 11-machine crawl was operable because its
// operators could watch throughput, error rates, and frontier growth as it
// ran; obs gives the simulator, the API client, and the crawler that same
// live view.
//
// Every method is nil-safe: metrics obtained from a nil *Registry are nil,
// and operations on nil metrics are no-ops. Library code can therefore
// instrument unconditionally and callers that do not pass a registry pay
// only a nil check.
//
// A series is a metric family plus typed labels,
//
//	reg.Counter("gplusd_requests_total", obs.Label{obs.KeyEndpoint, obs.EndpointProfile})
//
// whose keys are the constants of labels.go — the one vocabulary that
// pprof labels and span attributes are built from too. The registry
// renders the canonical name family{k="v",…} once, at registration;
// exposition groups series by family and emits one TYPE (and optional
// HELP) line per family.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds — spanning sub-millisecond local responses through multi-second
// rate-limited backoff.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative n is ignored so the counter stays monotone.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, in-flight
// requests). The zero value is ready to use; a nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by n (negative n decrements).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined by sorted
// upper bounds, with an implicit +Inf overflow bucket, and tracks the sum
// and count of all observations. A nil Histogram is a no-op.
//
// Writes are lock-free; Snapshot returns a *consistent* cut in which
// count, sum, and bucket counts all describe exactly the same set of
// observations. Consistency uses the hot/cold double-buffer scheme of
// prometheus/client_golang: countAndHotIdx's top bit selects the half
// observers write into and its low 63 bits count observations started;
// a snapshot atomically flips the hot half, waits for in-flight
// observers to drain into the now-cold half, reads it, and folds it
// back into the hot half.
type Histogram struct {
	bounds         []float64 // sorted upper bounds
	countAndHotIdx atomic.Uint64
	halves         [2]histHalf
	snapMu         sync.Mutex // serializes snapshots (writers never take it)
}

// histHalf is one of the two observation buffers. count is advanced
// last in Observe, so count == observations fully landed in this half.
type histHalf struct {
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

const histCountMask = 1<<63 - 1

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	n := h.countAndHotIdx.Add(1)
	hot := &h.halves[n>>63]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	hot.counts[i].Add(1)
	for {
		old := hot.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if hot.sum.CompareAndSwap(old, next) {
			break
		}
	}
	// Must be last: signals this observation is fully visible, so a
	// snapshot's drain-wait covers the bucket and sum updates above.
	hot.count.Add(1)
}

// Snapshot returns a consistent point-in-time view of the histogram:
// Count always equals both the sum of Counts and the number of
// observations contributing to Sum, even under concurrent Observe
// calls. A nil histogram returns a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	// Flip the hot half; n's low bits are the observations started
	// before the flip, all of which went (or are going) into the cold
	// half — cold has accumulated every prior fold, so it converges to
	// the global totals once in-flight observers drain.
	n := h.countAndHotIdx.Add(1 << 63)
	started := n & histCountMask
	hot := &h.halves[n>>63]
	cold := &h.halves[1-n>>63]
	for cold.count.Load() != started {
		runtime.Gosched()
	}
	hs := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(cold.counts)),
		Count:  int64(started),
		Sum:    math.Float64frombits(cold.sum.Load()),
	}
	for i := range cold.counts {
		hs.Counts[i] = cold.counts[i].Load()
	}
	// Fold the cold totals into the hot half (so it carries the global
	// totals for the next flip) and zero the cold half. Only this
	// snapshotter touches cold: observers moved on at the flip and the
	// stragglers were drained above.
	for i := range cold.counts {
		hot.counts[i].Add(cold.counts[i].Load())
		cold.counts[i].Store(0)
	}
	for {
		old := hot.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + hs.Sum)
		if hot.sum.CompareAndSwap(old, next) {
			break
		}
	}
	cold.sum.Store(0)
	hot.count.Add(started)
	cold.count.Store(0)
	return hs
}

// Registry is a named collection of metrics, safe for concurrent use. The
// nil *Registry is valid and hands out nil (no-op) metrics, so
// instrumented code never branches on "is telemetry on".
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by family name
	samplers []func()          // run before every Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// lookup returns the metric of m registered under family and labels,
// creating it with mk on first use. The canonical series name is built
// here, once, with the label values escaped; a hit allocates nothing.
// An invalid family or label key — a '{' pasted into the family, say —
// is a programming error and panics.
func lookup[M any](r *Registry, m map[string]*M, family string, labels []Label, mk func() *M) *M {
	if !validName(family, true) {
		panic(fmt.Sprintf("obs: invalid metric family %q (labels are passed as obs.Label values)", family))
	}
	for _, l := range labels {
		if !validName(l.Key, false) {
			panic(fmt.Sprintf("obs: invalid label key %q on %s", l.Key, family))
		}
	}
	var buf [128]byte
	name := appendSeries(buf[:0], family, labels)
	r.mu.RLock()
	v := m[string(name)]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[string(name)]; v == nil {
		v = mk()
		m[string(name)] = v
	}
	return v
}

// Counter returns the counter of the series family{labels…}, creating
// it on first use. Returns nil (a no-op counter) when r is nil.
func (r *Registry) Counter(family string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, family, labels, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge of the series family{labels…}, creating it on
// first use. Returns nil (a no-op gauge) when r is nil.
func (r *Registry) Gauge(family string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, family, labels, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram of the series family{labels…},
// creating it with the given bucket upper bounds on first use (nil
// bounds means DefBuckets; bounds must be sorted ascending). Later calls
// return the existing histogram regardless of bounds. Returns nil when r
// is nil.
func (r *Registry) Histogram(family string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, family, labels, func() *Histogram {
		if bounds == nil {
			bounds = DefBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		for i := range h.halves {
			h.halves[i].counts = make([]atomic.Int64, len(bounds)+1)
		}
		return h
	})
}

// Help attaches a HELP line to a metric family.
func (r *Registry) Help(family, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// element for the +Inf overflow bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every metric in a registry. Each
// individual metric is read consistently (histograms via their hot/cold
// drain, so count, sum, and buckets agree); the snapshot as a whole is
// still not a consistent cut *across* metrics under concurrent writers.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// RegisterSampler schedules fn to run at the start of every Snapshot —
// and therefore before every exposition and every time-series collector
// tick. The hook refreshes pull-style metrics (runtime stats, depths
// read from elsewhere) just in time to be read. fn must not call back
// into Snapshot. Hooks cannot be unregistered; a nil registry or fn is
// a no-op.
func (r *Registry) RegisterSampler(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.samplers = append(r.samplers, fn)
	r.mu.Unlock()
}

// Snapshot copies out the current value of every registered metric. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	// Samplers run outside the lock: they write metrics (atomic, no lock
	// needed) and the slice is append-only, so the copied header is safe.
	r.mu.RLock()
	samplers := r.samplers
	r.mu.RUnlock()
	for _, fn := range samplers {
		fn()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}
