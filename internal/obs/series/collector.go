package series

import (
	"sort"
	"sync"
	"time"

	"gplus/internal/obs"
)

// Options configures a Collector.
type Options struct {
	// Interval is the sampling cadence (default 1s).
	Interval time.Duration
	// Capacity bounds how many points each series ring retains (default
	// 720 — 12 minutes at the default interval).
	Capacity int
	// Now overrides the clock, for tests (default time.Now).
	Now func() time.Time
}

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return time.Second
	}
	return o.Interval
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return 720
	}
	return o.Capacity
}

// Collector samples a Registry.Snapshot() at a fixed interval into
// per-series bounded ring buffers. Start launches the sampling
// goroutine; Sample takes one sample synchronously (tests and offline
// replay drive it directly). All methods are safe for concurrent use;
// a nil Collector is a no-op on every method, so wiring can be
// unconditional.
type Collector struct {
	reg  *obs.Registry
	opts Options

	mu       sync.RWMutex
	series   map[string]*bufSeries
	hooks    []func(time.Time)
	samples  int64
	lastTick time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	running   bool // set by Start before the goroutine launches
	stopc     chan struct{}
	done      chan struct{}
}

type bufSeries struct {
	kind Kind
	ring *ring
}

// NewCollector builds a collector over reg. The registry's sampler
// hooks (runtime metrics and friends) run on every tick, since Sample
// goes through Registry.Snapshot.
func NewCollector(reg *obs.Registry, opts Options) *Collector {
	return &Collector{
		reg:    reg,
		opts:   opts,
		series: make(map[string]*bufSeries),
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Interval returns the sampling cadence.
func (c *Collector) Interval() time.Duration {
	if c == nil {
		return 0
	}
	return c.opts.interval()
}

// Start takes one sample — before it returns, so whatever the caller
// does next is measured against that baseline tick, however late the
// goroutine is scheduled — then launches the sampling goroutine: one
// sample per interval until Stop. Repeated calls are no-ops.
func (c *Collector) Start() {
	if c == nil {
		return
	}
	c.startOnce.Do(func() {
		c.running = true
		c.Sample(c.now())
		go func() {
			defer close(c.done)
			ticker := time.NewTicker(c.opts.interval())
			defer ticker.Stop()
			for {
				select {
				case <-c.stopc:
					return
				case now := <-ticker.C:
					c.Sample(now)
				}
			}
		}()
	})
}

// Stop halts the sampling goroutine and waits for it to exit, then
// takes one final sample so the rings (and any dump written from them)
// include the very end of the run. Safe to call without Start, and
// repeatedly.
func (c *Collector) Stop() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() {
		close(c.stopc)
		if c.running {
			<-c.done
		}
		c.Sample(c.now())
	})
}

func (c *Collector) now() time.Time {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Now()
}

// Sample takes one sample of every registered metric at the given
// timestamp and then runs the OnSample hooks. The registry snapshot is
// taken outside the collector lock.
func (c *Collector) Sample(now time.Time) {
	if c == nil {
		return
	}
	// Wall clock only, as series.jsonl stores it: a live report and the
	// post-mortem of its dump then divide by the same durations.
	now = now.Round(0)
	snap := c.reg.Snapshot()
	c.mu.Lock()
	// Registry counters and histograms are born at zero, so a series
	// first seen mid-collection accumulated its whole value since the
	// previous tick. Without a synthetic zero baseline at that tick,
	// Increase would use the first recorded point as its baseline and
	// swallow the initial burst — exactly the points an outage at the
	// start of a crawl produces.
	prev := c.lastTick
	for name, v := range snap.Counters {
		s, born := c.buf(name, KindCounter)
		if born && !prev.IsZero() {
			s.ring.push(Point{T: prev, V: 0})
		}
		s.ring.push(Point{T: now, V: float64(v)})
	}
	for name, v := range snap.Gauges {
		s, _ := c.buf(name, KindGauge)
		s.ring.push(Point{T: now, V: float64(v)})
	}
	for name, hs := range snap.Histograms {
		hs := hs
		s, born := c.buf(name, KindHistogram)
		if born && !prev.IsZero() {
			zero := obs.HistogramSnapshot{Bounds: hs.Bounds, Counts: make([]int64, len(hs.Counts))}
			s.ring.push(Point{T: prev, V: 0, Hist: &zero})
		}
		s.ring.push(Point{T: now, V: float64(hs.Count), Hist: &hs})
	}
	c.lastTick = now
	c.samples++
	hooks := c.hooks
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// buf returns the ring of one series, creating it if needed; born
// reports whether this call created it. Caller holds the write lock.
func (c *Collector) buf(name string, kind Kind) (s *bufSeries, born bool) {
	s = c.series[name]
	if s == nil {
		s = &bufSeries{kind: kind, ring: newRing(c.opts.capacity())}
		c.series[name] = s
		born = true
	}
	return s, born
}

// OnSample registers fn to run after every sample with the sample's
// timestamp — the attachment point for the live health watcher (Watch).
// Hooks run on the sampling goroutine; keep them brief.
func (c *Collector) OnSample(fn func(now time.Time)) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.hooks = append(c.hooks, fn)
	c.mu.Unlock()
}

// Samples returns how many ticks have been taken.
func (c *Collector) Samples() int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.samples
}

// Names implements Source.
func (c *Collector) Names() []string {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	names := make([]string, 0, len(c.series))
	for name := range c.series {
		names = append(names, name)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// SeriesKind implements Source.
func (c *Collector) SeriesKind(name string) (Kind, bool) {
	if c == nil {
		return "", false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.series[name]
	if s == nil {
		return "", false
	}
	return s.kind, true
}

// PointsSince implements Source.
func (c *Collector) PointsSince(name string, since time.Time) []Point {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.series[name]
	if s == nil {
		return nil
	}
	return s.ring.pointsSince(since)
}
