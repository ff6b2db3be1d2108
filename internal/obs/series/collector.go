package series

import (
	"sync"
	"time"

	"gplus/internal/obs"
)

// Options configures a Collector.
type Options struct {
	// Interval is the sampling cadence (default 1s).
	Interval time.Duration
	// Capacity is how many ticks the store keeps (default 720 — 12
	// minutes at the default interval): on reaching 2 × Capacity it drops
	// back to the newest Capacity.
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

// Collector samples a Registry.Snapshot() at a fixed interval into its
// Store, one tick per sample. Start launches the sampling goroutine;
// Sample takes one sample synchronously (tests drive it directly). All
// methods are safe for concurrent use; a nil Collector is a no-op on
// every method it does not take from the Store, so wiring can be
// unconditional.
type Collector struct {
	*Store
	reg  *obs.Registry
	opts Options

	mu    sync.Mutex
	hooks []func(t Tick, dropped bool)

	startOnce sync.Once
	stopOnce  sync.Once
	running   bool // set by Start before the goroutine launches
	stopc     chan struct{}
	done      chan struct{}
}

// NewCollector builds a collector over reg. The registry's sampler
// hooks (runtime metrics and friends) run on every tick, since Sample
// goes through Registry.Snapshot.
func NewCollector(reg *obs.Registry, opts Options) *Collector {
	return &Collector{
		Store: newStore(opts.capacity()),
		reg:   reg,
		opts:  opts,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
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
// takes one final sample so the store (and the run directory's log)
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

// Sample takes one tick of every registered metric at the given
// timestamp, adds it to the store, and then runs the OnSample hooks.
func (c *Collector) Sample(now time.Time) {
	if c == nil {
		return
	}
	// Wall clock only, as series.jsonl stores it: a live report and the
	// post-mortem of its log then divide by the same durations.
	t := Tick{T: now.Round(0), Snapshot: c.reg.Snapshot()}
	dropped := c.add(t)
	c.mu.Lock()
	hooks := c.hooks
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(t, dropped)
	}
}

// OnSample registers fn to run after every sample with the new tick;
// dropped reports that the tick took the store to 2 × Capacity, so it
// now holds only the newest Capacity. It is the attachment point for
// the live health watcher (Watch) and the run directory's series log.
// Hooks run on the sampling goroutine; keep them brief.
func (c *Collector) OnSample(fn func(t Tick, dropped bool)) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.hooks = append(c.hooks, fn)
	c.mu.Unlock()
}
