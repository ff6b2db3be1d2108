package prof

import (
	"bytes"
	"context"
	"runtime/pprof"
	"sync"
	"time"

	"gplus/internal/obs"
)

// Options configures a Collector.
type Options struct {
	// Interval is the period between capture cycles (default 30s).
	Interval time.Duration
	// CPUDuration is how long each cycle's CPU profile window runs
	// (default min(10s, Interval/2); clamped to Interval).
	CPUDuration time.Duration
	// TriggerCPUDuration is the length of the CPU burst recorded after
	// an anomaly trigger (default 1s).
	TriggerCPUDuration time.Duration
	// TriggerCooldown suppresses triggers arriving within this window
	// of the last accepted one (default 30s).
	TriggerCooldown time.Duration
	// Metrics receives the obsprof_* capture series; nil disables them.
	Metrics *obs.Registry
}

// Collector periodically captures CPU, heap, goroutine and mutex
// profiles into a Store, and accepts anomaly triggers that fire
// an immediate goroutine dump plus a short CPU burst tagged with the
// trigger reason. One Collector may run per process: Go allows only a
// single active CPU profile, which the collector's cycle loop owns. A
// nil *Collector is a no-op.
type Collector struct {
	store *Store
	opts  Options

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	triggers chan string

	mu          sync.Mutex
	lastTrigger time.Time

	capSeconds *obs.Histogram
	capErrors  *obs.Counter
}

// NewCollector wires a collector to a store; call Start to begin
// capturing.
func NewCollector(store *Store, opts Options) *Collector {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.CPUDuration <= 0 {
		opts.CPUDuration = min(10*time.Second, opts.Interval/2)
	}
	if opts.CPUDuration > opts.Interval {
		opts.CPUDuration = opts.Interval
	}
	if opts.TriggerCPUDuration <= 0 {
		opts.TriggerCPUDuration = time.Second
	}
	if opts.TriggerCooldown <= 0 {
		opts.TriggerCooldown = 30 * time.Second
	}
	c := &Collector{
		store:    store,
		opts:     opts,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		triggers: make(chan string, 4),
	}
	if reg := opts.Metrics; reg != nil {
		reg.Help("obsprof_capture_seconds", "Wall-clock cost of writing one profile capture (excluding CPU-profile windows).")
		reg.Help("obsprof_capture_errors_total", "Profile captures that failed to record.")
		c.capSeconds = reg.Histogram("obsprof_capture_seconds", nil)
		c.capErrors = reg.Counter("obsprof_capture_errors_total")
	}
	return c
}

// Start launches the capture loop.
func (c *Collector) Start() {
	if c == nil {
		return
	}
	go c.run()
}

// Stop ends the capture loop, flushing the in-flight CPU window and a
// final set of snapshots. Safe to call more than once.
func (c *Collector) Stop() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stopCh) })
	<-c.done
}

// Trigger requests an immediate anomaly capture (goroutine dump + CPU
// burst) tagged with reason. Non-blocking: triggers inside the cooldown
// window, or beyond the small pending queue, are dropped — an anomaly
// storm must not turn the profiler itself into load.
func (c *Collector) Trigger(reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	now := time.Now()
	if now.Sub(c.lastTrigger) < c.opts.TriggerCooldown {
		c.mu.Unlock()
		return
	}
	c.lastTrigger = now
	c.mu.Unlock()
	select {
	case c.triggers <- reason:
	default:
	}
}

func (c *Collector) run() {
	defer close(c.done)
	defer c.snapshots("final")
	// Label our own goroutine so collector overhead is attributable in
	// the very profiles it captures.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(obs.KeyPhase, obs.PhaseObsprof)))
	for {
		cycleStart := time.Now()
		data, reason, stopped := c.cpuWindow(c.opts.CPUDuration, true)
		if data != nil {
			c.append("cpu", "interval", data)
		}
		if !stopped && reason != "" {
			stopped = c.burst(reason)
		}
		if !stopped {
			c.snapshots("interval")
		}
		// Wait out the remainder of the interval, still responsive to
		// stop and triggers.
		for !stopped {
			remain := c.opts.Interval - time.Since(cycleStart)
			if remain <= 0 {
				break
			}
			if reason, stopped = c.wait(remain, true); reason != "" {
				stopped = c.burst(reason)
			}
		}
		if stopped {
			return
		}
	}
}

// burst records the anomaly capture for one trigger: an immediate
// goroutine dump, then a short CPU window, both tagged with the
// reason. It reports whether the collector was stopped mid-burst.
func (c *Collector) burst(reason string) (stopped bool) {
	c.snapshot("goroutine", reason)
	data, _, stopped := c.cpuWindow(c.opts.TriggerCPUDuration, false)
	if data != nil {
		c.append("cpu", reason, data)
	}
	return stopped
}

// wait blocks for d, or until Stop (stopped) or — when interruptible —
// a trigger (its reason) arrives first.
func (c *Collector) wait(d time.Duration, interruptible bool) (reason string, stopped bool) {
	var triggers <-chan string // nil, never ready, unless interruptible
	if interruptible {
		triggers = c.triggers
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-c.stopCh:
		stopped = true
	case reason = <-triggers:
	case <-timer.C:
	}
	return reason, stopped
}

// cpuWindow records one CPU profile window of at most d (see wait for
// what ends it early). Returns the profile bytes (nil when starting
// the profile failed — e.g. a concurrent /debug/pprof/profile request
// owns the profiler — in which case the window still paces the loop),
// the interrupting trigger reason (""), and whether Stop was observed.
func (c *Collector) cpuWindow(d time.Duration, interruptible bool) (data []byte, reason string, stopped bool) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		c.capErrors.Inc()
		reason, stopped = c.wait(d, interruptible)
		return nil, reason, stopped
	}
	reason, stopped = c.wait(d, interruptible)
	pprof.StopCPUProfile()
	return buf.Bytes(), reason, stopped
}

// snapshots writes the non-CPU profile kinds with the given trigger.
func (c *Collector) snapshots(trigger string) {
	for _, kind := range []string{"heap", "goroutine", "mutex"} {
		c.snapshot(kind, trigger)
	}
}

// snapshot captures one runtime profile by name and appends it to the
// ring.
func (c *Collector) snapshot(kind, trigger string) {
	p := pprof.Lookup(kind)
	if p == nil {
		c.capErrors.Inc()
		return
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		c.capErrors.Inc()
		return
	}
	c.append(kind, trigger, buf.Bytes())
}

// append records the capture, charging the wall-clock cost to
// obsprof_capture_seconds.
func (c *Collector) append(kind, trigger string, data []byte) {
	start := time.Now()
	if err := c.store.Append(kind, trigger, data); err != nil {
		c.capErrors.Inc()
		return
	}
	c.capSeconds.Observe(time.Since(start).Seconds())
}
