package resilience

import (
	"context"
	"sync"
	"time"

	"gplus/internal/obs"
)

// Feedback is the congestion-signal sink a client reports into: one
// RecordSuccess per completed request, one RecordOverload per 429/503/
// deadline-expiry signal. The crawler hands its AIMD gate to every
// worker's API client through this interface.
type Feedback interface {
	RecordSuccess()
	RecordOverload()
}

// AIMDOptions configures an AIMD gate.
type AIMDOptions struct {
	// Min is the floor the limit never drops below (default 1).
	Min int
	// Max is the ceiling and the starting limit (default 16). The
	// crawler sets this to its worker count.
	Max int
	// Cooldown is the minimum spacing between cuts (default 200ms), so a
	// single burst of rejections — N workers all seeing the same squeeze —
	// counts as one congestion event, not N collapses to Min.
	Cooldown time.Duration
	// OnDecrease, when non-nil, runs after each multiplicative cut with
	// the new limit — outside the gate's lock, so it may call back into
	// the gate. The continuous profiler hooks this to capture the moment
	// the fleet collapses toward Min.
	OnDecrease func(limit int)
}

func (o AIMDOptions) minLimit() int {
	if o.Min > 0 {
		return o.Min
	}
	return 1
}

func (o AIMDOptions) maxLimit() int {
	if o.Max > 0 {
		return o.Max
	}
	return 16
}

func (o AIMDOptions) cooldown() time.Duration {
	if o.Cooldown > 0 {
		return o.Cooldown
	}
	return 200 * time.Millisecond
}

// AIMD is an additive-increase/multiplicative-decrease concurrency
// gate: the whole worker fleet shares one, so overload signals from any
// worker throttle everyone — the fleet backs off as one organism. The
// limit starts at Max, is halved on overload (at most once per
// Cooldown), and creeps back up by one slot per limit-many successes,
// exactly like TCP's congestion window in congestion avoidance. A nil
// *AIMD gates nothing.
type AIMD struct {
	opts AIMDOptions

	mu      sync.Mutex
	cond    *sync.Cond
	limit   int
	active  int
	credits int // successes accumulated toward the next +1
	lastCut time.Time

	gLimit     *obs.Gauge
	cDecreases *obs.Counter
}

// NewAIMD builds a gate starting wide open at Max. When reg is non-nil
// it exports <prefix>_aimd_limit and <prefix>_aimd_decreases_total.
func NewAIMD(opts AIMDOptions, reg *obs.Registry, prefix string) *AIMD {
	g := &AIMD{opts: opts, limit: opts.maxLimit()}
	g.cond = sync.NewCond(&g.mu)
	if reg != nil {
		reg.Help(prefix+"_aimd_limit", "Current AIMD concurrency limit shared by the worker fleet.")
		reg.Help(prefix+"_aimd_decreases_total", "Multiplicative decreases applied to the AIMD limit.")
		g.gLimit = reg.Gauge(prefix + "_aimd_limit")
		g.cDecreases = reg.Counter(prefix + "_aimd_decreases_total")
		g.gLimit.Set(int64(g.limit))
	}
	return g
}

// Acquire blocks until a concurrency slot is free or ctx ends,
// reporting whether a slot was taken. Nil-safe (always true).
func (g *AIMD) Acquire(ctx context.Context) bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.active >= g.limit && ctx.Err() == nil {
		// About to wait: wake all waiters when ctx ends so none are
		// stranded in Wait. A free slot is taken without registering.
		stop := context.AfterFunc(ctx, func() {
			g.mu.Lock()
			g.cond.Broadcast()
			g.mu.Unlock()
		})
		defer stop()
		for g.active >= g.limit {
			if ctx.Err() != nil {
				return false
			}
			g.cond.Wait()
		}
	}
	if ctx.Err() != nil {
		return false
	}
	g.active++
	return true
}

// Release returns a slot taken by Acquire. Nil-safe.
func (g *AIMD) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.active--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// RecordSuccess credits the additive increase: limit-many successes at
// the current limit buy one extra slot, up to Max. Nil-safe.
func (g *AIMD) RecordSuccess() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.credits++
	if g.credits >= g.limit && g.limit < g.opts.maxLimit() {
		g.credits = 0
		g.limit++
		g.gLimit.Set(int64(g.limit))
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// RecordOverload applies the multiplicative decrease, rate-limited by
// Cooldown so one burst of rejections is one congestion event. Nil-safe.
func (g *AIMD) RecordOverload() {
	if g == nil {
		return
	}
	g.mu.Lock()
	cut, limit := false, 0
	now := time.Now()
	if now.Sub(g.lastCut) >= g.opts.cooldown() {
		g.lastCut = now
		g.credits = 0
		g.limit /= 2
		if g.limit < g.opts.minLimit() {
			g.limit = g.opts.minLimit()
		}
		g.gLimit.Set(int64(g.limit))
		g.cDecreases.Inc()
		cut, limit = true, g.limit
	}
	g.mu.Unlock()
	if cut && g.opts.OnDecrease != nil {
		g.opts.OnDecrease(limit)
	}
}
