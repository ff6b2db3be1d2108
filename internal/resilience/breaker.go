package resilience

import (
	"fmt"
	"sync"
	"time"

	"gplus/internal/obs"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes requests through, counting outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails requests fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one single-flight probe through;
	// its outcome decides between Closed and Open.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// OpenError is returned by Allow while the breaker is open (or while a
// half-open probe is already in flight). RetryIn hints when the next
// probe slot opens, so backoff loops can sleep exactly that long.
type OpenError struct {
	Name    string
	State   BreakerState
	RetryIn time.Duration
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: %s breaker %s (retry in %v)", e.Name, e.State, e.RetryIn)
}

// RetryAfterHint lets backoff machinery treat the breaker's cooldown as
// a Retry-After hint.
func (e *OpenError) RetryAfterHint() time.Duration { return e.RetryIn }

// BreakerOptions configures a Breaker; zero values give the defaults.
type BreakerOptions struct {
	// ConsecutiveFailures trips the breaker after this many failures in
	// a row (default 8).
	ConsecutiveFailures int
	// ErrorRatio trips the breaker when the failure fraction over the
	// sliding Window reaches it (default 0.5), once at least MinSamples
	// outcomes were observed (default 20).
	ErrorRatio float64
	MinSamples int
	// Window is the span of the error-ratio measurement (default 5s),
	// implemented as two rotating half-window buckets.
	Window time.Duration
	// Cooldown is how long an open breaker waits before letting a
	// half-open probe through (default 2s).
	Cooldown time.Duration
}

func (o BreakerOptions) consecutive() int {
	if o.ConsecutiveFailures > 0 {
		return o.ConsecutiveFailures
	}
	return 8
}

func (o BreakerOptions) errorRatio() float64 {
	if o.ErrorRatio > 0 {
		return o.ErrorRatio
	}
	return 0.5
}

func (o BreakerOptions) minSamples() int {
	if o.MinSamples > 0 {
		return o.MinSamples
	}
	return 20
}

func (o BreakerOptions) window() time.Duration {
	if o.Window > 0 {
		return o.Window
	}
	return 5 * time.Second
}

func (o BreakerOptions) cooldown() time.Duration {
	if o.Cooldown > 0 {
		return o.Cooldown
	}
	return 2 * time.Second
}

// bucket is one half-window of outcome counts.
type bucket struct{ good, bad int }

// Breaker is one endpoint's circuit breaker: closed → open on a
// consecutive-failure run or a windowed error ratio, half-open after the
// cooldown with a single-flight probe, closed again on probe success.
// Safe for concurrent use; a nil *Breaker always allows.
type Breaker struct {
	name string
	opts BreakerOptions

	mu          sync.Mutex
	state       BreakerState
	consecutive int       // consecutive failures while closed
	cur, prev   bucket    // rotating half-window outcome counts
	rotated     time.Time // when cur last became current
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	// closedDone is the done callback of every closed-state request,
	// bound once so Allow allocates nothing on the common path.
	closedDone func(success bool)

	gState       *obs.Gauge
	cTransitions *obs.Counter
	cDenied      *obs.Counter
}

// NewBreaker builds a closed breaker. When reg is non-nil it exports
// <prefix>_breaker_state{name=...} (0 closed, 1 open, 2 half-open),
// <prefix>_breaker_transitions_total{name=...}, and
// <prefix>_breaker_denied_total{name=...}.
func NewBreaker(name string, opts BreakerOptions, reg *obs.Registry, prefix string) *Breaker {
	b := &Breaker{name: name, opts: opts, rotated: time.Now()}
	b.closedDone = b.recordClosed
	if reg != nil {
		reg.Help(prefix+"_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.")
		reg.Help(prefix+"_breaker_transitions_total", "Circuit breaker state transitions.")
		reg.Help(prefix+"_breaker_denied_total", "Requests denied fast by an open circuit breaker.")
		label := obs.Label{Key: obs.KeyBreaker, Value: name}
		b.gState = reg.Gauge(prefix+"_breaker_state", label)
		b.cTransitions = reg.Counter(prefix+"_breaker_transitions_total", label)
		b.cDenied = reg.Counter(prefix+"_breaker_denied_total", label)
	}
	return b
}

// Allow asks to issue one request. On success it returns a done
// callback the caller must invoke once with the request's outcome; on denial
// it returns an *OpenError whose RetryIn hints when to try again. A nil
// breaker always allows with a no-op callback.
func (b *Breaker) Allow() (done func(success bool), err error) {
	if b == nil {
		return func(bool) {}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.rotateLocked(now)
	switch b.state {
	case BreakerOpen:
		if wait := b.openedAt.Add(b.opts.cooldown()).Sub(now); wait > 0 {
			b.cDenied.Inc()
			return nil, &OpenError{Name: b.name, State: BreakerOpen, RetryIn: wait}
		}
		b.setStateLocked(BreakerHalfOpen)
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			// Single-flight: one probe decides for everyone.
			b.cDenied.Inc()
			return nil, &OpenError{Name: b.name, State: BreakerHalfOpen, RetryIn: b.opts.cooldown() / 4}
		}
		b.probing = true
		return b.probeDone(), nil
	default:
		return b.closedDone, nil
	}
}

// probeDone resolves a half-open probe; the caller holds b.mu.
func (b *Breaker) probeDone() func(bool) {
	var once sync.Once
	return func(success bool) {
		once.Do(func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.probing = false
			if b.state != BreakerHalfOpen {
				return
			}
			if success {
				b.resetLocked()
				b.setStateLocked(BreakerClosed)
				return
			}
			b.openedAt = time.Now()
			b.setStateLocked(BreakerOpen)
		})
	}
}

// recordClosed records the outcome of a request Allow admitted in the
// closed state. Each such request reports exactly once.
func (b *Breaker) recordClosed(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.rotateLocked(now)
	if b.state != BreakerClosed {
		return // a concurrent outcome already tripped the breaker
	}
	if success {
		b.consecutive = 0
		b.cur.good++
		return
	}
	b.consecutive++
	b.cur.bad++
	good, bad := b.cur.good+b.prev.good, b.cur.bad+b.prev.bad
	ratioTrip := good+bad >= b.opts.minSamples() &&
		float64(bad)/float64(good+bad) >= b.opts.errorRatio()
	if b.consecutive >= b.opts.consecutive() || ratioTrip {
		b.openedAt = now
		b.setStateLocked(BreakerOpen)
	}
}

// rotateLocked advances the half-window buckets; the caller holds b.mu.
func (b *Breaker) rotateLocked(now time.Time) {
	half := b.opts.window() / 2
	for now.Sub(b.rotated) >= half {
		b.prev, b.cur = b.cur, bucket{}
		b.rotated = b.rotated.Add(half)
		if now.Sub(b.rotated) >= b.opts.window() {
			// Idle long enough that both buckets are stale.
			b.prev = bucket{}
			b.rotated = now
		}
	}
}

// resetLocked clears the outcome history; the caller holds b.mu.
func (b *Breaker) resetLocked() {
	b.consecutive = 0
	b.cur, b.prev = bucket{}, bucket{}
	b.rotated = time.Now()
}

// setStateLocked transitions the breaker; the caller holds b.mu.
func (b *Breaker) setStateLocked(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	b.gState.Set(int64(s))
	b.cTransitions.Inc()
}

// BreakerGroup is a lazily-populated set of breakers sharing one option
// set — one per endpoint, keyed by name. Safe for concurrent use; a nil
// group hands out nil (always-allow) breakers.
type BreakerGroup struct {
	opts   BreakerOptions
	reg    *obs.Registry
	prefix string

	mu  sync.Mutex
	set map[string]*Breaker
}

// NewBreakerGroup builds an empty group; breakers are created on first
// Get and export their series through reg (which may be nil).
func NewBreakerGroup(opts BreakerOptions, reg *obs.Registry, prefix string) *BreakerGroup {
	return &BreakerGroup{opts: opts, reg: reg, prefix: prefix, set: make(map[string]*Breaker)}
}

// Get returns the named breaker, creating it on first use. Nil-safe.
func (g *BreakerGroup) Get(name string) *Breaker {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.set[name]
	if b == nil {
		b = NewBreaker(name, g.opts, g.reg, g.prefix)
		g.set[name] = b
	}
	return b
}
