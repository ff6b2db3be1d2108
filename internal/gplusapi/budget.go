package gplusapi

// The client's overload policy: a retry budget shared by a fleet of
// clients. The paper's crawl survived a flaky, throttling service for
// 45 days; that only works when retries are budgeted — a browning-out
// service must not be hit harder exactly when it is weakest, and a dead
// endpoint costs the fleet a bounded number of retries, not every
// worker's full retry ladder. The crawler shares one budget across its
// workers.

import (
	"errors"
	"sync"
	"time"

	"gplus/internal/obs"
)

// ErrRetryBudgetExhausted is returned (wrapped) when a retry was denied
// because the budget is out of tokens. It marks the failure as an
// overload condition: the request was abandoned to protect the service,
// not permanently failed by it.
var ErrRetryBudgetExhausted = errors.New("gplusapi: retry budget exhausted")

// BudgetOptions configures a RetryBudget. The zero value gives the
// defaults: at most ~10% of successful traffic may be retries, with a
// small floor so a quiet client can still probe.
type BudgetOptions struct {
	// Ratio is how many retry tokens each success deposits (default
	// 0.1): sustained, retries cannot exceed this fraction of the
	// success rate — a retry storm is impossible by construction.
	Ratio float64
	// MinPerSec trickles tokens in regardless of traffic (default 0.5),
	// so a client facing a total outage can still probe occasionally
	// instead of being locked out forever.
	MinPerSec float64
	// Burst caps banked tokens (default 10): a long quiet stretch must
	// not bank an arbitrarily large retry burst.
	Burst float64
}

func (o BudgetOptions) ratio() float64 {
	if o.Ratio > 0 {
		return o.Ratio
	}
	return 0.1
}

func (o BudgetOptions) minPerSec() float64 {
	if o.MinPerSec > 0 {
		return o.MinPerSec
	}
	return 0.5
}

func (o BudgetOptions) burst() float64 {
	if o.Burst > 0 {
		return o.Burst
	}
	return 10
}

// RetryBudget is a token bucket that makes retry storms structurally
// impossible: retries spend a token each, successes deposit Ratio
// tokens, and a slow MinPerSec trickle keeps a starved client probing.
// It is shared fleet-wide (all workers of a crawl draw from one budget)
// and safe for concurrent use. A nil *RetryBudget allows everything.
type RetryBudget struct {
	opts BudgetOptions

	mu     sync.Mutex
	tokens float64
	last   time.Time

	gTokens *obs.Gauge   // banked tokens, x1000
	cSpent  *obs.Counter // retries granted
	cDenied *obs.Counter // retries denied
}

// NewRetryBudget builds a budget starting with a full burst of tokens.
// When reg is non-nil the budget exports <prefix>_retry_budget_tokens_milli,
// <prefix>_retry_budget_spent_total, and <prefix>_retry_budget_denied_total.
func NewRetryBudget(opts BudgetOptions, reg *obs.Registry, prefix string) *RetryBudget {
	b := &RetryBudget{opts: opts, tokens: opts.burst(), last: time.Now()}
	if reg != nil {
		reg.Help(prefix+"_retry_budget_tokens_milli", "Retry tokens currently banked, x1000.")
		reg.Help(prefix+"_retry_budget_spent_total", "Retries granted by the retry budget.")
		reg.Help(prefix+"_retry_budget_denied_total", "Retries denied by an exhausted retry budget.")
		b.gTokens = reg.Gauge(prefix + "_retry_budget_tokens_milli")
		b.cSpent = reg.Counter(prefix + "_retry_budget_spent_total")
		b.cDenied = reg.Counter(prefix + "_retry_budget_denied_total")
		b.gTokens.Set(int64(b.tokens * 1000))
	}
	return b
}

// deposit credits the budget for one success. Nil-safe.
func (b *RetryBudget) deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.refillLocked(time.Now())
	b.tokens = min(b.tokens+b.opts.ratio(), b.opts.burst())
	b.gTokens.Set(int64(b.tokens * 1000))
	b.mu.Unlock()
}

// trySpend asks for one retry token, reporting whether the retry may
// proceed. A nil budget always grants.
func (b *RetryBudget) trySpend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(time.Now())
	if b.tokens < 1 {
		b.gTokens.Set(int64(b.tokens * 1000))
		b.cDenied.Inc()
		return false
	}
	b.tokens--
	b.gTokens.Set(int64(b.tokens * 1000))
	b.cSpent.Inc()
	return true
}

// refillLocked applies the MinPerSec trickle; the caller holds b.mu.
func (b *RetryBudget) refillLocked(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*b.opts.minPerSec(), b.opts.burst())
	}
	b.last = now
}
