package resilience

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"gplus/internal/obs"
)

// Priority is an admission class. High-priority requests (cheap profile
// fetches, operational endpoints) are admitted ahead of low-priority
// ones (expensive circle pages) and may displace them from a full
// queue: under overload the expensive work sheds first.
type Priority int

const (
	PriorityHigh Priority = iota
	PriorityLow
	numPriorities
)

func (p Priority) String() string {
	if p == PriorityLow {
		return "low"
	}
	return "high"
}

// Shed reasons, used as metric labels and in ShedError messages.
const (
	ShedQueueFull = "queue_full" // wait queue at capacity
	ShedDeadline  = "deadline"   // propagated deadline would expire in queue
	ShedExpired   = "expired"    // deadline already passed on arrival or in queue
	ShedDisplaced = "displaced"  // pushed out of a full queue by higher priority
	ShedTimeout   = "timeout"    // waited MaxWait without getting a slot
	ShedCanceled  = "canceled"   // caller's context ended while queued
)

// ShedError reports an admission rejection. RetryAfter is the
// controller's estimate of when capacity will free up, suitable for a
// Retry-After response header.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("resilience: admission shed (%s, retry in %v)", e.Reason, e.RetryAfter)
}

// RetryAfterHint exposes the capacity estimate to backoff machinery.
func (e *ShedError) RetryAfterHint() time.Duration { return e.RetryAfter }

// AdmissionOptions configures an Admission controller.
type AdmissionOptions struct {
	// MaxConcurrent bounds in-flight requests (default 32).
	MaxConcurrent int
	// MaxQueue bounds the total wait queue across priorities (default
	// 4×MaxConcurrent).
	MaxQueue int
	// MaxWait bounds how long a request may queue before being shed
	// (default 1s).
	MaxWait time.Duration
	// Scale, when set, is sampled on every admission decision and
	// multiplies MaxConcurrent: returning 0.25 during a brownout squeezes
	// the server to a quarter of its capacity. Values are clamped to
	// (0, 1]; the effective limit never drops below 1.
	Scale func() float64
}

func (o AdmissionOptions) maxConcurrent() int {
	if o.MaxConcurrent > 0 {
		return o.MaxConcurrent
	}
	return 32
}

func (o AdmissionOptions) maxQueue() int {
	if o.MaxQueue > 0 {
		return o.MaxQueue
	}
	return 4 * o.maxConcurrent()
}

func (o AdmissionOptions) maxWait() time.Duration {
	if o.MaxWait > 0 {
		return o.MaxWait
	}
	return time.Second
}

// admitWaiter is one queued request.
type admitWaiter struct {
	pri      Priority
	deadline time.Time // zero when the request carried none
	enqueued time.Time
	decided  bool
	ch       chan *ShedError // nil payload = admitted
}

// Admission is a bounded-concurrency admission controller with a
// bounded, priority-segregated LIFO wait queue and deadline-aware
// shedding. Newest waiters are served first (adaptive LIFO): under a
// burst the requests most likely to still have a live caller are the
// ones admitted, while stale waiters age out at the bottom and are shed.
// A nil *Admission admits everything.
type Admission struct {
	opts AdmissionOptions

	mu       sync.Mutex
	inflight int
	queues   [numPriorities][]*admitWaiter // LIFO stacks: admit from the top, displace from the bottom
	ewma     float64                       // smoothed service seconds

	gInflight *obs.Gauge
	gQueued   [numPriorities]*obs.Gauge
	gLimit    *obs.Gauge
	cAdmitted [numPriorities]*obs.Counter
	cShed     map[string]*obs.Counter
	hWait     *obs.Histogram
}

// NewAdmission builds an admission controller. When reg is non-nil it
// exports <prefix>_inflight, _limit and _queued{priority=...} gauges,
// _admitted_total{priority=...} and _shed_total{reason=...} counters,
// and a _wait_seconds histogram.
func NewAdmission(opts AdmissionOptions, reg *obs.Registry, prefix string) *Admission {
	a := &Admission{opts: opts}
	if reg != nil {
		reg.Help(prefix+"_inflight", "Requests currently admitted and executing.")
		reg.Help(prefix+"_queued", "Requests waiting in the admission queue, by priority class.")
		reg.Help(prefix+"_limit", "Current effective concurrency limit (after brownout scaling).")
		reg.Help(prefix+"_admitted_total", "Requests admitted, by priority class.")
		reg.Help(prefix+"_shed_total", "Requests shed by the admission controller, by reason.")
		reg.Help(prefix+"_wait_seconds", "Time spent queued before admission.")
		a.gInflight = reg.Gauge(prefix + "_inflight")
		a.gLimit = reg.Gauge(prefix + "_limit")
		for p := PriorityHigh; p < numPriorities; p++ {
			class := obs.Label{Key: obs.KeyPriority, Value: p.String()}
			a.gQueued[p] = reg.Gauge(prefix+"_queued", class)
			a.cAdmitted[p] = reg.Counter(prefix+"_admitted_total", class)
		}
		a.cShed = make(map[string]*obs.Counter)
		for _, r := range []string{ShedQueueFull, ShedDeadline, ShedExpired, ShedDisplaced, ShedTimeout, ShedCanceled} {
			a.cShed[r] = reg.Counter(prefix+"_shed_total", obs.Label{Key: obs.KeyReason, Value: r})
		}
		a.hWait = reg.Histogram(prefix+"_wait_seconds", obs.DefBuckets)
		a.gLimit.Set(int64(a.limitLocked()))
	}
	return a
}

// limitLocked is the effective concurrency limit after Scale; the
// caller holds a.mu (the Scale hook itself must not call back in).
func (a *Admission) limitLocked() int {
	limit := a.opts.maxConcurrent()
	if a.opts.Scale != nil {
		s := a.opts.Scale()
		if s < 1 {
			limit = int(math.Ceil(float64(limit) * math.Max(s, 0)))
			if limit < 1 {
				limit = 1
			}
		}
	}
	return limit
}

// queuedLocked is the total queue depth; the caller holds a.mu.
func (a *Admission) queuedLocked() int {
	n := 0
	for p := range a.queues {
		n += len(a.queues[p])
	}
	return n
}

// setQueuedLocked publishes each priority's queue depth; the caller
// holds a.mu.
func (a *Admission) setQueuedLocked() {
	for p := range a.queues {
		a.gQueued[p].Set(int64(len(a.queues[p])))
	}
}

// retryAfterLocked estimates when a shed request could succeed: the
// time for the queue ahead of it to drain through the current limit.
// The caller holds a.mu.
func (a *Admission) retryAfterLocked(limit int) time.Duration {
	service := a.ewma
	if service <= 0 {
		service = 0.010 // no samples yet: assume a fast service
	}
	est := service * float64(a.queuedLocked()+1) / float64(limit)
	d := time.Duration(est * float64(time.Second))
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// Acquire asks to run one request at the given priority. deadline is
// the caller's propagated deadline (zero when none). On admission it
// returns a release callback the caller must invoke when the request
// finishes; on rejection it returns a *ShedError. A nil controller
// admits everything.
func (a *Admission) Acquire(ctx context.Context, pri Priority, deadline time.Time) (release func(), shed *ShedError) {
	if a == nil {
		return func() {}, nil
	}
	if pri < PriorityHigh || pri >= numPriorities {
		pri = PriorityLow
	}
	a.mu.Lock()
	limit := a.limitLocked()
	a.gLimit.Set(int64(limit))
	now := time.Now()

	if !deadline.IsZero() && !now.Before(deadline) {
		return nil, a.shedLocked(ShedExpired, limit)
	}
	if a.inflight < limit && a.queuedLocked() == 0 {
		a.admitLockedFast(pri, now, now)
		a.mu.Unlock()
		return a.releaseFunc(), nil
	}

	// Queue-side shedding before we commit to waiting.
	if !deadline.IsZero() {
		if wait := a.retryAfterLocked(limit); now.Add(wait).After(deadline) {
			return nil, a.shedLocked(ShedDeadline, limit)
		}
	}
	if a.queuedLocked() >= a.opts.maxQueue() {
		// A full queue sheds the oldest low-priority waiter to make room
		// for high-priority work; low-priority arrivals shed themselves.
		if pri == PriorityHigh && len(a.queues[PriorityLow]) > 0 {
			victim := a.queues[PriorityLow][0]
			a.queues[PriorityLow] = a.queues[PriorityLow][1:]
			victim.decided = true
			victim.ch <- &ShedError{Reason: ShedDisplaced, RetryAfter: a.retryAfterLocked(limit)}
			a.cShed[ShedDisplaced].Inc()
		} else {
			return nil, a.shedLocked(ShedQueueFull, limit)
		}
	}

	w := &admitWaiter{pri: pri, deadline: deadline, enqueued: now, ch: make(chan *ShedError, 1)}
	a.queues[pri] = append(a.queues[pri], w)
	a.setQueuedLocked()
	a.mu.Unlock()

	maxWait := a.opts.maxWait()
	if !deadline.IsZero() {
		if until := deadline.Sub(now); until < maxWait {
			maxWait = until
		}
	}
	timer := time.NewTimer(maxWait)
	defer timer.Stop()

	select {
	case res := <-w.ch:
		if res != nil {
			return nil, res
		}
		return a.releaseFunc(), nil
	case <-timer.C:
		return a.abandonWait(w, ShedTimeout)
	case <-ctx.Done():
		return a.abandonWait(w, ShedCanceled)
	}
}

// abandonWait removes w from the queue after a timeout or cancel,
// handling the race where an admit decision landed first.
func (a *Admission) abandonWait(w *admitWaiter, reason string) (func(), *ShedError) {
	a.mu.Lock()
	if w.decided {
		a.mu.Unlock()
		// The decision beat us to it; honor whatever was delivered.
		if res := <-w.ch; res != nil {
			return nil, res
		}
		return a.releaseFunc(), nil
	}
	w.decided = true
	q := a.queues[w.pri]
	for i, cand := range q {
		if cand == w {
			a.queues[w.pri] = append(q[:i], q[i+1:]...)
			break
		}
	}
	a.setQueuedLocked()
	shed := a.shedLocked(reason, a.limitLocked())
	return nil, shed
}

// shedLocked records a rejection and unlocks; the caller holds a.mu.
func (a *Admission) shedLocked(reason string, limit int) *ShedError {
	e := &ShedError{Reason: reason, RetryAfter: a.retryAfterLocked(limit)}
	a.cShed[reason].Inc()
	a.mu.Unlock()
	return e
}

// admitLockedFast admits a request without queueing; caller holds a.mu.
func (a *Admission) admitLockedFast(pri Priority, enqueued, now time.Time) {
	a.inflight++
	a.cAdmitted[pri].Inc()
	a.gInflight.Set(int64(a.inflight))
	a.hWait.Observe(now.Sub(enqueued).Seconds())
}

// releaseFunc builds the release callback for an admitted request;
// release feeds the service-time EWMA and hands the freed slot to the
// next eligible waiter.
func (a *Admission) releaseFunc() func() {
	var once sync.Once
	admittedAt := time.Now()
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			service := time.Since(admittedAt).Seconds()
			const alpha = 0.2
			if a.ewma == 0 {
				a.ewma = service
			} else {
				a.ewma += alpha * (service - a.ewma)
			}
			a.inflight--
			a.drainLocked()
			a.gInflight.Set(int64(a.inflight))
			a.setQueuedLocked()
		})
	}
}

// drainLocked hands free slots to waiters — newest first within a
// priority (LIFO), high priority before low — shedding queued waiters
// whose deadline has already expired. The caller holds a.mu.
func (a *Admission) drainLocked() {
	limit := a.limitLocked()
	a.gLimit.Set(int64(limit))
	now := time.Now()
	for a.inflight < limit {
		var w *admitWaiter
		for p := PriorityHigh; p < numPriorities; p++ {
			for n := len(a.queues[p]); n > 0; n = len(a.queues[p]) {
				cand := a.queues[p][n-1]
				a.queues[p] = a.queues[p][:n-1]
				if !cand.deadline.IsZero() && !now.Before(cand.deadline) {
					cand.decided = true
					cand.ch <- &ShedError{Reason: ShedExpired, RetryAfter: a.retryAfterLocked(limit)}
					a.cShed[ShedExpired].Inc()
					continue
				}
				w = cand
				break
			}
			if w != nil {
				break
			}
		}
		if w == nil {
			return
		}
		w.decided = true
		a.inflight++
		a.cAdmitted[w.pri].Inc()
		a.hWait.Observe(now.Sub(w.enqueued).Seconds())
		w.ch <- nil
	}
}
