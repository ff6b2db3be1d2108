package gplusd

import (
	"math"
	"sync"

	"gplus/internal/obs"
)

// admission is the server's one overload rule: a concurrency limit the
// brownout squeeze can shrink. A request is admitted while fewer than
// max(1, ⌈limit × scale()⌉) are in flight; any other is refused at once
// with a 503 — no queue, no timer, no priority class — so a full server
// costs a refused client one round trip.
type admission struct {
	limit int
	scale func() float64 // nil: the limit as configured

	mu       sync.Mutex
	inflight int

	gLimit    *obs.Gauge
	gInflight *obs.Gauge
	cShed     *obs.Counter
}

// newAdmission builds the limiter and registers the gplusd_admission_*
// series on reg.
func newAdmission(limit int, scale func() float64, reg *obs.Registry) *admission {
	reg.Help("gplusd_admission_limit", "Current effective concurrency limit (after brownout scaling).")
	reg.Help("gplusd_admission_inflight", "Requests currently admitted and executing.")
	reg.Help("gplusd_admission_shed_total", "Requests refused because the concurrency limit was reached.")
	a := &admission{
		limit:     limit,
		scale:     scale,
		gLimit:    reg.Gauge("gplusd_admission_limit"),
		gInflight: reg.Gauge("gplusd_admission_inflight"),
		cShed:     reg.Counter("gplusd_admission_shed_total"),
	}
	a.gLimit.Set(int64(a.current()))
	return a
}

// current is the limit after the squeeze: scale is clamped to [0, 1]
// and the result never drops below 1.
func (a *admission) current() int {
	if a.scale == nil {
		return a.limit
	}
	s := min(max(a.scale(), 0), 1)
	return max(1, int(math.Ceil(float64(a.limit)*s)))
}

// acquire admits one request, reporting false when the server is full;
// an admitted request must call release when it is done.
func (a *admission) acquire() bool {
	limit := a.current()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gLimit.Set(int64(limit))
	if a.inflight >= limit {
		a.cShed.Inc()
		return false
	}
	a.inflight++
	a.gInflight.Set(int64(a.inflight))
	return true
}

func (a *admission) release() {
	a.mu.Lock()
	a.inflight--
	a.gInflight.Set(int64(a.inflight))
	a.mu.Unlock()
}
