package resilience

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries the caller's remaining budget for a request as
// an integer number of milliseconds. Sending a relative duration rather
// than an absolute timestamp keeps the contract immune to clock skew
// between crawler machines and the service.
const DeadlineHeader = "X-Gplus-Deadline"

// SetDeadlineHeader stamps req with the remaining budget of ctx, if ctx
// carries a deadline. Budgets are floored at 1ms so an almost-expired
// request still signals "about to abandon" rather than omitting the
// header.
func SetDeadlineHeader(ctx context.Context, req *http.Request) {
	d, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	// DeadlineHeader is already canonical: Set would only re-check it.
	req.Header[DeadlineHeader] = []string{strconv.FormatInt(ms, 10)}
}

// DeadlineFromHeader reads the propagated budget off an inbound request,
// returning the absolute deadline it implies. ok is false when the
// header is absent, malformed, or non-positive — a server must treat
// that as "no deadline", never as "already expired".
func DeadlineFromHeader(req *http.Request) (deadline time.Time, ok bool) {
	v := req.Header.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}, false
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), true
}
