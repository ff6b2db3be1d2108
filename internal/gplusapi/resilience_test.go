package gplusapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gplus/internal/obs"
)

// --- Retry-After parsing: seconds, HTTP-date, garbage ---

func TestParseRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"2", 2 * time.Second, true},
		{"0", 0, true},
		{"0.25", 250 * time.Millisecond, true},
		{"-1", 0, false},
		{"-0.5", 0, false},
	} {
		got, ok := parseRetryAfter(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseRetryAfterHTTPDate(t *testing.T) {
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	got, ok := parseRetryAfter(future)
	if !ok || got <= 0 || got > 4*time.Second {
		t.Fatalf("parseRetryAfter(future date) = %v, %v; want ≈3s, true", got, ok)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if got, ok := parseRetryAfter(past); ok || got != 0 {
		t.Fatalf("parseRetryAfter(past date) = %v, %v; want 0, false", got, ok)
	}
}

func TestParseRetryAfterGarbage(t *testing.T) {
	for _, in := range []string{"", "soon", "12 parsecs", "NaN", "Mon, 99 Foo 2026"} {
		if got, ok := parseRetryAfter(in); ok || got != 0 {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want 0, false", in, got, ok)
		}
	}
	// Absurdly large hints are clamped rather than overflowing Duration.
	if got, ok := parseRetryAfter("1e300"); !ok || got != maxRetryAfter {
		t.Errorf("parseRetryAfter(1e300) = %v, %v; want clamp to %v", got, ok, maxRetryAfter)
	}
}

func TestClientFallsBackToBackoffOnGarbageRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "garbage")
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.MaxRetries = 2
	_, err := c.FetchSeed(context.Background())
	if err == nil {
		t.Fatal("want failure against an always-503 server")
	}
	// A garbage header must not disable retries (the old behavior
	// treated it as hint 0 = ignore, which still retried; the real risk
	// is a parse that panics or a hint that sticks at a bogus value).
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

// --- backoffDelay property tests ---

// TestBackoffDelayProperties drives adversarial MaxRetries/BackoffBase/
// MaxBackoff combinations through every attempt number and asserts the
// satellite invariants: never negative, never above MaxBackoff, and the
// sampled delay lies in [ceil/2, ceil] for the deterministic, monotone
// ceiling — which makes consecutive unclamped attempts monotone
// non-decreasing pointwise (attempt k's upper edge is attempt k+1's
// lower edge, so no sample at k can exceed a sample at k+1).
func TestBackoffDelayProperties(t *testing.T) {
	cases := []struct {
		base, maxB time.Duration
	}{
		{0, 0},                          // all defaults
		{time.Nanosecond, time.Second},  // minimal base
		{50 * time.Millisecond, 0},      // default cap
		{time.Hour, time.Second},        // base above the cap
		{-time.Second, -time.Second},    // nonsense → defaults
		{1, 1},                          // 1ns everything
		{time.Millisecond, time.Minute}, // long doubling run
		{3 * time.Millisecond, 25 * time.Millisecond}, // clamp mid-range, not a power of two
	}
	for _, tc := range cases {
		c := &Client{BackoffBase: tc.base, MaxBackoff: tc.maxB}
		prevCeil := time.Duration(0)
		for attempt := 1; attempt <= 150; attempt++ {
			ceil := c.backoffCeil(attempt)
			if ceil < prevCeil {
				t.Fatalf("base=%v max=%v attempt=%d: ceiling %v < previous %v (not monotone)",
					tc.base, tc.maxB, attempt, ceil, prevCeil)
			}
			if ceil > c.maxBackoff() {
				t.Fatalf("base=%v max=%v attempt=%d: ceiling %v above MaxBackoff %v",
					tc.base, tc.maxB, attempt, ceil, c.maxBackoff())
			}
			prevCeil = ceil
			for trial := 0; trial < 20; trial++ {
				d := c.backoffDelay(attempt, nil)
				if d < 0 {
					t.Fatalf("base=%v max=%v attempt=%d: negative delay %v", tc.base, tc.maxB, attempt, d)
				}
				if d > c.maxBackoff() {
					t.Fatalf("base=%v max=%v attempt=%d: delay %v above MaxBackoff %v",
						tc.base, tc.maxB, attempt, d, c.maxBackoff())
				}
				if d < ceil/2 || d > ceil {
					t.Fatalf("base=%v max=%v attempt=%d: delay %v outside [%v, %v]",
						tc.base, tc.maxB, attempt, d, ceil/2, ceil)
				}
			}
		}
	}
}

func TestBackoffDelayHintNeverExceedsMaxBackoff(t *testing.T) {
	c := &Client{BackoffBase: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	for _, hint := range []time.Duration{-time.Second, 0, time.Millisecond, time.Hour} {
		err := &retryAfterError{status: 503, after: hint}
		for attempt := 1; attempt <= 40; attempt++ {
			d := c.backoffDelay(attempt, err)
			if d < 0 || d > c.MaxBackoff {
				t.Fatalf("hint=%v attempt=%d: delay %v outside [0, %v]", hint, attempt, d, c.MaxBackoff)
			}
		}
	}
}

// --- retry budget ---

func TestRetryBudgetSpendAndRefill(t *testing.T) {
	b := NewRetryBudget(BudgetOptions{Ratio: 0.5, MinPerSec: 0.0001, Burst: 2}, nil, "t")
	if !b.trySpend() || !b.trySpend() {
		t.Fatal("burst tokens should grant the first two retries")
	}
	if b.trySpend() {
		t.Fatal("third retry should be denied with an empty bucket")
	}
	// Two successes deposit 2×0.5 = 1 token.
	b.deposit()
	b.deposit()
	if !b.trySpend() {
		t.Fatal("deposits should refill the bucket")
	}
	if b.trySpend() {
		t.Fatal("bucket should be empty again")
	}
}

func TestRetryBudgetBurstCap(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewRetryBudget(BudgetOptions{Ratio: 1, Burst: 3}, reg, "t")
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	if got := reg.Gauge("t_retry_budget_tokens_milli").Value(); got > 3000 {
		t.Fatalf("tokens = %d milli, want ≤ burst 3", got)
	}
}

func TestRetryBudgetNil(t *testing.T) {
	var b *RetryBudget
	b.deposit()
	if !b.trySpend() {
		t.Fatal("nil budget must always grant")
	}
}

func TestClientRetryBudgetExhaustion(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.MaxRetries = 10
	// Burst 2 with a negligible trickle: exactly two retries available.
	c.RetryBudget = NewRetryBudget(BudgetOptions{Ratio: 0.1, MinPerSec: 1e-9, Burst: 2}, nil, "t")
	_, err := c.FetchSeed(context.Background())
	if err == nil {
		t.Fatal("want failure")
	}
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want wrapped ErrRetryBudgetExhausted", err)
	}
	if !IsOverload(err) {
		t.Fatalf("IsOverload(%v) = false, want true", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("wire attempts = %d, want 3 (first + 2 budgeted retries)", got)
	}
}

func TestClientBudgetRefillsOnSuccess(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"users":1,"edges":1}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	reg := obs.NewRegistry()
	b := NewRetryBudget(BudgetOptions{Ratio: 0.5, MinPerSec: 1e-9, Burst: 4}, reg, "t")
	for b.trySpend() { // drain
	}
	c.RetryBudget = b
	for i := 0; i < 4; i++ {
		if _, err := c.FetchSeed(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge("t_retry_budget_tokens_milli").Value(); got < 1900 {
		t.Fatalf("tokens after 4 successes at ratio 0.5 = %d milli, want ≈2000", got)
	}
}

// TestSharedRetryBudgetBoundsDeadEndpoint pins the fleet-wide bound on a
// dead endpoint: however many clients share one budget, and however many
// retries each may make, the server sees each call's first attempt plus
// the budget's burst, and every call comes back as an overload wrapping
// ErrRetryBudgetExhausted, which is what lets the crawler requeue it.
func TestSharedRetryBudgetBoundsDeadEndpoint(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	const clients, burst = 8, 4
	// A negligible trickle: the burst is all the retrying the fleet gets.
	budget := NewRetryBudget(BudgetOptions{MinPerSec: 1e-9, Burst: burst}, nil, "t")
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range clients {
		c := newTestClient(ts)
		c.MaxRetries = 10
		c.MaxBackoff = time.Millisecond
		c.RetryBudget = budget
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.FetchSeed(context.Background())
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != clients+burst {
		t.Fatalf("wire attempts = %d, want %d (%d first attempts + %d budgeted retries)", got, clients+burst, clients, burst)
	}
	for i, err := range errs {
		if !IsOverload(err) {
			t.Errorf("client %d: IsOverload(%v) = false, want true", i, err)
		}
		if !errors.Is(err, ErrRetryBudgetExhausted) {
			t.Errorf("client %d: err = %v, want wrapped ErrRetryBudgetExhausted", i, err)
		}
	}
}

// --- attempt timeouts ---

func TestClientAttemptTimeoutRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // blow the first attempt's budget
		}
		w.Write([]byte(`{"users":1,"edges":1}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.AttemptTimeout = 50 * time.Millisecond
	c.MaxRetries = 3
	if _, err := c.FetchSeed(context.Background()); err != nil {
		t.Fatalf("FetchSeed: %v; want success on retry", err)
	}
	if got := calls.Load(); got < 2 {
		t.Fatalf("wire attempts = %d, want ≥ 2 (timeout then success)", got)
	}
}

// An attempt that expires every time exhausts the retries as an
// overload, not a permanent failure: that is what makes the crawler
// requeue the id instead of counting it failed.
func TestClientAttemptTimeoutExhaustedIsOverload(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // outlast every attempt's budget
		case <-r.Context().Done():
		case <-time.After(time.Second):
		}
		w.Write([]byte(`{"users":1,"edges":1}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.AttemptTimeout = 50 * time.Millisecond
	c.MaxRetries = 1
	_, err := c.FetchSeed(context.Background())
	if err == nil {
		t.Fatal("FetchSeed succeeded; want failure after every attempt expired")
	}
	if !IsOverload(err) {
		t.Fatalf("IsOverload(%v) = false; an expired attempt is an overload", err)
	}
}

func TestClientParentCancelIsTerminal(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(200 * time.Millisecond)
		w.Write([]byte(`{"users":1,"edges":1}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.AttemptTimeout = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.FetchSeed(ctx)
	if err == nil {
		t.Fatal("want failure")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("wire attempts = %d; an expired operation context must not retry", got)
	}
}

func TestIsOverloadClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrNotFound, false},
		{errors.New("random"), false},
		{&retryAfterError{status: 429}, true},
		{&retryAfterError{status: 503}, true},
		{&retryAfterError{status: 500}, false},
		{ErrRetryBudgetExhausted, true},
		{&transientError{err: context.DeadlineExceeded}, true},
		{&transientError{err: errors.New("conn reset")}, false},
	} {
		if got := IsOverload(tc.err); got != tc.want {
			t.Errorf("IsOverload(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
