package gplusapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gplus/internal/obs"
)

func newTestClient(ts *httptest.Server) *Client {
	return &Client{
		BaseURL:     ts.URL,
		Transport:   ts.Client().Transport,
		CrawlerID:   "test-worker",
		BackoffBase: time.Millisecond,
		MaxRetries:  3,
	}
}

func TestClientFetchEndpoints(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /people/{id}", func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("X-Crawler-Id"); got != "test-worker" {
			t.Errorf("crawler id header = %q", got)
		}
		w.Write([]byte(`{"id":"u1","name":"n","fields":["name"],"inCircleCount":3,"outCircleCount":4}`))
	})
	mux.HandleFunc("GET /people/{id}/circles/{dir}", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("pageToken") == "" {
			w.Write([]byte(`{"ids":["a","b"],"nextPageToken":"2"}`))
			return
		}
		w.Write([]byte(`{"ids":["c"]}`))
	})
	mux.HandleFunc("GET /seed", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"top"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := newTestClient(ts)
	ctx := context.Background()

	p, err := c.FetchProfile(ctx, "u1")
	if err != nil || p.Name != "n" || p.DeclaredInDegree != 3 {
		t.Fatalf("FetchProfile = %+v, %v", p, err)
	}
	page, err := c.FetchCircle(ctx, "u1", CircleOut, "", 10)
	if err != nil || len(page.IDs) != 2 || page.NextPageToken != "2" {
		t.Fatalf("FetchCircle = %+v, %v", page, err)
	}
	page, err = c.FetchCircle(ctx, "u1", CircleIn, "2", 0)
	if err != nil || len(page.IDs) != 1 || page.NextPageToken != "" {
		t.Fatalf("FetchCircle page 2 = %+v, %v", page, err)
	}
	seed, err := c.FetchSeed(ctx)
	if err != nil || seed != "top" {
		t.Fatalf("FetchSeed = %q, %v", seed, err)
	}
}

// TestFetchCircleQueryIsValuesEncode: the query FetchCircle appends by
// hand is byte for byte what url.Values.Encode sent before it — key
// order and escaping included — and absent when there is nothing to say.
func TestFetchCircleQueryIsValuesEncode(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.RawQuery
		w.Write([]byte(`{"ids":[]}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	for _, tc := range []struct {
		token string
		limit int
	}{{"", 0}, {"25", 0}, {"", 10}, {"25", 10}, {"a b&c=d/é", 3}} {
		want := url.Values{}
		if tc.token != "" {
			want.Set("pageToken", tc.token)
		}
		if tc.limit > 0 {
			want.Set("limit", strconv.Itoa(tc.limit))
		}
		if _, err := c.FetchCircle(context.Background(), "u1", CircleOut, tc.token, tc.limit); err != nil {
			t.Fatal(err)
		}
		if got != want.Encode() {
			t.Errorf("token %q limit %d: query %q, url.Values.Encode gives %q", tc.token, tc.limit, got, want.Encode())
		}
	}
}

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0.001")
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"id":"u","name":"n","fields":null,"inCircleCount":0,"outCircleCount":0}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	p, err := c.FetchProfile(context.Background(), "u")
	if err != nil {
		t.Fatalf("FetchProfile: %v", err)
	}
	if p.Name != "n" || calls.Load() != 3 {
		t.Fatalf("profile=%+v calls=%d", p, calls.Load())
	}
}

func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "always down", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	_, err := c.FetchProfile(context.Background(), "u")
	if err == nil {
		t.Fatal("expected failure after retries")
	}
	if got := calls.Load(); got != int32(c.MaxRetries)+1 {
		t.Errorf("server saw %d calls, want %d", got, c.MaxRetries+1)
	}
}

func TestClientNotFoundIsTerminal(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	_, err := c.FetchProfile(context.Background(), "nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls.Load() != 1 {
		t.Errorf("404 retried: %d calls", calls.Load())
	}
}

func TestClientUnexpectedStatusIsTerminal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	_, err := c.FetchProfile(context.Background(), "u")
	if err == nil || errors.Is(err, ErrNotFound) || isRetryable(err) {
		t.Fatalf("err = %v, want terminal non-404 error", err)
	}
}

func TestClientContextCancelDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.FetchProfile(ctx, "u")
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation ignored Retry-After sleep: %v", elapsed)
	}
}

func TestClientDefaults(t *testing.T) {
	c := &Client{}
	if c.transport() != http.DefaultTransport || c.maxRetries() != 5 || c.backoffBase() != 50*time.Millisecond {
		t.Error("defaults not applied")
	}
	if c.attemptTimeout() != 30*time.Second {
		t.Errorf("default AttemptTimeout = %v, want 30s", c.attemptTimeout())
	}
	if c.maxBackoff() != 30*time.Second {
		t.Errorf("default MaxBackoff = %v, want 30s", c.maxBackoff())
	}
}

func TestBackoffDelayClampedAtAllAttempts(t *testing.T) {
	// Regression: backoffBase << (attempt-1) overflowed to a negative
	// Duration around attempt 38, and rand.Int64N panicked on the
	// negative bound. Every attempt count must now yield a positive
	// delay no larger than 1.5x MaxBackoff (full jitter's upper edge).
	c := &Client{BackoffBase: 50 * time.Millisecond, MaxBackoff: time.Second}
	for attempt := 1; attempt <= 200; attempt++ {
		d := c.backoffDelay(attempt, nil)
		if d <= 0 || d > c.MaxBackoff+c.MaxBackoff/2 {
			t.Fatalf("attempt %d: delay %v outside (0, 1.5s]", attempt, d)
		}
	}
}

func TestBackoffDelayHonorsRetryAfterHint(t *testing.T) {
	c := &Client{BackoffBase: time.Millisecond, MaxBackoff: 10 * time.Second}
	hint := &retryAfterError{status: 429, after: 2 * time.Second}
	if d := c.backoffDelay(1, hint); d < hint.after {
		t.Errorf("delay %v ignores the %v Retry-After hint", d, hint.after)
	}
	// Hints never push the delay past MaxBackoff: a hostile server must
	// not be able to stall the crawl arbitrarily long.
	c.MaxBackoff = time.Millisecond
	if d := c.backoffDelay(1, hint); d > c.MaxBackoff {
		t.Errorf("delay %v exceeds MaxBackoff %v despite clamp", d, c.MaxBackoff)
	}
}

func TestClientLargeRetryBudgetDoesNotPanic(t *testing.T) {
	// A caller-set MaxRetries well past the shift-overflow point must
	// grind through every attempt and give up cleanly, not panic.
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0.0001")
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.MaxRetries = 64
	c.BackoffBase = time.Microsecond
	c.MaxBackoff = time.Millisecond
	start := time.Now()
	if _, err := c.FetchProfile(context.Background(), "u"); err == nil {
		t.Fatal("expected failure after exhausting retries")
	}
	if got := calls.Load(); got != 65 {
		t.Errorf("server saw %d calls, want 65", got)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("retry loop took %v; MaxBackoff clamp not applied", elapsed)
	}
}

func TestClientMetrics(t *testing.T) {
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /people/{id}", func(w http.ResponseWriter, r *http.Request) {
		// First attempt gets a retryable 503; the retry succeeds.
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.001")
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"id":"u1","name":"","fields":null,"inCircleCount":0,"outCircleCount":0}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	reg := obs.NewRegistry()
	c := newTestClient(ts)
	c.Metrics = reg
	if _, err := c.FetchProfile(context.Background(), "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchProfile(context.Background(), "u1"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`gplusapi_responses_total{endpoint="profile",code="200"}`]; got != 2 {
		t.Errorf("200 counter = %d, want 2", got)
	}
	if got := snap.Counters[`gplusapi_responses_total{endpoint="profile",code="503"}`]; got != 1 {
		t.Errorf("503 counter = %d, want 1", got)
	}
	if got := snap.Counters[`gplusapi_retries_total{endpoint="profile"}`]; got != 1 {
		t.Errorf("retry counter = %d, want 1", got)
	}
	h := snap.Histograms[`gplusapi_request_seconds{endpoint="profile"}`]
	if h.Count != 3 {
		t.Errorf("latency histogram count = %d, want 3 (two fetches, one retry)", h.Count)
	}
}

func TestClientRetriesConnectionReset(t *testing.T) {
	// The first two attempts die at the transport layer — the server
	// hijacks the connection and slams it shut — and the third serves.
	// Chaos-mode resets and real network flaps look exactly like this.
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close()
			return
		}
		w.Write([]byte(`{"id":"u","name":"n","fields":null,"inCircleCount":0,"outCircleCount":0}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	// Hijacked connections must not be reused; force fresh dials.
	c.Transport = &http.Transport{DisableKeepAlives: true}
	p, err := c.FetchProfile(context.Background(), "u")
	if err != nil {
		t.Fatalf("FetchProfile did not survive connection resets: %v", err)
	}
	if p.Name != "n" || calls.Load() != 3 {
		t.Fatalf("profile=%+v calls=%d", p, calls.Load())
	}
}

func TestClientRetriesTornBody(t *testing.T) {
	// A 200 whose body is cut mid-stream (Content-Length promises more
	// than arrives) is a torn read, not a permanent failure.
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Length", "500")
			w.Write([]byte(`{"id":"u","na`))
			return
		}
		w.Write([]byte(`{"id":"u","name":"n","fields":null,"inCircleCount":0,"outCircleCount":0}`))
	}))
	defer ts.Close()
	c := newTestClient(ts)
	p, err := c.FetchProfile(context.Background(), "u")
	if err != nil {
		t.Fatalf("FetchProfile did not survive a torn body: %v", err)
	}
	if p.Name != "n" || calls.Load() != 2 {
		t.Fatalf("profile=%+v calls=%d", p, calls.Load())
	}
}

func TestClientCancellationIsNotRetried(t *testing.T) {
	// A transport error caused by the caller's own cancellation must not
	// be wrapped as transient: retrying would only delay shutdown.
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	c := newTestClient(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.FetchProfile(ctx, "u")
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if isRetryable(err) {
		t.Errorf("cancellation classified retryable: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cancelled request retried: %d calls", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestClientNilMetricsIsNoOp(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /people/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"u1","name":"","fields":null,"inCircleCount":0,"outCircleCount":0}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := newTestClient(ts) // Metrics nil
	if _, err := c.FetchProfile(context.Background(), "u1"); err != nil {
		t.Fatal(err)
	}
}
