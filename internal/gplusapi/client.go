package gplusapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gplus/internal/obs"
	"gplus/internal/obs/trace"
	"gplus/internal/profile"
)

// ErrNotFound is returned for profiles that do not exist.
var ErrNotFound = errors.New("gplusapi: profile not found")

// Client talks to a gplusd instance. It retries transient failures —
// 429 and 5xx statuses, dropped/reset connections, timeouts, and torn
// response bodies — with exponential backoff and honors Retry-After
// hints. A Client is safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8041", with or
	// without a path prefix. It is parsed once, on the first request.
	BaseURL string
	// Transport carries every wire attempt (nil: http.DefaultTransport).
	// The client calls its RoundTrip directly: there are no redirects and
	// no cookies, and AttemptTimeout is the one deadline.
	Transport http.RoundTripper
	// CrawlerID identifies the crawl worker ("machine") to the service's
	// per-client rate limiter, standing in for the distinct source IPs of
	// the paper's 11 crawl machines.
	CrawlerID string
	// MaxRetries bounds retry attempts per request (default 5).
	MaxRetries int
	// BackoffBase is the first retry delay (default 50ms); it doubles per
	// attempt with jitter.
	BackoffBase time.Duration
	// MaxBackoff caps each retry delay (default 30s). Without a cap the
	// doubling shift overflows time.Duration once the attempt count
	// passes ~37, and a negative jitter bound panics.
	MaxBackoff time.Duration
	// Metrics receives client telemetry when non-nil: per-endpoint request
	// latency histograms (gplusapi_request_seconds), response status
	// counters (gplusapi_responses_total), transport-error and retry
	// counters. A nil registry costs one pointer check per request.
	Metrics *obs.Registry
	// Tracer records request-scoped spans when non-nil: one "api.<op>"
	// span per logical operation (annotated with its attempt total and
	// retry count) and one "attempt" child span per wire request,
	// annotated with its backoff delay and response status. Each attempt
	// injects an X-Gplus-Trace header so gplusd joins the trace and
	// records its server-side spans. nil costs one pointer check.
	Tracer *trace.Tracer
	// RetryBudget, when non-nil, gates every retry: a denied token turns
	// the request into an overload failure instead of another wire
	// attempt. Share one budget across all workers of a crawl so the
	// whole fleet's retry traffic is bounded together. nil allows all
	// retries (the pre-budget behavior).
	RetryBudget *RetryBudget
	// AttemptTimeout bounds each wire attempt separately from the
	// operation's context (default 30s); it is the client's one request
	// deadline, so a bare Client cannot hang either. An expired attempt
	// is retryable (and an overload signal) where an expired operation is
	// terminal. It ends the attempt's request context, which is all the
	// server sees: hanging up cancels the server's side of the request.
	AttemptTimeout time.Duration

	helpOnce sync.Once // registers the HELP lines of the client families

	// Set once, on the first request, by prepare.
	prepOnce  sync.Once
	prepErr   error
	base      url.URL  // BaseURL parsed; Host without an empty port
	basePath  string   // base's path as escaped on the wire
	crawlerID []string // the X-Crawler-Id header value, shared by every request
}

// Instrumentation series; op is one of the obs.Endpoint* values — the
// same spelling gplusd labels its side of the request with.
func endpoint(op string) obs.Label { return obs.Label{Key: obs.KeyEndpoint, Value: op} }

func (c *Client) latencyHist(op string) *obs.Histogram {
	c.helpOnce.Do(func() {
		c.Metrics.Help("gplusapi_request_seconds", "End-to-end API request latency, by endpoint.")
		c.Metrics.Help("gplusapi_responses_total", "API responses received, by endpoint and status code.")
		c.Metrics.Help("gplusapi_retries_total", "Request retries burned, by endpoint.")
		c.Metrics.Help("gplusapi_transport_errors_total", "Requests failing below HTTP (resets, timeouts, torn bodies), by endpoint.")
	})
	return c.Metrics.Histogram("gplusapi_request_seconds", nil, endpoint(op))
}

func (c *Client) statusCounter(op string, code int) *obs.Counter {
	return c.Metrics.Counter("gplusapi_responses_total", endpoint(op), obs.Label{Key: obs.KeyCode, Value: strconv.Itoa(code)})
}

func (c *Client) transport() http.RoundTripper {
	if c.Transport != nil {
		return c.Transport
	}
	return http.DefaultTransport
}

func (c *Client) attemptTimeout() time.Duration {
	if c.AttemptTimeout > 0 {
		return c.AttemptTimeout
	}
	return 30 * time.Second
}

// prepare parses BaseURL and builds the header values every request
// shares, once per Client.
func (c *Client) prepare() error {
	c.prepOnce.Do(func() {
		u, err := url.Parse(c.BaseURL)
		if err != nil {
			c.prepErr = err
			return
		}
		u.Host = strings.TrimSuffix(u.Host, ":") // as http.NewRequest does
		c.base, c.basePath = *u, u.EscapedPath()
		if c.CrawlerID != "" {
			c.crawlerID = []string{c.CrawlerID}
		}
	})
	return c.prepErr
}

// target is the URL http.NewRequest parses out of BaseURL + prefix +
// url.PathEscape(id) + suffix [+ "?" + query], built field by field
// without parsing. RawPath is set only when the wire spelling differs
// from the path's, i.e. when id or the base path carry escapes of their
// own.
func (c *Client) target(prefix, id, suffix, query string) *url.URL {
	u := c.base
	u.Path = c.base.Path + prefix + id + suffix
	if esc := url.PathEscape(id); esc != id || c.base.RawPath != "" {
		u.RawPath = c.basePath + prefix + esc + suffix
	}
	u.RawQuery = query
	return &u
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 5
}

func (c *Client) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 50 * time.Millisecond
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return 30 * time.Second
}

// backoffCeil is the deterministic exponential ceiling for retry
// attempt (1-based): BackoffBase doubled per attempt, clamped at
// MaxBackoff, with the overflow of the shift detected by inverting it.
// It is monotone non-decreasing in attempt and never exceeds MaxBackoff
// for any BackoffBase/MaxRetries combination.
func (c *Client) backoffCeil(attempt int) time.Duration {
	ceil := c.maxBackoff()
	if shift := uint(attempt - 1); shift < 63 {
		if d := c.backoffBase() << shift; d>>shift == c.backoffBase() && d > 0 && d < ceil {
			ceil = d
		}
	}
	return ceil
}

// backoffDelay computes the jittered delay before retry attempt
// (1-based), honoring a Retry-After hint surfaced by the previous error
// (a 429/503's Retry-After, through retryAfterError).
// The delay is sampled in [ceil/2, ceil] — equal-range jitter keeps
// concurrent workers from synchronizing while keeping consecutive
// attempts monotone (ceil(k) is the lower bound of attempt k+1's range
// while both are below the clamp) — and the final value, hints
// included, never exceeds MaxBackoff and is never negative.
func (c *Client) backoffDelay(attempt int, lastErr error) time.Duration {
	ceil := c.backoffCeil(attempt)
	delay := ceil/2 + time.Duration(rand.Int64N(int64(ceil/2)+1))
	var hinted interface{ RetryAfterHint() time.Duration }
	if errors.As(lastErr, &hinted) {
		if h := hinted.RetryAfterHint(); h > delay {
			delay = h
		}
	}
	if maxB := c.maxBackoff(); delay > maxB {
		delay = maxB
	}
	return max(delay, 0)
}

// FetchProfile retrieves the public profile page of a user, decoded
// straight to the analysis model.
func (c *Client) FetchProfile(ctx context.Context, id string) (profile.Profile, error) {
	if err := c.prepare(); err != nil {
		return profile.Profile{}, err
	}
	var (
		docID string
		p     profile.Profile
	)
	err := c.get(ctx, obs.EndpointProfile, c.target("/people/", id, "", ""), func(body []byte) error {
		return DecodeProfile(body, &docID, &p, nil)
	})
	if err != nil {
		return profile.Profile{}, err
	}
	return p, nil
}

// FetchCircle retrieves one page of a user's circle list. An empty
// pageToken requests the first page; limit <= 0 uses the server default.
func (c *Client) FetchCircle(ctx context.Context, id string, dir CircleDir, pageToken string, limit int) (*CirclePage, error) {
	if err := c.prepare(); err != nil {
		return nil, err
	}
	// The query url.Values.Encode would build (keys in sorted order),
	// without the map.
	var query string
	if limit > 0 {
		query = "limit=" + strconv.Itoa(limit)
	}
	if pageToken != "" {
		if query != "" {
			query += "&"
		}
		query += "pageToken=" + url.QueryEscape(pageToken)
	}
	page := new(CirclePage)
	err := c.get(ctx, obs.EndpointCircles, c.target("/people/", id, "/circles/"+string(dir), query), func(body []byte) error {
		return DecodeCirclePage(body, page)
	})
	if err != nil {
		return nil, err
	}
	return page, nil
}

// FetchSeed retrieves the id of a well-known popular user to seed a
// crawl from.
func (c *Client) FetchSeed(ctx context.Context) (string, error) {
	if err := c.prepare(); err != nil {
		return "", err
	}
	var doc SeedDoc
	// Once per crawl: reflection is fine here.
	if err := c.get(ctx, obs.EndpointSeed, c.target("/seed", "", "", ""), func(body []byte) error { return json.Unmarshal(body, &doc) }); err != nil {
		return "", err
	}
	return doc.ID, nil
}

// get fetches u with retries and hands the body of the 200 that ends
// them to decode. The body sits in a pooled buffer: decode must copy
// what it keeps (the wire decoders do), and may run once per attempt —
// a body it rejects is a torn response and is fetched again.
func (c *Client) get(ctx context.Context, op string, u *url.URL, decode func(body []byte) error) error {
	return c.withRetries(ctx, op, func(actx context.Context) error { return c.doGet(ctx, actx, op, u, decode) })
}

// bodyPool holds response-body buffers: a crawl worker's fetches run one
// after another, so in steady state each worker keeps reusing one
// buffer grown to its largest page.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// withRetries runs fn with exponential backoff and jitter, honoring
// Retry-After hints surfaced through retryAfterError. Every retry must
// first win a token from the retry budget (when one is configured): an
// exhausted budget turns the request into an overload failure instead
// of amplifying load on a struggling service, so a dead endpoint costs
// the whole fleet its first attempts plus the budget's burst, however
// many workers call it. fn receives the per-attempt context, which
// carries that attempt's span so doGet can propagate it to the service,
// and the attempt's deadline.
func (c *Client) withRetries(ctx context.Context, op string, fn func(context.Context) error) error {
	var osp *trace.Span
	if c.Tracer != nil {
		ctx, osp = c.Tracer.StartSpan(ctx, "api."+op)
	}
	attempts := 0
	finish := func(err error) error {
		if osp != nil {
			osp.Annotate("attempts", strconv.Itoa(attempts))
			osp.SetRetries(max(attempts-1, 0))
			osp.SetError(err)
			osp.Finish()
		}
		return err
	}
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries(); attempt++ {
		var delay time.Duration
		if attempt > 0 {
			if !c.RetryBudget.trySpend() {
				return finish(fmt.Errorf("%w (last error: %w)", ErrRetryBudgetExhausted, lastErr))
			}
			c.Metrics.Counter("gplusapi_retries_total", endpoint(op)).Inc()
			delay = c.backoffDelay(attempt, lastErr)
			select {
			case <-ctx.Done():
				return finish(ctx.Err())
			case <-time.After(delay):
			}
		}
		actx, asp := c.Tracer.StartSpan(ctx, "attempt")
		if asp != nil {
			asp.Annotate("n", strconv.Itoa(attempt+1))
			if attempt > 0 {
				asp.Annotate("backoff", delay.String())
			}
		}
		attempts++
		actx, cancel := context.WithTimeout(actx, c.attemptTimeout())
		err := fn(actx)
		cancel()
		asp.SetError(err)
		asp.Finish()
		if err == nil {
			c.RetryBudget.deposit()
			return finish(nil)
		}
		if !isRetryable(err) {
			return finish(err)
		}
		lastErr = err
	}
	return finish(fmt.Errorf("gplusapi: giving up after %d attempts: %w", c.maxRetries()+1, lastErr))
}

type retryAfterError struct {
	status int
	after  time.Duration
}

// Error describes the retryable status and its hint.
func (e *retryAfterError) Error() string {
	return fmt.Sprintf("gplusapi: server status %d (retry after %v)", e.status, e.after)
}

// RetryAfterHint surfaces the server's hint to backoffDelay.
func (e *retryAfterError) RetryAfterHint() time.Duration { return e.after }

// transientError marks transport-level failures — dropped or reset
// connections, client timeouts on hung requests, and torn bodies under a
// 200 — as retryable. A crawl expected to run for weeks (the paper's ran
// 45 days) cannot treat a single flaky connection as a permanent
// profile loss.
type transientError struct{ err error }

func (e *transientError) Error() string {
	return "gplusapi: transient transport error: " + e.err.Error()
}

func (e *transientError) Unwrap() error { return e.err }

func isRetryable(err error) bool {
	var ra *retryAfterError
	var te *transientError
	return errors.As(err, &ra) || errors.As(err, &te)
}

// IsOverload reports whether err is a pushback signal — the service or
// the client shedding load (429/503, admission sheds, exhausted retry
// budgets, per-attempt deadline expiry) —
// rather than a permanent failure. The crawler requeues overloaded work
// instead of counting the profile as lost, which is what lets a crawl
// through a brownout still converge to the complete dataset.
func IsOverload(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrRetryBudgetExhausted) {
		return true
	}
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.status == http.StatusTooManyRequests || ra.status == http.StatusServiceUnavailable
	}
	var te *transientError
	if errors.As(err, &te) {
		return errors.Is(te.err, context.DeadlineExceeded)
	}
	return false
}

// doGet performs one GET of u under the attempt context ctx and decodes
// a 200 body with decode; other statuses map to the client's error
// taxonomy. opCtx is the operation's context: its end is terminal, where
// the end of ctx alone is an attempt that expired and may be retried.
func (c *Client) doGet(opCtx, ctx context.Context, op string, u *url.URL, decode func(body []byte) error) error {
	// The request http.NewRequestWithContext would build, without parsing
	// the URL again: u is the operation's, shared by its attempts.
	req := (&http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 2),
		Host:       u.Host,
	}).WithContext(ctx)
	if c.crawlerID != nil {
		req.Header["X-Crawler-Id"] = c.crawlerID
	}
	// The context carries this attempt's span (see withRetries);
	// propagating it lets gplusd join the trace and record its
	// server-side spans under this attempt.
	sp := trace.SpanFromContext(ctx)
	trace.Inject(sp, req.Header)
	start := time.Now()
	resp, err := c.transport().RoundTrip(req)
	if c.Metrics != nil {
		c.latencyHist(op).Observe(time.Since(start).Seconds())
		if err != nil {
			c.Metrics.Counter("gplusapi_transport_errors_total", endpoint(op)).Inc()
		} else {
			c.statusCounter(op, resp.StatusCode).Inc()
		}
	}
	if sp != nil && err == nil {
		sp.Annotate(obs.KeyCode, strconv.Itoa(resp.StatusCode))
	}
	if err != nil {
		if opCtx.Err() != nil {
			// The caller cancelled or timed out the whole operation;
			// retrying would only delay the shutdown.
			return err
		}
		return &transientError{err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) // drain for connection reuse
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		buf := bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		_, err := buf.ReadFrom(resp.Body)
		if err == nil {
			err = decode(buf.Bytes())
		}
		bodyPool.Put(buf)
		if err != nil {
			if opCtx.Err() != nil {
				return err
			}
			// A 200 whose body cannot be read or decoded is a torn
			// response (connection reset mid-body); the request is
			// idempotent, so retry it.
			return &transientError{err: err}
		}
		return nil
	case resp.StatusCode == http.StatusNotFound:
		return ErrNotFound
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		after, _ := parseRetryAfter(resp.Header.Get("Retry-After"))
		return &retryAfterError{status: resp.StatusCode, after: after}
	default:
		return fmt.Errorf("gplusapi: unexpected status %d for %s", resp.StatusCode, u.RequestURI())
	}
}

// maxRetryAfter bounds what a Retry-After header can ask of us; a
// server demanding more is treated as hinting this much. It also keeps
// the seconds→Duration conversion far from int64 overflow.
const maxRetryAfter = time.Hour

// parseRetryAfter interprets a Retry-After header value per RFC 9110:
// either delay-seconds (we also tolerate fractional seconds, which the
// chaos server emits) or an HTTP-date. Negative delays, dates in the
// past, and garbage report ok=false with a zero duration, so callers
// fall back to the regular backoff schedule instead of sleeping a
// nonsense amount — or zero — on a hostile header.
func parseRetryAfter(v string) (after time.Duration, ok bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if math.IsNaN(secs) || secs < 0 {
			return 0, false
		}
		if secs > maxRetryAfter.Seconds() {
			return maxRetryAfter, true
		}
		return time.Duration(secs * float64(time.Second)), true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d <= 0 {
			return 0, false
		}
		return min(d, maxRetryAfter), true
	}
	return 0, false
}
