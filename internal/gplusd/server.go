// Package gplusd is the Google+ service simulator: an HTTP server that
// exposes a synthetic universe the way the live service exposed itself to
// the paper's crawler — public profile pages and paginated in-/out-circle
// lists capped at 10,000 entries (§2.2) — plus per-client rate limiting
// and injectable transient faults for crawler hardening.
package gplusd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"gplus/internal/gplusapi"
	"gplus/internal/graph"
	"gplus/internal/obs"
	"gplus/internal/obs/trace"
	"gplus/internal/synth"
)

// Options configures the service simulator.
type Options struct {
	// CircleCap truncates every served circle list, like the live
	// service's 10,000-user limit. Zero means the default of 10,000;
	// negative disables the cap.
	CircleCap int
	// PageSize is the default (and maximum) number of ids per circle
	// page. Zero means 1,000.
	PageSize int
	// RatePerSecond enables a token-bucket rate limit per crawler
	// identity when positive. BurstSize defaults to RatePerSecond. Live
	// bucket count and idle evictions are exported as
	// gplusd_rate_limiter_buckets and gplusd_rate_limiter_evictions_total.
	RatePerSecond float64
	BurstSize     float64
	// Faults arms the chaos-mode fault suite: per-endpoint 503s,
	// response delays, connection hangs, mid-body resets, scheduled
	// outage windows, and brownout ramps, all seed-deterministic. See
	// FaultSpec and ParseFaultSpec. Nil injects nothing. Injections are
	// counted per kind in gplusd_chaos_faults_total.
	Faults *FaultSpec
	// Admission, when positive, caps the requests served at once: an
	// arrival beyond the cap is refused at once with a 503 and a
	// Retry-After of 50ms, never queued. /metrics bypasses the cap.
	// State is exported as the gplusd_admission_* series on /metrics.
	// When the chaos suite contains brownout rules with a squeeze, the
	// cap follows the brownout schedule. Zero admits everything.
	Admission int
	// Metrics receives server telemetry. When nil the server creates a
	// private registry, so /metrics always works; pass one to share the
	// registry with other subsystems (a run's collector and its mux).
	Metrics *obs.Registry
	// Tracer, when non-nil, joins traces the crawler propagates via the
	// X-Gplus-Trace header and records server-side spans — the request
	// root plus children for chaos delays/hangs and page rendering — so
	// one trace id spans both sides of the wire. Requests arriving
	// without a header start server-local traces under the tracer's own
	// sampling rate.
	Tracer *trace.Tracer
}

func (o Options) circleCap() int {
	switch {
	case o.CircleCap == 0:
		return 10_000
	case o.CircleCap < 0:
		return int(^uint(0) >> 1)
	default:
		return o.CircleCap
	}
}

func (o Options) pageSize() int {
	if o.PageSize <= 0 {
		return 1000
	}
	return o.PageSize
}

// Server serves a synthetic universe. It implements http.Handler and is
// safe for concurrent use.
type Server struct {
	content *synth.Universe
	opts    Options
	index   map[string]graph.NodeID
	mux     *http.ServeMux

	chaos     *chaos
	admission *admission
	limiter   *limiter
	tracer    *trace.Tracer
	// labels holds the pprof label context of each pair of endpoint and
	// chaos regime, built once; ServeHTTP switches to one per request.
	labels map[[2]string]context.Context

	metrics    *obs.Registry
	mProfile   *obs.Counter
	mCircle    *obs.Counter
	mStats     *obs.Counter
	mSeed      *obs.Counter
	mRateLimit *obs.Counter
	gInFlight  *obs.Gauge
	hLatency   *obs.Histogram
}

// New builds a server over a synthetic universe.
func New(u *synth.Universe, opts Options) *Server {
	s := &Server{
		content: u,
		opts:    opts,
		index:   make(map[string]graph.NodeID, len(u.IDs)),
		tracer:  opts.Tracer,
	}
	for i, id := range u.IDs {
		s.index[id] = graph.NodeID(i)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = reg
	reg.Help("gplusd_requests_total", "Requests served, by endpoint.")
	reg.Help("gplusd_rate_limited_total", "Requests rejected by the per-crawler rate limiter.")
	reg.Help("gplusd_rate_limiter_buckets", "Live token buckets across all rate-limiter shards.")
	reg.Help("gplusd_rate_limiter_evictions_total", "Idle token buckets evicted by shard sweeps.")
	reg.Help("gplusd_in_flight_requests", "Requests currently being served.")
	reg.Help("gplusd_request_seconds", "End-to-end request latency.")
	served := func(endpoint string) *obs.Counter {
		return reg.Counter("gplusd_requests_total", obs.Label{Key: obs.KeyEndpoint, Value: endpoint})
	}
	s.mProfile = served(obs.EndpointProfile)
	s.mCircle = served(obs.EndpointCircles)
	s.mStats = served(obs.EndpointStats)
	s.mSeed = served(obs.EndpointSeed)
	s.mRateLimit = reg.Counter("gplusd_rate_limited_total")
	s.gInFlight = reg.Gauge("gplusd_in_flight_requests")
	s.hLatency = reg.Histogram("gplusd_request_seconds", nil)
	s.limiter = newLimiter(opts.RatePerSecond, opts.BurstSize, rateShards, bucketTTL,
		reg.Gauge("gplusd_rate_limiter_buckets"),
		reg.Counter("gplusd_rate_limiter_evictions_total"))
	s.chaos = newChaos(opts.Faults, reg)
	if opts.Admission > 0 {
		var scale func() float64
		if s.chaos.hasBrownout() {
			scale = s.chaos.admissionScale
		}
		s.admission = newAdmission(opts.Admission, scale, reg)
	}
	s.labels = make(map[[2]string]context.Context)
	for _, ep := range []string{obs.EndpointProfile, obs.EndpointCircles, obs.EndpointStats, obs.EndpointSeed, obs.EndpointOther} {
		for _, regime := range []string{obs.ChaosNone, string(FaultOutage), string(FaultBrownout)} {
			s.labels[[2]string{ep, regime}] = pprof.WithLabels(context.Background(), pprof.Labels(obs.KeyEndpoint, ep, obs.KeyChaos, regime))
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /people/{id}", s.handleProfile)
	mux.HandleFunc("GET /people/{id}/circles/{dir}", s.handleCircles)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /seed", s.handleSeed)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.gInFlight.Add(1)
	start := time.Now()
	defer func() {
		s.hLatency.Observe(time.Since(start).Seconds())
		s.gInFlight.Add(-1)
	}()
	if r.URL.Path == "/metrics" {
		// The operational endpoint bypasses admission control, fault
		// injection, and rate limiting: monitoring must keep working
		// exactly when the service is misbehaving.
		s.metrics.ServeHTTP(w, r)
		return
	}
	// Handling runs under pprof labels mirroring the trace dimensions:
	// server CPU captures split by endpoint and by whether the chaos
	// clock had the service degraded when the sample landed. The table
	// is total, so the goroutine switches to a prebuilt label set, and
	// back to the request context's labels as pprof.Do would.
	ep := endpointOf(r.URL.Path)
	pprof.SetGoroutineLabels(s.labels[[2]string{ep, s.chaos.stateLabel()}])
	defer pprof.SetGoroutineLabels(r.Context())
	s.serve(w, r, ep)
}

// serve is the post-bypass request path of endpoint ep: tracing,
// admission, fault injection, rate limiting, chaos, rendering.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ep string) {
	// Join the crawler's trace (or start a server-local one) so the
	// server-side story of this request — faults, rate limiting,
	// rendering — lands under the same trace id the client recorded.
	var sp *trace.Span
	if s.tracer != nil {
		var ctx context.Context
		ctx, sp = s.tracer.Join(r.Context(), r.Header, "server."+ep)
		if sp != nil {
			sp.Annotate(obs.KeyWorker, clientKey(r))
			r = r.WithContext(ctx)
			defer sp.Finish()
		}
	}
	if s.admission != nil {
		if !s.admission.acquire() {
			sp.Fail("admission shed")
			refuse(w, http.StatusServiceUnavailable, 50*time.Millisecond, "admission: overloaded")
			return
		}
		defer s.admission.release()
	}
	if !s.allow(r) {
		s.mRateLimit.Inc()
		sp.Fail("rate limited")
		refuse(w, http.StatusTooManyRequests, 200*time.Millisecond, "rate limit exceeded")
		return
	}
	if s.chaos != nil {
		s.serveChaos(w, r, ep)
		return
	}
	rctx, rsp := s.tracer.StartSpan(r.Context(), "render")
	defer rsp.Finish()
	if rctx != r.Context() {
		r = r.WithContext(rctx)
	}
	s.mux.ServeHTTP(w, r)
}

// refuse answers a request the server will not serve now: status, a
// Retry-After of retryAfter in seconds (to the millisecond), and msg as
// the plain-text body.
func refuse(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	w.Header().Set("Retry-After", strconv.FormatFloat(retryAfter.Round(time.Millisecond).Seconds(), 'f', -1, 64))
	http.Error(w, msg, status)
}

func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Crawler-Id"); id != "" {
		return id
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

// allow asks the rate limiter to admit r; with no limiter it does not
// look the client up.
func (s *Server) allow(r *http.Request) bool {
	return s.limiter == nil || s.limiter.allow(clientKey(r))
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	node, ok := s.index[r.PathValue("id")]
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.mProfile.Inc()
	rb := renderPool.Get().(*renderBuf)
	defer renderPool.Put(rb)
	var err error
	if rb.body, err = gplusapi.AppendProfile(rb.body[:0], s.content.IDs[node], &s.content.Profiles[node]); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rb.write(w)
}

// renderBuf is the scratch space of one profile or circle-page render:
// the response body, and the page's id column. Both documents are
// rendered whole by the wire codec and leave in a single Write.
type renderBuf struct {
	body []byte
	ids  []string
}

// ids starts empty, not nil: a page with no ids is "ids":[], not null.
var renderPool = sync.Pool{New: func() any { return &renderBuf{ids: []string{}} }}

// jsonContentType is the Content-Type value of every rendered document,
// one slice for all responses: net/http only reads it.
var jsonContentType = []string{"application/json"}

// write sends the rendered document the way json.Encoder.Encode did:
// as application/json, newline-terminated.
func (rb *renderBuf) write(w http.ResponseWriter) {
	rb.body = append(rb.body, '\n')
	// The key is canonical already; Set would only re-check it.
	w.Header()["Content-Type"] = jsonContentType
	w.Write(rb.body) //nolint:errcheck — the connection is gone; the client retries
}

func (s *Server) handleCircles(w http.ResponseWriter, r *http.Request) {
	node, ok := s.index[r.PathValue("id")]
	if !ok {
		http.NotFound(w, r)
		return
	}
	var adj []graph.NodeID
	switch gplusapi.CircleDir(r.PathValue("dir")) {
	case gplusapi.CircleIn:
		adj = s.content.Graph.In(node)
	case gplusapi.CircleOut:
		adj = s.content.Graph.Out(node)
	default:
		http.Error(w, "unknown circle direction", http.StatusBadRequest)
		return
	}
	s.mCircle.Inc()

	// The service silently truncates huge circle lists at the cap; the
	// profile page's counters still show the full totals (§2.2).
	if cap := s.opts.circleCap(); len(adj) > cap {
		adj = adj[:cap]
	}

	// Most requests carry no query: parse it once, and only then.
	var query url.Values
	if r.URL.RawQuery != "" {
		query = r.URL.Query()
	}
	offset := 0
	if tok := query.Get("pageToken"); tok != "" {
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 || v > len(adj) {
			http.Error(w, "invalid page token", http.StatusBadRequest)
			return
		}
		offset = v
	}
	limit := s.opts.pageSize()
	if v := query.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "invalid limit", http.StatusBadRequest)
			return
		}
		if n < limit {
			limit = n
		}
	}

	end := offset + limit
	if end > len(adj) {
		end = len(adj)
	}
	rb := renderPool.Get().(*renderBuf)
	defer renderPool.Put(rb)
	rb.ids = rb.ids[:0]
	for _, v := range adj[offset:end] {
		rb.ids = append(rb.ids, s.content.IDs[v])
	}
	page := gplusapi.CirclePage{IDs: rb.ids}
	if end < len(adj) {
		page.NextPageToken = strconv.Itoa(end)
	}
	rb.body = gplusapi.AppendCirclePage(rb.body[:0], &page)
	rb.write(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mStats.Inc()
	writeJSON(w, &gplusapi.StatsDoc{
		Users: len(s.content.IDs),
		Edges: s.content.Graph.NumEdges(),
	})
}

// handleSeed returns the id of the most-followed user: a well-known
// starting point for crawls, standing in for the paper's use of Mark
// Zuckerberg's profile as the BFS seed.
func (s *Server) handleSeed(w http.ResponseWriter, _ *http.Request) {
	s.mSeed.Inc()
	top := graph.TopByInDegree(s.content.Graph, 1, 1)
	if len(top) == 0 {
		http.NotFound(w, nil)
		return
	}
	writeJSON(w, &gplusapi.SeedDoc{ID: s.content.IDs[top[0]]})
}

// writeJSON serves the two small operational documents (/stats, /seed)
// through reflection; the documents a crawl is made of go through
// renderBuf.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck — the connection is gone; the client retries
}

// String describes the server configuration, for logs.
func (s *Server) String() string {
	chaosRules := 0
	if s.chaos != nil {
		chaosRules = len(s.chaos.rules)
	}
	return fmt.Sprintf("gplusd{users=%d edges=%d cap=%d page=%d rate=%g chaos=%d}",
		len(s.content.IDs), s.content.Graph.NumEdges(),
		s.opts.circleCap(), s.opts.pageSize(), s.opts.RatePerSecond, chaosRules)
}
