// Package crawler implements the paper's data-collection methodology: a
// breadth-first crawl of public profile pages that follows both the
// in-circles and out-circles lists ("bidirectional BFS", §2.2), spread
// over a pool of concurrent workers standing in for the 11 crawl
// machines, with retries and a profile budget.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"gplus/internal/gplusapi"
	"gplus/internal/obs"
	"gplus/internal/obs/trace"
	"gplus/internal/profile"
)

// Config controls a crawl.
type Config struct {
	// BaseURL locates the service.
	BaseURL string
	// Seeds are the profile ids to start from. The paper used a single
	// seed (Mark Zuckerberg's profile).
	Seeds []string
	// Workers is the number of concurrent crawl workers (default 11 — the
	// paper's machine count). Each worker presents a distinct identity to
	// the service's rate limiter.
	Workers int
	// MaxProfiles bounds how many profiles are fetched; 0 means no bound.
	// Hitting the bound leaves frontier users discovered-but-uncrawled,
	// the partial-crawl effect behind the paper's 35.1M-node/27.5M-profile
	// dataset.
	MaxProfiles int
	// FetchIn and FetchOut select which circle lists to follow. The
	// paper's crawl is bidirectional: both true. (Both false is rejected.)
	FetchIn, FetchOut bool
	// AttemptTimeout is the one per-request deadline (default 30s): it
	// bounds each wire attempt through the request context, so a hung
	// response costs a worker one attempt — retryable, and an overload
	// that requeues the id once retries run out.
	AttemptTimeout time.Duration
	// MaxRetries is handed to each worker's API client: retry attempts
	// per request beyond the first (0 = client default of 5). Chaos
	// testing raises it so probabilistic fault storms cannot manufacture
	// permanent failures.
	MaxRetries int
	// RetryBackoffBase is the client's first retry delay (0 = client
	// default of 50ms). Tests against local simulators shrink it.
	RetryBackoffBase time.Duration
	// Politeness inserts a pause between consecutive requests of each
	// worker — the well-behaved pacing that let the paper's crawl run
	// for 45 days without hammering the service. Zero disables it.
	Politeness time.Duration
	// AbortAfterErrors stops the crawl once this many fetches have failed
	// permanently (retries exhausted on a non-overload error, or an
	// overloaded id out of requeues — a shed that requeues costs nothing),
	// so a dead or hostile service does not grind through the whole
	// frontier at retry pace. The budget covers
	// the *sum* of profile-fetch and circle-fetch failures — the split is
	// reported separately in Stats.ProfileErrors and Stats.CircleErrors.
	// 0 disables the budget.
	AbortAfterErrors int
	// Resume continues a previous crawl: its discovered set seeds the
	// visited set, its uncrawled frontier seeds the queue (in sorted
	// order, approximating the interrupted BFS order), and its profiles
	// and edges are merged into the new result. Seeds already crawled in
	// Resume are not refetched. MaxProfiles bounds only the *additional*
	// profiles fetched in this session, and Stats.ProfilesCrawled
	// likewise counts only this session's fetches — carried-over
	// profiles are reported in Stats.ProfilesResumed, and
	// Resume.Stats.EdgesObserved carries into Stats.EdgesObserved.
	// Resume.Edges must be empty: Crawl forwards nothing, the caller
	// replayed them into the EdgeSink while loading (ReplayJournal).
	Resume *Result
	// Metrics receives live crawl telemetry when non-nil: frontier and
	// discovered gauges, profiles/pages/edges counters, the
	// profile-vs-circle error split, and per-worker throughput counters.
	// It is also handed to each worker's gplusapi.Client. nil disables
	// all instrumentation at the cost of a pointer check per update.
	Metrics *obs.Registry
	// Journal, when non-nil, receives every crawled profile, observed
	// edge, and newly discovered id live as the crawl runs — the
	// incremental checkpoint a kill -9 cannot take away. A profile is
	// journaled only once its circle lists are fully fetched, so
	// resuming from the journal refetches half-crawled users instead of
	// silently losing their edges. The caller opens the Journal before
	// the crawl and closes it after Crawl returns.
	Journal *Journal
	// Tracer records request-scoped spans when non-nil: a "crawl.profile"
	// root per crawled user with children for the profile fetch, each
	// circle page, scheduler offers, and journal appends — plus the
	// gplusapi client's per-attempt spans, propagated to gplusd via
	// X-Gplus-Trace. nil disables tracing at the cost of a pointer check
	// per span site.
	Tracer *trace.Tracer
	// EdgeSink receives every observed edge live as circle pages stream
	// in; it is required (dataset.SegmentSink spools them into
	// compactable disk segments). The sink sees this session's
	// observations; under Config.Resume the caller already streamed the
	// earlier sessions' edges into it (ReplayJournal), so the sink alone
	// holds the complete edge stream; duplicates between sessions
	// collapse at compaction like any other re-observed edge.
	// Implementations must be safe for concurrent use by all workers. A
	// sink write error aborts the crawl.
	EdgeSink EdgeSink
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.BaseURL == "" {
		return out, errors.New("crawler: BaseURL required")
	}
	if out.EdgeSink == nil {
		return out, errors.New("crawler: EdgeSink required")
	}
	if len(out.Seeds) == 0 {
		return out, errors.New("crawler: at least one seed required")
	}
	if err := checkIDs("seed list", out.Seeds); err != nil {
		return out, err
	}
	if !out.FetchIn && !out.FetchOut {
		return out, errors.New("crawler: at least one circle direction must be enabled")
	}
	if out.Resume != nil && (out.Resume.Profiles == nil || out.Resume.Discovered == nil) {
		return out, errors.New("crawler: Resume result is missing its profile or discovered maps")
	}
	if out.Resume != nil && len(out.Resume.Edges) > 0 {
		return out, errors.New("crawler: Resume.Edges would never reach the EdgeSink (a hole in the graph); load the journal with ReplayJournal")
	}
	if out.Workers <= 0 {
		out.Workers = 11
	}
	if out.AttemptTimeout <= 0 {
		out.AttemptTimeout = 30 * time.Second
	}
	return out, nil
}

// Edge is one observed circle relationship: From added To to a circle.
type Edge struct {
	From, To string
}

// EdgeSink streams observed edges out of the crawl as they are seen.
// ObserveEdge is called concurrently by every worker; implementations
// synchronize internally. Returning an error stops the crawl: a sink
// that cannot persist edges has already lost data, and limping on would
// silently produce a graph with holes.
type EdgeSink interface {
	ObserveEdge(from, to string) error
}

// Stats summarizes a crawl.
type Stats struct {
	// ProfilesCrawled counts profiles fetched in *this* session. Under
	// Config.Resume the prior session's profiles are reported separately
	// in ProfilesResumed, so ProfilesCrawled can be audited directly
	// against MaxProfiles (which bounds only additional fetches); the
	// merged Result.Profiles map holds the union of both.
	ProfilesCrawled int
	// ProfilesResumed is how many profiles were carried over from
	// Config.Resume (0 when not resuming).
	ProfilesResumed int
	// ProfileErrors counts permanent profile-fetch failures;
	// CircleErrors counts permanent circle-page-fetch failures. The two
	// are tracked separately (a profile can be collected even when its
	// circle lists are unreachable); Config.AbortAfterErrors budgets
	// their sum.
	ProfileErrors int
	CircleErrors  int
	PagesFetched  int64
	EdgesObserved int64
	Discovered    int
	// Requeued counts overloaded ids that were returned to the frontier
	// for a later retry instead of being marked failed.
	Requeued int
	// TornRecords counts trailing journal/checkpoint records dropped by
	// LoadCheckpoint because a mid-append crash left the final line without
	// its newline. At most one record can tear per load; it is only ever
	// the last thing written, so dropping it keeps the stream a
	// consistent resumable prefix.
	TornRecords int
	Duration    time.Duration
}

// Result is the raw output of a crawl, before graph construction.
type Result struct {
	// Profiles maps user id to the public profile collected.
	Profiles map[string]profile.Profile
	// Edges lists every E record LoadCheckpoint read, in file order,
	// possibly with duplicates (the same edge can be seen from both
	// endpoints' lists — that is what recovers links truncated by the
	// circle cap). Crawl streams its edges to Config.EdgeSink instead and
	// leaves Edges empty.
	Edges []Edge
	// Discovered holds every user id seen, crawled or not.
	Discovered map[string]bool
	Stats      Stats
}

// ErrTooManyErrors is returned (wrapped) when the crawl aborts on its
// error budget; the partial result is still returned.
var ErrTooManyErrors = errors.New("crawler: error budget exhausted")

// Crawl runs a bidirectional BFS crawl against a gplusd-compatible
// service. It returns when the reachable graph is exhausted, the profile
// budget is spent, the error budget is exhausted (ErrTooManyErrors), or
// ctx is cancelled — in every case returning what was collected.
func Crawl(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()

	reg := cfg.Metrics
	tel := newTelemetry(reg, cfg.Workers)

	// One retry budget for the whole fleet, so a dead endpoint costs the
	// crawl a bounded number of retries, not every worker's full ladder.
	budget := gplusapi.NewRetryBudget(gplusapi.BudgetOptions{}, reg, "crawler")

	sched := newScheduler(cfg.MaxProfiles)
	sched.tel = tel
	sched.errorBudget = cfg.AbortAfterErrors
	sched.maxRequeues = 32
	// The scheduler journals D records centrally: it is the one place
	// that knows which offered ids are genuinely new. Resume-preloaded
	// ids are deliberately not journaled: a crawl resumes from the
	// journal it appends to, so they are already on disk.
	sched.jrnl = cfg.Journal
	if cfg.Resume != nil {
		sched.preload(cfg.Resume)
		// Surface the load-time torn-record count in live telemetry.
		tel.torn.Add(int64(cfg.Resume.Stats.TornRecords))
	}
	sched.offerBatch(cfg.Seeds)
	// Cancellation closes the frontier, waking every worker blocked in
	// next: one registration for the whole crawl.
	defer context.AfterFunc(ctx, sched.abort)()

	workers := make([]*worker, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		transport := newWorkerTransport()
		w := &worker{
			cfg:   cfg,
			sched: sched,
			tel:   tel,
			self:  tel.workers[i],
			client: &gplusapi.Client{
				BaseURL:        cfg.BaseURL,
				Transport:      transport,
				CrawlerID:      workerName(i),
				MaxRetries:     cfg.MaxRetries,
				BackoffBase:    cfg.RetryBackoffBase,
				Metrics:        cfg.Metrics,
				Tracer:         cfg.Tracer,
				RetryBudget:    budget,
				AttemptTimeout: cfg.AttemptTimeout,
			},
			profiles: make(map[string]profile.Profile),
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer transport.CloseIdleConnections() // the transport is this worker's own
			w.run(ctx)
		}()
	}
	wg.Wait()

	res := &Result{
		Profiles:   make(map[string]profile.Profile),
		Discovered: sched.discovered(),
	}
	if cfg.Resume != nil {
		for id, p := range cfg.Resume.Profiles {
			res.Profiles[id] = p
		}
		res.Stats.EdgesObserved = cfg.Resume.Stats.EdgesObserved
		res.Stats.ProfilesResumed = len(cfg.Resume.Profiles)
	}
	var sinkErr error
	for _, w := range workers {
		if w.sinkErr != nil && sinkErr == nil {
			sinkErr = w.sinkErr
		}
		res.Stats.EdgesObserved += w.observedEdges
		for id, p := range w.profiles {
			res.Profiles[id] = p
		}
		// Each id is claimed by exactly one worker and resumed ids are
		// never re-claimed, so the per-worker maps are disjoint from
		// each other and from the resumed set: summing their sizes
		// yields the exact session-only crawl count.
		res.Stats.ProfilesCrawled += len(w.profiles)
		res.Stats.PagesFetched += w.pages
		res.Stats.ProfileErrors += w.profileErrs
		res.Stats.CircleErrors += w.circleErrs
	}
	res.Stats.Discovered = len(res.Discovered)
	res.Stats.Requeued = sched.requeueTotal()
	res.Stats.Duration = time.Since(start)
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	if sinkErr != nil {
		return res, fmt.Errorf("crawler: edge sink failed (streamed graph is incomplete): %w", sinkErr)
	}
	if total := res.Stats.ProfileErrors + res.Stats.CircleErrors; cfg.AbortAfterErrors > 0 && total >= cfg.AbortAfterErrors {
		return res, fmt.Errorf("%w: %d failures (%d profile, %d circle)",
			ErrTooManyErrors, total, res.Stats.ProfileErrors, res.Stats.CircleErrors)
	}
	return res, nil
}

type worker struct {
	cfg           Config
	sched         *scheduler
	tel           *telemetry
	self          *obs.Counter // this worker's throughput series
	client        *gplusapi.Client
	labels        workerLabels
	profiles      map[string]profile.Profile
	observedEdges int64
	sinkErr       error // first EdgeSink failure; set at most once
	pages         int64
	profileErrs   int
	circleErrs    int
}

// workerLabels are a worker's pprof label sets, built once: its identity
// alone, and its identity plus the phase and endpoint of each fetch. The
// contexts only carry labels for pprof.SetGoroutineLabels; requests run
// under the crawl's context.
type workerLabels struct {
	idle, profile, circles context.Context
}

func (w *worker) run(ctx context.Context) {
	// Every CPU sample this worker produces carries its identity, and a
	// fetch's samples its phase and endpoint too, so the continuous
	// profiler can split cost by (worker, phase, endpoint). The server
	// labels its side of a request with the same endpoint spelling.
	idle := pprof.WithLabels(ctx, pprof.Labels(obs.KeyWorker, w.client.CrawlerID))
	w.labels = workerLabels{
		idle:    idle,
		profile: pprof.WithLabels(idle, pprof.Labels(obs.KeyPhase, obs.PhaseFetchProfile, obs.KeyEndpoint, obs.EndpointProfile)),
		circles: pprof.WithLabels(idle, pprof.Labels(obs.KeyPhase, obs.PhaseCirclePage, obs.KeyEndpoint, obs.EndpointCircles)),
	}
	pprof.SetGoroutineLabels(idle)
	defer pprof.SetGoroutineLabels(ctx)
	for {
		id, ok := w.sched.next()
		if !ok {
			return
		}
		before := w.profileErrs + w.circleErrs
		w.crawlOne(ctx, id)
		if after := w.profileErrs + w.circleErrs; after > before {
			w.sched.recordErrors(after - before)
		}
		w.sched.finish()
	}
}

// maxRequeuePause caps how long a worker honors a server pacing hint
// before requeueing, so one huge Retry-After cannot idle a worker for
// the rest of the crawl.
const maxRequeuePause = 250 * time.Millisecond

// maybeRequeue returns an overloaded id to the frontier instead of
// counting it failed, so a brownout's worth of shed requests turns into
// deferred work rather than holes in the dataset. A false return means
// the caller must count the error; true means the id was requeued, or
// the crawl was cancelled while it waited.
// The worker first honors the overload's pacing hint (a 429/503's
// Retry-After) while still holding the id's claim: requeueing must
// defer load in time, not just reshuffle the queue. Handing the id back
// before the pause lets every idle worker re-claim it at once, so at a
// crawl's tail, where it is the only id left, the fleet spends its
// requeue allowance in a few hints and a passing overload becomes a
// lost profile.
func (w *worker) maybeRequeue(ctx context.Context, id string, err error) bool {
	if !gplusapi.IsOverload(err) {
		return false
	}
	var hinted interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &hinted) {
		if d := hinted.RetryAfterHint(); d > 0 {
			if d > maxRequeuePause {
				d = maxRequeuePause
			}
			select {
			case <-ctx.Done():
				return true // stopped, not failed: no phantom error
			case <-time.After(d):
			}
		}
	}
	if !w.sched.requeue(id) {
		return false // requeue cap reached or crawl closing
	}
	w.tel.requeues.Inc()
	return true
}

func (w *worker) crawlOne(ctx context.Context, id string) {
	w.pause(ctx)
	if ctx.Err() != nil {
		// Cancelled while pausing: a fetch now is doomed and would count
		// a phantom error against a crawl that was merely stopped.
		return
	}
	// One trace root per crawled user: the whole fetch→parse→schedule
	// pipeline of this profile hangs off it, including the server-side
	// spans gplusd records after joining via the propagated header.
	ctx, root := w.cfg.Tracer.StartSpan(ctx, "crawl.profile")
	if root != nil {
		root.Annotate("id", id)
		root.Annotate(obs.KeyWorker, w.client.CrawlerID)
		defer root.Finish()
	}
	fctx, fsp := w.cfg.Tracer.StartSpan(ctx, obs.PhaseFetchProfile)
	pprof.SetGoroutineLabels(w.labels.profile)
	p, err := w.client.FetchProfile(fctx, id)
	pprof.SetGoroutineLabels(w.labels.idle)
	fsp.SetError(err)
	fsp.Finish()
	if err != nil {
		root.SetError(err)
		if ctx.Err() != nil {
			return // cancelled mid-request, not a service failure
		}
		if w.maybeRequeue(ctx, id, err) {
			if root != nil {
				root.Annotate("requeued", "overload")
			}
			return
		}
		// Unreachable profiles (deleted accounts, persistent errors) are
		// skipped; the crawl continues, as the paper's did.
		w.profileErrs++
		w.tel.profErrs.Inc()
		return
	}

	var circleErrs []error
	if w.cfg.FetchOut {
		if cerr := w.fetchCircle(ctx, id, gplusapi.CircleOut); cerr != nil {
			circleErrs = append(circleErrs, cerr)
		}
	}
	if w.cfg.FetchIn {
		if cerr := w.fetchCircle(ctx, id, gplusapi.CircleIn); cerr != nil {
			circleErrs = append(circleErrs, cerr)
		}
	}
	if len(circleErrs) > 0 && ctx.Err() == nil {
		for _, cerr := range circleErrs {
			if w.maybeRequeue(ctx, id, cerr) {
				// The id goes back to the frontier and will be crawled
				// from scratch, so this pass's profile is dropped rather
				// than stored (a recrawl must not double-count it).
				// Already observed edges stay: duplicates are expected
				// and collapse during graph construction.
				if root != nil {
					root.Annotate("requeued", "overload")
				}
				return
			}
		}
		w.circleErrs += len(circleErrs)
		w.tel.circErrs.Add(int64(len(circleErrs)))
	}
	w.profiles[id] = p
	w.tel.profiles.Inc()
	w.self.Inc()
	if ctx.Err() == nil && len(circleErrs) == 0 {
		// Only a fully crawled profile earns its P record, and only
		// after its E/D records entered the journal stream: a resume
		// from any journal prefix then refetches half-crawled users
		// instead of losing their remaining circle pages.
		_, jsp := w.cfg.Tracer.StartSpan(ctx, "journal.profile")
		w.cfg.Journal.profile(id, p)
		jsp.Finish()
	}
}

// pause enforces the politeness delay, aborting early on cancellation.
func (w *worker) pause(ctx context.Context) {
	if w.cfg.Politeness <= 0 {
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(w.cfg.Politeness):
	}
}

// fetchCircle pages through one of id's circle lists, returning the
// first permanent fetch error (nil on success or cancellation — the
// caller checks ctx itself and a cancelled fetch must not be counted).
// Error accounting is the caller's job, which also decides whether an
// overload error requeues the id instead of counting against the budget.
func (w *worker) fetchCircle(ctx context.Context, id string, dir gplusapi.CircleDir) error {
	token := ""
	for pageN := 0; ; pageN++ {
		w.pause(ctx)
		if ctx.Err() != nil {
			return nil // cancelled: don't issue (and miscount) a doomed fetch
		}
		pctx, psp := w.cfg.Tracer.StartSpan(ctx, obs.PhaseCirclePage)
		if psp != nil {
			psp.Annotate("dir", string(dir))
			psp.Annotate("page", strconv.Itoa(pageN))
		}
		// The whole page pipeline — fetch, edge accounting, frontier
		// offer, journal append — shares one phase label, so by-phase CPU
		// attribution matches the trace span of the same name.
		pprof.SetGoroutineLabels(w.labels.circles)
		page, err := w.client.FetchCircle(pctx, id, dir, token, 0)
		if err == nil {
			err = checkIDs("circle page", page.IDs)
		}
		if err == nil {
			w.observePage(pctx, id, dir, page)
		}
		pprof.SetGoroutineLabels(w.labels.idle)
		if err != nil {
			psp.SetError(err)
			psp.Finish()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		psp.Finish()
		if page.NextPageToken == "" {
			return nil
		}
		token = page.NextPageToken
	}
}

// observePage streams one fetched circle page of id out of the crawl:
// into the edge sink, the frontier and the journal.
func (w *worker) observePage(ctx context.Context, id string, dir gplusapi.CircleDir, page *gplusapi.CirclePage) {
	w.pages++
	w.tel.pages.Inc()
	w.tel.edges.Add(int64(len(page.IDs)))
	for _, other := range page.IDs {
		from, to := id, other
		if dir == gplusapi.CircleIn {
			from, to = other, id
		}
		w.observedEdges++
		if w.sinkErr == nil {
			if serr := w.cfg.EdgeSink.ObserveEdge(from, to); serr != nil {
				// A sink that cannot persist edges has already dropped
				// part of the graph; close the crawl rather than widen
				// the hole.
				w.sinkErr = serr
				w.sched.abort()
			}
		}
	}
	// One frontier lock round-trip per page, not one per edge. The
	// scheduler journals the page's newly-discovered ids; the edges are
	// journaled here, where the direction is known.
	_, osp := w.cfg.Tracer.StartSpan(ctx, "sched.offer")
	w.sched.offerBatch(page.IDs)
	osp.Finish()
	_, jsp := w.cfg.Tracer.StartSpan(ctx, "journal.append")
	w.cfg.Journal.circlePage(id, dir == gplusapi.CircleOut, page.IDs)
	jsp.Finish()
}
