package crawler

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/obs"
	"gplus/internal/obs/rundir"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

var (
	crawlUniverseOnce sync.Once
	crawlUniverseVal  *synth.Universe
)

// crawlUniverse is a small shared ground truth.
func crawlUniverse(t *testing.T) *synth.Universe {
	t.Helper()
	crawlUniverseOnce.Do(func() {
		cfg := synth.DefaultConfig(2_500)
		cfg.Seed = 1234
		u, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		crawlUniverseVal = u
	})
	return crawlUniverseVal
}

func startService(t *testing.T, u *synth.Universe, opts gplusd.Options) string {
	t.Helper()
	ts := httptest.NewServer(gplusd.New(u, opts))
	t.Cleanup(ts.Close)
	return ts.URL
}

// edgeLog is the tests' EdgeSink: it keeps every observed edge, in
// arrival order. Safe for concurrent use.
type edgeLog struct {
	mu    sync.Mutex
	edges []Edge
}

func (l *edgeLog) ObserveEdge(from, to string) error {
	l.mu.Lock()
	l.edges = append(l.edges, Edge{From: from, To: to})
	l.mu.Unlock()
	return nil
}

// crawlInRAM is Crawl as gpluscrawl drives it, with the edge stream
// kept in an edgeLog for the assertions: a resumed result's edges are
// replayed into the sink first, as ReplayJournal does, and the returned
// Result carries the sink's whole stream in Edges, as LoadCheckpoint
// reads a journal back, so two crawls compare by their graphs.
func crawlInRAM(ctx context.Context, cfg Config) (*Result, error) {
	sink := &edgeLog{}
	if cfg.Resume != nil {
		sink.edges = slices.Clone(cfg.Resume.Edges)
		resume := *cfg.Resume
		resume.Edges = nil
		cfg.Resume = &resume
	}
	cfg.EdgeSink = sink
	res, err := Crawl(ctx, cfg)
	if res != nil {
		res.Edges = sink.edges
	}
	return res, err
}

// startRun builds the crawl-side observability stack through the one
// wiring call gpluscrawl uses. Tests Close the run themselves before
// reading what it spooled; the cleanup covers early exits.
func startRun(t *testing.T, cfg rundir.Config) *rundir.Run {
	t.Helper()
	run, err := rundir.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.Close() }) //nolint:errcheck — the test's own Close is the checked one
	return run
}

// seedID returns the id of the highest in-degree user — "the most popular
// user", like the paper's Mark Zuckerberg seed.
func seedID(u *synth.Universe) string {
	top := graph.TopByInDegree(u.Graph, 1, 1)
	return u.IDs[top[0]]
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	sink := &edgeLog{}
	resumed := &Result{
		Profiles:   map[string]profile.Profile{},
		Discovered: map[string]bool{"a": true, "b": true},
		Edges:      []Edge{{From: "a", To: "b"}},
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"empty config", Config{}},
		{"config without an edge sink", Config{BaseURL: "http://x", Seeds: []string{"a"}, FetchIn: true, FetchOut: true}},
		{"config without seeds", Config{BaseURL: "http://x", EdgeSink: sink}},
		{"seed a journal record cannot hold", Config{BaseURL: "http://x", Seeds: []string{"a", "b c"}, FetchIn: true, FetchOut: true, EdgeSink: sink}},
		{"empty seed", Config{BaseURL: "http://x", Seeds: []string{""}, FetchIn: true, FetchOut: true, EdgeSink: sink}},
		{"config without directions", Config{BaseURL: "http://x", Seeds: []string{"a"}, EdgeSink: sink}},
		// Crawl forwards nothing into the sink: resume edges held in RAM
		// would silently be a hole in the streamed graph.
		{"resume carrying edges", Config{BaseURL: "http://x", Seeds: []string{"a"}, FetchIn: true, FetchOut: true, EdgeSink: sink, Resume: resumed}},
	} {
		if _, err := Crawl(ctx, c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestFullCrawlRecoversWCC(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{CircleCap: -1})

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url,
		Seeds:   []string{seedID(u)},
		Workers: 8,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}

	// The bidirectional snowball must reach exactly the seed's weakly
	// connected component (§3.3.4: "the social graph G consists of only
	// one WCC" by construction of the crawl).
	wcc := graph.WCC(u.Graph, 1)
	seedComp := wcc.Comp[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	wantUsers := 0
	var wantEdges int64
	for i := 0; i < u.NumUsers(); i++ {
		if wcc.Comp[i] != seedComp {
			continue
		}
		wantUsers++
		wantEdges += int64(u.Graph.OutDegree(graph.NodeID(i)))
	}
	if res.Stats.ProfilesCrawled != wantUsers {
		t.Errorf("crawled %d profiles, want %d (seed WCC)", res.Stats.ProfilesCrawled, wantUsers)
	}
	if res.Stats.Discovered != wantUsers {
		t.Errorf("discovered %d, want %d", res.Stats.Discovered, wantUsers)
	}

	// Every edge is observed from both endpoints, so raw observations are
	// roughly double the true count; dedup happens at graph build.
	unique := make(map[Edge]bool, len(res.Edges))
	for _, e := range res.Edges {
		unique[e] = true
	}
	if int64(len(unique)) != wantEdges {
		t.Errorf("unique observed edges = %d, want %d", len(unique), wantEdges)
	}
	if res.Stats.ProfileErrors != 0 {
		t.Errorf("profile errors = %d", res.Stats.ProfileErrors)
	}
}

func TestCrawlEdgesMatchGroundTruth(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{CircleCap: -1})

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url,
		Seeds:   []string{seedID(u)},
		Workers: 4,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: every observed edge exists in the ground truth.
	idx := make(map[string]graph.NodeID, len(u.IDs))
	for i, id := range u.IDs {
		idx[id] = graph.NodeID(i)
	}
	for _, e := range res.Edges[:min(len(res.Edges), 5000)] {
		from, okF := idx[e.From]
		to, okT := idx[e.To]
		if !okF || !okT {
			t.Fatalf("edge with unknown endpoint: %+v", e)
		}
		if !graph.HasArc(u.Graph, from, to) {
			t.Fatalf("observed edge %d->%d not in ground truth", from, to)
		}
	}
}

func TestCrawlBudgetLeavesFrontier(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})

	const budget = 300
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:     url,
		Seeds:       []string{seedID(u)},
		Workers:     6,
		MaxProfiles: budget,
		FetchIn:     true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfilesCrawled > budget {
		t.Errorf("crawled %d profiles, budget %d", res.Stats.ProfilesCrawled, budget)
	}
	if res.Stats.ProfilesCrawled < budget*9/10 {
		t.Errorf("crawled only %d of %d budget", res.Stats.ProfilesCrawled, budget)
	}
	// The partial crawl discovers far more users than it crawls — the
	// 35.1M-nodes vs 27.5M-profiles effect of §2.2.
	if res.Stats.Discovered <= res.Stats.ProfilesCrawled {
		t.Errorf("discovered %d <= crawled %d; expected an uncrawled frontier",
			res.Stats.Discovered, res.Stats.ProfilesCrawled)
	}
}

func TestCrawlWithCircleCapAndRecovery(t *testing.T) {
	u := crawlUniverse(t)
	// A small cap truncates popular users' in-lists, but the
	// bidirectional crawl recovers those edges from the other side's
	// out-lists.
	url := startService(t, u, gplusd.Options{CircleCap: 50})

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url,
		Seeds:   []string{seedID(u)},
		Workers: 8,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	unique := make(map[Edge]bool, len(res.Edges))
	for _, e := range res.Edges {
		unique[e] = true
	}
	var trueEdges int64
	wcc := graph.WCC(u.Graph, 1)
	seedComp := wcc.Comp[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	for i := 0; i < u.NumUsers(); i++ {
		if wcc.Comp[i] == seedComp {
			trueEdges += int64(u.Graph.OutDegree(graph.NodeID(i)))
		}
	}
	recovered := float64(len(unique)) / float64(trueEdges)
	// Out-lists are capped at 50 too, so some loss is real; but recovery
	// through both directions must keep the vast majority.
	if recovered < 0.95 {
		t.Errorf("recovered only %.1f%% of edges under cap", 100*recovered)
	}
}

func TestCrawlPoliteness(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	const (
		budget = 10
		delay  = 20 * time.Millisecond
	)
	start := time.Now()
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:     url,
		Seeds:       []string{seedID(u)},
		Workers:     1,
		MaxProfiles: budget,
		Politeness:  delay,
		FetchIn:     true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One worker, >= 3 paced requests per profile (profile + two circle
	// fetches): the crawl cannot beat the politeness floor.
	minElapsed := time.Duration(budget) * 3 * delay
	if elapsed := time.Since(start); elapsed < minElapsed {
		t.Errorf("polite crawl took %v, below the %v pacing floor", elapsed, minElapsed)
	}
	if res.Stats.ProfilesCrawled != budget {
		t.Errorf("crawled %d, want %d", res.Stats.ProfilesCrawled, budget)
	}
}

func TestCrawlCancellation(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := crawlInRAM(ctx, Config{
		BaseURL: url,
		Seeds:   []string{seedID(u)},
		FetchIn: true, FetchOut: true,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled crawl should still return partial results")
	}
}

func TestCrawlSurvivesFaultsAndRateLimits(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{
		Faults:        &gplusd.FaultSpec{Seed: 3, Rules: []gplusd.FaultRule{{Kind: gplusd.FaultUnavailable, Rate: 0.05}}},
		RatePerSecond: 2000,
		BurstSize:     200,
	})
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:     url,
		Seeds:       []string{seedID(u)},
		Workers:     8,
		MaxProfiles: 500,
		FetchIn:     true, FetchOut: true,
		AttemptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfilesCrawled < 450 {
		t.Errorf("crawled %d profiles under faults, want >= 450", res.Stats.ProfilesCrawled)
	}
}

func TestCrawlAbortsOnErrorBudget(t *testing.T) {
	u := crawlUniverse(t)
	// A service that always sheds: every fetch exhausts its retries and
	// every id its requeue allowance, which is what the budget counts. The
	// fast knobs keep 32 requeue rounds per id inside the bound below.
	url := startService(t, u, gplusd.Options{Faults: &gplusd.FaultSpec{Seed: 1, Rules: []gplusd.FaultRule{{Kind: gplusd.FaultUnavailable, Rate: 1}}}})
	start := time.Now()
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:          url,
		Seeds:            []string{seedID(u), "x1", "x2", "x3", "x4", "x5", "x6", "x7"},
		Workers:          4,
		AbortAfterErrors: 3,
		FetchIn:          true, FetchOut: true,
		AttemptTimeout:   5 * time.Second,
		MaxRetries:       1,
		RetryBackoffBase: time.Millisecond,
	})
	if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("err = %v, want ErrTooManyErrors", err)
	}
	if res == nil || res.Stats.ProfileErrors < 3 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// The abort must bite long before all eight seeds grind through
	// retries; generous bound for slow CI.
	if time.Since(start) > 30*time.Second {
		t.Errorf("abort took %v", time.Since(start))
	}
}

func TestCrawlErrorBudgetDisabledByDefault(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url,
		Seeds:   []string{"missing-1", "missing-2", "missing-3", seedID(u)},
		Workers: 2, MaxProfiles: 50,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatalf("crawl with errors but no budget failed: %v", err)
	}
	if res.Stats.ProfileErrors < 3 {
		t.Errorf("errors = %d, want 3 missing seeds", res.Stats.ProfileErrors)
	}
}

func TestCrawlUnknownSeedSkipped(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:  url,
		Seeds:    []string{"no-such-user", seedID(u)},
		Workers:  4,
		FetchOut: true, FetchIn: true,
		MaxProfiles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfileErrors == 0 {
		t.Error("missing seed should count as a profile error")
	}
	if res.Stats.ProfilesCrawled == 0 {
		t.Error("crawl should proceed from the valid seed")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// circlesForbidden fails every circle-list request with a permanent
// (non-retryable) status while letting profile fetches through.
type circlesForbidden struct{ inner http.Handler }

func (c circlesForbidden) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.URL.Path, "/circles/") {
		http.Error(w, "circles unavailable", http.StatusForbidden)
		return
	}
	c.inner.ServeHTTP(w, r)
}

// hostilePages answers every third circle-list request with one of
// hostileBodies, and hands the rest to the inner service.
type hostilePages struct {
	inner http.Handler
	n     atomic.Int64
}

// hostileBodies are canonical circle pages whose ids a journal record
// cannot carry: an empty id, an id with a space after one that would
// be fine on its own, and an id whose newline would forge a P record.
var hostileBodies = []string{
	`{"ids":[""]}`,
	`{"ids":["ghost-1","a b"]}`,
	`{"ids":["x\nP {\"id\":\"forged\",\"name\":\"\",\"fields\":null,\"inCircleCount\":0,\"outCircleCount\":0}"]}`,
}

func (h *hostilePages) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.URL.Path, "/circles/") {
		if n := h.n.Add(1); n%3 == 0 {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, hostileBodies[n/3%int64(len(hostileBodies))]+"\n") //nolint:errcheck — the client sees a short body
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

// TestCrawlRefusesIDsTheJournalCannotHold serves circle pages carrying
// ids an E or D record cannot hold: each page counts as a circle error,
// none of its ids reaches the sink, the frontier or the journal, and the
// journal still loads.
func TestCrawlRefusesIDsTheJournalCannotHold(t *testing.T) {
	u := crawlUniverse(t)
	ts := httptest.NewServer(&hostilePages{inner: gplusd.New(u, gplusd.Options{})})
	defer ts.Close()
	path := filepath.Join(t.TempDir(), "crawl.journal")
	j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:     ts.URL,
		Seeds:       []string{seedID(u)},
		Workers:     2,
		MaxProfiles: 60,
		FetchIn:     true, FetchOut: true,
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.CircleErrors == 0 {
		t.Errorf("stats = %+v: no hostile page was refused", res.Stats)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("journal does not load: %v", err)
	}
	bad := func(id string) bool {
		return id == "" || strings.ContainsAny(id, " \n") || id == "ghost-1" || id == "forged"
	}
	for _, r := range []*Result{res, loaded} {
		for _, e := range r.Edges {
			if bad(e.From) || bad(e.To) {
				t.Errorf("edge %q -> %q from a refused page", e.From, e.To)
			}
		}
		for id := range r.Discovered {
			if bad(id) {
				t.Errorf("id %q from a refused page discovered", id)
			}
		}
		for id := range r.Profiles {
			if bad(id) {
				t.Errorf("profile %q from a refused page", id)
			}
		}
	}
}

func TestCrawlTelemetry(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{CircleCap: -1})

	reg := obs.NewRegistry()
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url,
		Seeds:   []string{seedID(u)},
		Workers: 6,
		FetchIn: true, FetchOut: true,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The frontier drains completely on an unbounded crawl.
	if got := reg.Gauge("crawler_frontier_depth").Value(); got != 0 {
		t.Errorf("frontier gauge = %d at end of crawl, want 0", got)
	}
	// Live counters must agree with the final Stats.
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"crawler_profiles_crawled_total", reg.Counter("crawler_profiles_crawled_total").Value(), int64(res.Stats.ProfilesCrawled)},
		{"crawler_pages_fetched_total", reg.Counter("crawler_pages_fetched_total").Value(), res.Stats.PagesFetched},
		{"crawler_edges_observed_total", reg.Counter("crawler_edges_observed_total").Value(), res.Stats.EdgesObserved},
		{"crawler_profile_errors_total", reg.Counter("crawler_profile_errors_total").Value(), int64(res.Stats.ProfileErrors)},
		{"crawler_circle_errors_total", reg.Counter("crawler_circle_errors_total").Value(), int64(res.Stats.CircleErrors)},
		{"crawler_discovered_users", reg.Gauge("crawler_discovered_users").Value(), int64(res.Stats.Discovered)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Stats)", c.name, c.got, c.want)
		}
	}
	// Per-worker throughput counters partition the total.
	var perWorker int64
	for i := 0; i < 6; i++ {
		perWorker += reg.Counter("crawler_worker_profiles_total", obs.Label{Key: obs.KeyWorker, Value: workerName(i)}).Value()
	}
	if perWorker != int64(res.Stats.ProfilesCrawled) {
		t.Errorf("per-worker counters sum to %d, want %d", perWorker, res.Stats.ProfilesCrawled)
	}
	// The registry also carries the client's instrumentation.
	snap := reg.Snapshot()
	if snap.Counters[`gplusapi_responses_total{endpoint="profile",code="200"}`] == 0 {
		t.Error("client status counters missing from shared registry")
	}
	if snap.Histograms[`gplusapi_request_seconds{endpoint="circles"}`].Count == 0 {
		t.Error("client latency histogram missing from shared registry")
	}
}

func TestCrawlErrorSplit(t *testing.T) {
	u := crawlUniverse(t)
	inner := gplusd.New(u, gplusd.Options{})
	ts := httptest.NewServer(circlesForbidden{inner: inner})
	defer ts.Close()

	reg := obs.NewRegistry()
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: ts.URL,
		// One missing seed forces a profile error alongside the injected
		// circle failures.
		Seeds:       []string{"no-such-user", seedID(u)},
		Workers:     4,
		MaxProfiles: 20,
		FetchIn:     true, FetchOut: true,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfileErrors != 1 {
		t.Errorf("ProfileErrors = %d, want exactly the missing seed", res.Stats.ProfileErrors)
	}
	// Every crawled profile fails both of its circle fetches.
	if want := int64(res.Stats.ProfilesCrawled * 2); int64(res.Stats.CircleErrors) != want {
		t.Errorf("CircleErrors = %d, want %d (2 per crawled profile)", res.Stats.CircleErrors, want)
	}
	if res.Stats.CircleErrors == 0 || res.Stats.PagesFetched != 0 {
		t.Errorf("stats = %+v: circle failures must not count pages", res.Stats)
	}
	if got := reg.Counter("crawler_circle_errors_total").Value(); got != int64(res.Stats.CircleErrors) {
		t.Errorf("circle error counter = %d, want %d", got, res.Stats.CircleErrors)
	}
}

func TestCrawlErrorBudgetCoversBothKinds(t *testing.T) {
	u := crawlUniverse(t)
	inner := gplusd.New(u, gplusd.Options{})
	ts := httptest.NewServer(circlesForbidden{inner: inner})
	defer ts.Close()

	// Profiles succeed, so only circle errors can exhaust the budget.
	// Broken circles mean no discovery, so several seeds are needed to
	// generate enough failures (two per crawled profile).
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:          ts.URL,
		Seeds:            []string{u.IDs[0], u.IDs[1], u.IDs[2], u.IDs[3]},
		Workers:          2,
		AbortAfterErrors: 4,
		FetchIn:          true, FetchOut: true,
	})
	if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("err = %v, want ErrTooManyErrors from circle failures", err)
	}
	if res.Stats.ProfileErrors+res.Stats.CircleErrors < 4 {
		t.Errorf("stats = %+v, want >= 4 total errors", res.Stats)
	}
}

func TestCrawlCancellationDoesNotInflateErrors(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel while every worker sits in its politeness pause; the
	// workers must not then issue (and miscount) doomed fetches.
	go func() {
		time.Sleep(75 * time.Millisecond)
		cancel()
	}()
	res, err := crawlInRAM(ctx, Config{
		BaseURL:    url,
		Seeds:      []string{seedID(u)},
		Workers:    4,
		Politeness: 40 * time.Millisecond,
		FetchIn:    true, FetchOut: true,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.ProfileErrors != 0 || res.Stats.CircleErrors != 0 {
		t.Errorf("cancelled crawl counted phantom errors: %+v", res.Stats)
	}
}
