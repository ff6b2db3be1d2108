package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs"
)

func TestSchedulerRequeue(t *testing.T) {
	s := newScheduler(0)
	s.tel = newTelemetry(nil, 0)
	s.maxRequeues = 2
	s.offerBatch([]string{"u1"})

	id, ok := s.next()
	if !ok || id != "u1" {
		t.Fatalf("next = %q, %t", id, ok)
	}
	if !s.requeue("u1") {
		t.Fatal("first requeue refused")
	}
	s.finish()
	if id, ok = s.next(); !ok || id != "u1" {
		t.Fatalf("re-claim = %q, %t, want u1 again", id, ok)
	}
	if !s.requeue("u1") {
		t.Fatal("second requeue refused")
	}
	s.finish()
	if id, ok = s.next(); !ok || id != "u1" {
		t.Fatalf("re-claim = %q, %t", id, ok)
	}
	if s.requeue("u1") {
		t.Fatal("third requeue allowed past maxRequeues=2")
	}
	if got := s.requeueTotal(); got != 2 {
		t.Fatalf("requeueTotal = %d, want 2", got)
	}
	s.finish()
	// The id stays claimed, the queue is empty: the crawl completes.
	if _, ok := s.next(); ok {
		t.Fatal("scheduler should report completion")
	}
}

func TestSchedulerRequeueDisabledByDefault(t *testing.T) {
	s := newScheduler(0)
	s.tel = newTelemetry(nil, 0)
	s.offerBatch([]string{"u1"})
	if _, ok := s.next(); !ok {
		t.Fatal("claim failed")
	}
	if s.requeue("u1") {
		t.Fatal("requeue must be refused when maxRequeues is unset")
	}
}

// overloadGate 503s (with Retry-After) every request for one profile
// until that profile has been rejected `rejects` times, then proxies
// cleanly — forcing the crawl's client to exhaust retries and exercise
// the requeue path before eventually succeeding.
type overloadGate struct {
	inner   http.Handler
	target  string
	rejects int

	mu   sync.Mutex
	seen int
}

func (g *overloadGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/people/"+g.target {
		g.mu.Lock()
		reject := g.seen < g.rejects
		if reject {
			g.seen++
		}
		g.mu.Unlock()
		if reject {
			w.Header().Set("Retry-After", "0.001")
			http.Error(w, "synthetic overload", http.StatusServiceUnavailable)
			return
		}
	}
	g.inner.ServeHTTP(w, r)
}

func TestCrawlRequeuesOnOverload(t *testing.T) {
	u := crawlUniverse(t)
	seed := seedID(u)
	// 6 rejects: two full 3-attempt rounds fail and requeue, the third
	// succeeds. Their 4 retries fit in the retry budget's default burst
	// of 10, so no round is cut short, and 2 requeues are far inside the
	// per-id allowance of 32.
	gate := &overloadGate{inner: gplusd.New(u, gplusd.Options{}), target: seed, rejects: 6}
	ts := httptest.NewServer(gate)
	defer ts.Close()

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: ts.URL, Seeds: []string{seed}, Workers: 4,
		FetchIn: true, FetchOut: true,
		MaxProfiles:      30,
		MaxRetries:       2,
		RetryBackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Requeued == 0 {
		t.Error("6 consecutive 503s against a 2-retry client must requeue the id")
	}
	if res.Stats.ProfileErrors != 0 {
		t.Errorf("ProfileErrors = %d; overload must requeue, not fail", res.Stats.ProfileErrors)
	}
	if _, ok := res.Profiles[seed]; !ok {
		t.Error("the gated profile never made it into the dataset")
	}
}

// shedWindow 503s every request for one profile, with a Retry-After
// hint, until its deadline passes.
type shedWindow struct {
	inner  http.Handler
	target string
	until  time.Time
}

func (g *shedWindow) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/people/"+g.target && time.Now().Before(g.until) {
		w.Header().Set("Retry-After", "0.1")
		http.Error(w, "synthetic overload", http.StatusServiceUnavailable)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// TestCrawlRequeuePacesTheID pins the tail of a chaos crawl: the one id
// left in the frontier is shed for 2s. A worker that requeues it must
// sit out the pacing hint before the id is handed back, or the idle
// workers re-claim it at once and eight of them spend its requeue
// allowance (32) within a few hints, turning a passing overload into a
// lost profile.
func TestCrawlRequeuePacesTheID(t *testing.T) {
	u := crawlUniverse(t)
	seed := seedID(u)
	gate := &shedWindow{inner: gplusd.New(u, gplusd.Options{}), target: seed, until: time.Now().Add(2 * time.Second)}
	ts := httptest.NewServer(gate)
	defer ts.Close()

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: ts.URL, Seeds: []string{seed}, Workers: 8,
		FetchIn: true, FetchOut: true,
		MaxProfiles:      30,
		MaxRetries:       1,
		RetryBackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfileErrors != 0 {
		t.Errorf("ProfileErrors = %d after %d requeues; a paced id must outlast a 2s shed", res.Stats.ProfileErrors, res.Stats.Requeued)
	}
	if _, ok := res.Profiles[seed]; !ok {
		t.Error("the shed profile never made it into the dataset")
	}
}

func TestCrawlResilienceMetricsRegistered(t *testing.T) {
	u := crawlUniverse(t)
	reg := obs.NewRegistry()
	_, err := crawlInRAM(context.Background(), Config{
		BaseURL: startService(t, u, gplusd.Options{}),
		Seeds:   []string{seedID(u)}, Workers: 2,
		FetchIn: true, FetchOut: true,
		MaxProfiles: 10,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, want := range []string{"crawler_retry_budget_tokens_milli"} {
		if _, ok := snap.Gauges[want]; !ok {
			t.Errorf("gauge %s not registered", want)
		}
	}
}
