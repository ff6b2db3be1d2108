package gplusd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gplus/internal/obs"
)

func TestLimiterDisabledIsNil(t *testing.T) {
	if l := newLimiter(0, 0, rateShards, bucketTTL, nil, nil); l != nil {
		t.Fatal("limiter built with rate limiting disabled")
	}
	var l *limiter
	if !l.allow("anyone") {
		t.Error("nil limiter must allow everything")
	}
}

func TestLimiterShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {3, 4}, {11, 16}, {rateShards, 64},
	} {
		l := newLimiter(1, 0, tc.in, bucketTTL, nil, nil)
		if len(l.shards) != tc.want {
			t.Errorf("%d shards asked -> %d shards, want %d", tc.in, len(l.shards), tc.want)
		}
	}
}

// TestLimiterDistinctKeysDoNotInterfere is the striping contract: many
// concurrent crawler identities, each within its own burst, must never
// see a rejection — run with -race this also exercises the shard locks.
func TestLimiterDistinctKeysDoNotInterfere(t *testing.T) {
	l := newLimiter(1000, 40, rateShards, bucketTTL, nil, nil)
	var denied atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("machine-%02d", c)
			for i := 0; i < 30; i++ { // 30 < burst 40: never limited
				if !l.allow(key) {
					denied.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := denied.Load(); n != 0 {
		t.Errorf("%d requests denied across distinct keys inside their bursts", n)
	}
}

func TestLimiterSharedKeyStillLimits(t *testing.T) {
	// Near-zero refill: only the burst is spendable.
	l := newLimiter(0.001, 5, rateShards, bucketTTL, nil, nil)
	allowed := 0
	for i := 0; i < 20; i++ {
		if l.allow("one-key") {
			allowed++
		}
	}
	if allowed != 5 {
		t.Errorf("shared key allowed %d requests, want exactly the burst of 5", allowed)
	}
}

func TestLimiterEvictsIdleBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	live := reg.Gauge("gplusd_rate_limiter_buckets")
	evictions := reg.Counter("gplusd_rate_limiter_evictions_total")
	// One shard, so a single sweep sees every bucket.
	l := newLimiter(100, 1, 1, 50*time.Millisecond, live, evictions)
	now := time.Unix(1_000_000, 0)
	l.now = func() time.Time { return now }

	l.allow("a")
	l.allow("b")
	if got := live.Value(); got != 2 {
		t.Fatalf("bucket gauge = %d after two clients, want 2", got)
	}
	// Both clients go idle well past the TTL; the next request's sweep
	// must evict them (and only then create the new bucket).
	now = now.Add(time.Second)
	l.allow("c")
	if got := live.Value(); got != 1 {
		t.Errorf("bucket gauge = %d after idle sweep, want 1", got)
	}
	if got := evictions.Value(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if got := len(l.shards[0].buckets); got != 1 {
		t.Errorf("shard holds %d buckets, want 1", got)
	}
}

func TestLimiterTTLClampedToBurstRefill(t *testing.T) {
	// burst/rate = 10s of refill; a 1ms TTL would let churning clients
	// re-mint full bursts, so the limiter must clamp it up.
	l := newLimiter(1, 10, rateShards, time.Millisecond, nil, nil)
	if l.ttl < 10*time.Second {
		t.Errorf("ttl = %v, want >= 10s (full-burst refill)", l.ttl)
	}
}

func TestLimiterConcurrentChurnUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	l := newLimiter(1e6, 1e6, 4, time.Millisecond, reg.Gauge("b"), reg.Counter("e"))
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// Churning key space: create, expire, sweep concurrently.
				l.allow(fmt.Sprintf("churn-%d-%d", c, i%37))
			}
		}(c)
	}
	wg.Wait()
	if g := reg.Gauge("b").Value(); g < 0 {
		t.Errorf("bucket gauge went negative: %d", g)
	}
}

func TestBucketsGaugeExposedOnMetrics(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{RatePerSecond: 1000, BurstSize: 1000})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, worker := range []string{"w-a", "w-b", "w-c"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/people/"+u.IDs[0], nil)
		req.Header.Set("X-Crawler-Id", worker)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "gplusd_rate_limiter_buckets 3") {
		t.Errorf("exposition missing live bucket gauge:\n%s", body)
	}
}

func TestFaultSourceRates(t *testing.T) {
	if f := newFaultSource(0, 1); f != nil {
		t.Error("zero rate should disable the source")
	}
	var disabled *faultSource
	if disabled.hit() {
		t.Error("nil source must never fault")
	}
	always := newFaultSource(1, 7)
	for i := 0; i < 100; i++ {
		if !always.hit() {
			t.Fatal("rate 1.0 must fault every request")
		}
	}
}

// TestFaultSourceConcurrentRate checks the pooled per-goroutine streams
// still realize the configured probability under concurrency (-race
// covers the pool discipline).
func TestFaultSourceConcurrentRate(t *testing.T) {
	f := newFaultSource(0.5, 42)
	const (
		workers = 16
		draws   = 4000
	)
	var hits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				if f.hit() {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	got := float64(hits.Load()) / float64(workers*draws)
	if got < 0.45 || got > 0.55 {
		t.Errorf("fault rate realized %.3f, want ~0.5", got)
	}
}
