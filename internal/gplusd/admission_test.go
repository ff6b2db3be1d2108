package gplusd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gplus/internal/gplusapi"
	"gplus/internal/obs"
)

func TestAdmissionScaleSqueezesLimit(t *testing.T) {
	scale := 1.0
	var mu sync.Mutex
	reg := obs.NewRegistry()
	a := newAdmission(4, func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return scale
	}, reg)
	for i := 0; i < 4; i++ {
		if !a.acquire() {
			t.Fatalf("acquire %d shed below the limit", i)
		}
	}
	for i := 0; i < 4; i++ {
		a.release()
	}
	mu.Lock()
	scale = 0.25 // squeeze to 1 slot
	mu.Unlock()
	if !a.acquire() {
		t.Fatal("first acquire under a 0.25 squeeze of 4 shed")
	}
	defer a.release()
	if a.acquire() {
		t.Fatal("second acquire should shed under a 0.25 squeeze of 4")
	}
	if limit := reg.Gauge("gplusd_admission_limit").Value(); limit != 1 {
		t.Fatalf("gplusd_admission_limit = %d, want 1", limit)
	}
}

// TestAdmissionShedsWithRetryAfter saturates a one-slot server (a
// rate-1 chaos delay keeps every request in the handler long enough to
// pile up arrivals) and asserts that shed responses are 503s carrying a
// Retry-After estimate.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultDelay, Rate: 1, Delay: 150 * time.Millisecond},
		}},
		Admission: 1,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const parallel = 6
	type result struct {
		status     int
		retryAfter string
		body       string
	}
	results := make([]result, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/stats")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = result{resp.StatusCode, resp.Header.Get("Retry-After"), string(body)}
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, res := range results {
		switch res.status {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			shed++
			if res.retryAfter == "" {
				t.Errorf("request %d: shed 503 missing Retry-After", i)
			} else if secs, err := strconv.ParseFloat(res.retryAfter, 64); err != nil || secs <= 0 {
				t.Errorf("request %d: Retry-After %q not a positive number", i, res.retryAfter)
			}
		default:
			t.Errorf("request %d: unexpected status %d (%s)", i, res.status, res.body)
		}
	}
	if shed == 0 {
		t.Fatal("six parallel requests against 1 slot should shed some")
	}
}

// TestAdmissionDeadlineSheds occupies the single slot and then offers a
// second request: a full server refuses it at once (there is no queue to
// wait in) with a 503.
func TestAdmissionDeadlineSheds(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultDelay, Rate: 1, Delay: 300 * time.Millisecond},
		}},
		Admission: 1,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Get(ts.URL + "/stats") // occupies the slot
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slot fill

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from a full server", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Errorf("refused request took %v; a full server should refuse without queueing", waited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed missing Retry-After")
	}
	wg.Wait()
}

// TestMetricsRegistered: the overload series exist as soon as the
// admission limit and the client retry budget are built, before any
// request is admitted, shed, retried or denied.
func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	gplusapi.NewRetryBudget(gplusapi.BudgetOptions{}, reg, "gplusapi")
	newAdmission(4, nil, reg)
	snap := reg.Snapshot()
	var have []string
	for name := range snap.Counters {
		have = append(have, name)
	}
	for name := range snap.Gauges {
		have = append(have, name)
	}
	for name := range snap.Histograms {
		have = append(have, name)
	}
	joined := strings.Join(have, "\n")
	for _, name := range []string{
		"gplusapi_retry_budget_tokens_milli",
		"gplusd_admission_limit",
		"gplusd_admission_inflight",
		"gplusd_admission_shed_total",
	} {
		if !strings.Contains(joined, name) {
			t.Errorf("series %q not registered; have:\n%s", name, joined)
		}
	}
}

// TestAdmissionMetricsExported: the admission state is read off
// /metrics, and /metrics bypasses admission — it answers while the one
// slot is held and a second request is refused.
func TestAdmissionMetricsExported(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultDelay, Endpoint: obs.EndpointStats, Rate: 1, Delay: time.Second},
		}},
		Admission: 1,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	get := func(path string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// waitFor polls /metrics until it shows every line of want; each
	// poll must answer 200 at once, whatever admission is doing.
	waitFor := func(want ...string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; {
			start := time.Now()
			resp, err := ts.Client().Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics = %d while admission is full", resp.StatusCode)
			}
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Fatalf("/metrics took %v while admission is full; it must bypass admission", took)
			}
			missing := slices.DeleteFunc(slices.Clone(want), func(line string) bool {
				return slices.Contains(strings.Split(string(body), "\n"), line)
			})
			if len(missing) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("/metrics never showed %q:\n%s", missing, body)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor( // registered before the first request
		"gplusd_admission_limit 1",
		"gplusd_admission_inflight 0",
		"gplusd_admission_shed_total 0",
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); get("/stats") }() // holds the one slot for a second
	waitFor("gplusd_admission_inflight 1")
	get("/people/" + u.IDs[0] + "/circles/out") // refused at once
	waitFor(
		"gplusd_admission_limit 1",
		"gplusd_admission_inflight 1",
		"gplusd_admission_shed_total 1",
	)
	wg.Wait()
	waitFor(
		"gplusd_admission_inflight 0",
		"gplusd_admission_shed_total 1",
	)
}
