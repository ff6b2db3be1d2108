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

	"gplus/internal/obs"
	"gplus/internal/resilience"
)

func TestAdmissionPriorityClassification(t *testing.T) {
	for path, want := range map[string]resilience.Priority{
		"/people/u1/circles/out": resilience.PriorityLow,
		"/people/u1/circles/in":  resilience.PriorityLow,
		"/people/u1":             resilience.PriorityHigh,
		"/stats":                 resilience.PriorityHigh,
		"/seed":                  resilience.PriorityHigh,
	} {
		if got := admissionPriority(path); got != want {
			t.Errorf("admissionPriority(%q) = %v, want %v", path, got, want)
		}
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
		Admission: &resilience.AdmissionOptions{
			MaxConcurrent: 1,
			MaxQueue:      1,
			MaxWait:       20 * time.Millisecond,
		},
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
		t.Fatal("six parallel requests against 1 slot + 1 queue entry should shed some")
	}
}

// TestAdmissionDeadlineSheds occupies the single slot and then offers a
// request whose propagated deadline cannot survive the queue: it must be
// rejected immediately (no MaxWait stall) with a 503.
func TestAdmissionDeadlineSheds(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultDelay, Rate: 1, Delay: 300 * time.Millisecond},
		}},
		Admission: &resilience.AdmissionOptions{
			MaxConcurrent: 1,
			MaxQueue:      4,
			MaxWait:       time.Second,
		},
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
	req.Header.Set(resilience.DeadlineHeader, "2") // 2ms left: hopeless
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for a doomed deadline", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Errorf("doomed request took %v; deadline shedding should reject before queueing", waited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline shed missing Retry-After")
	}
	wg.Wait()
}

// TestAdmissionMetricsExported: the admission state is read off
// /metrics, and /metrics bypasses admission — it answers while the one
// slot is held and a request waits for it.
func TestAdmissionMetricsExported(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultDelay, Endpoint: obs.EndpointStats, Rate: 1, Delay: time.Second},
		}},
		Admission: &resilience.AdmissionOptions{MaxConcurrent: 1, MaxWait: 10 * time.Second},
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
				t.Fatalf("/metrics took %v while admission is full; it must bypass the queue", took)
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

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); get("/stats") }() // holds the one slot for a second
	waitFor("gplusd_admission_inflight 1")
	go func() { defer wg.Done(); get("/people/" + u.IDs[0] + "/circles/out") }() // waits for it
	waitFor(
		"gplusd_admission_limit 1",
		"gplusd_admission_inflight 1",
		`gplusd_admission_queued{priority="low"} 1`,
		`gplusd_admission_queued{priority="high"} 0`,
	)
	wg.Wait()
	waitFor(
		"gplusd_admission_inflight 0",
		`gplusd_admission_queued{priority="low"} 0`,
		`gplusd_admission_admitted_total{priority="high"} 1`,
		`gplusd_admission_admitted_total{priority="low"} 1`,
	)
}
