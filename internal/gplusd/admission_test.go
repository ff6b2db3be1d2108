package gplusd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

func TestDebugAdmissionEndpoint(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		// /debug/admission must bypass fault injection
		Faults:    &FaultSpec{Rules: []FaultRule{{Kind: FaultUnavailable, Rate: 1}}},
		Admission: &resilience.AdmissionOptions{MaxConcurrent: 3},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/admission")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var rep resilience.AdmissionReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.MaxConcurrent != 3 || rep.Limit != 3 {
		t.Fatalf("report = %+v, want max_concurrent=3", rep)
	}
}

func TestDebugAdmissionWithoutController(t *testing.T) {
	srv := New(serverUniverse(t), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/admission")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 when admission is disabled", resp.StatusCode)
	}
}

func TestAdmissionMetricsExported(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		Admission: &resilience.AdmissionOptions{MaxConcurrent: 2},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := ts.Client().Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gplusd_admission_limit",
		"gplusd_admission_inflight",
		"gplusd_admission_admitted_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
