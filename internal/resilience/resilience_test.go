package resilience

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gplus/internal/obs"
)

func TestRetryBudgetSpendAndRefill(t *testing.T) {
	b := NewRetryBudget(BudgetOptions{Ratio: 0.5, MinPerSec: 0.0001, Burst: 2}, nil, "t")
	if !b.TrySpend() || !b.TrySpend() {
		t.Fatal("burst tokens should grant the first two retries")
	}
	if b.TrySpend() {
		t.Fatal("third retry should be denied with an empty bucket")
	}
	// Two successes deposit 2×0.5 = 1 token.
	b.Deposit()
	b.Deposit()
	if !b.TrySpend() {
		t.Fatal("deposits should refill the bucket")
	}
	if b.TrySpend() {
		t.Fatal("bucket should be empty again")
	}
}

func TestRetryBudgetBurstCap(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewRetryBudget(BudgetOptions{Ratio: 1, Burst: 3}, reg, "t")
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if got := reg.Gauge("t_retry_budget_tokens_milli").Value(); got > 3000 {
		t.Fatalf("tokens = %d milli, want ≤ burst 3", got)
	}
}

func TestRetryBudgetNil(t *testing.T) {
	var b *RetryBudget
	b.Deposit()
	if !b.TrySpend() {
		t.Fatal("nil budget must always grant")
	}
}

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/people/1", nil)
	SetDeadlineHeader(ctx, req)
	v := req.Header.Get(DeadlineHeader)
	if v == "" {
		t.Fatal("deadline header not set")
	}
	d, ok := DeadlineFromHeader(req)
	if !ok {
		t.Fatal("deadline header did not parse")
	}
	if until := time.Until(d); until <= 0 || until > 600*time.Millisecond {
		t.Fatalf("parsed deadline %v from now, want ≈500ms", until)
	}
}

func TestDeadlineHeaderMalformed(t *testing.T) {
	for _, v := range []string{"", "garbage", "-5", "0", "1.5"} {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		if v != "" {
			req.Header.Set(DeadlineHeader, v)
		}
		if _, ok := DeadlineFromHeader(req); ok {
			t.Fatalf("header %q should not parse", v)
		}
	}
}

func TestDeadlineHeaderAbsentWithoutDeadline(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	SetDeadlineHeader(context.Background(), req)
	if got := req.Header.Get(DeadlineHeader); got != "" {
		t.Fatalf("header = %q, want unset for deadline-free context", got)
	}
}

func TestAdmissionBoundedConcurrency(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 2, MaxQueue: 2, MaxWait: 50 * time.Millisecond}, nil, "t")
	r1, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	r2, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	// Third request must queue, then time out at MaxWait.
	start := time.Now()
	_, shed = a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed == nil {
		t.Fatal("third request should be shed after MaxWait")
	}
	if shed.Reason != ShedTimeout {
		t.Fatalf("reason = %q, want %q", shed.Reason, ShedTimeout)
	}
	if shed.RetryAfter <= 0 {
		t.Fatal("shed must carry a Retry-After hint")
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("shed after %v, should have waited ≈MaxWait", waited)
	}
	r1()
	r2()
	// Slots free again.
	r3, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	r3()
}

func TestAdmissionQueueHandsOffToWaiter(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 1, MaxQueue: 4, MaxWait: time.Second}, nil, "t")
	r1, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	got := make(chan *ShedError, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r2, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
		got <- shed
		if shed == nil {
			r2()
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine queue
	r1()
	wg.Wait()
	if shed := <-got; shed != nil {
		t.Fatalf("queued waiter should be admitted on release, got shed %v", shed)
	}
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Second}, nil, "t")
	release, shed := a.Acquire(context.Background(), PriorityLow, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	defer release()
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan *ShedError, 1)
	go func() {
		defer wg.Done()
		r, shed := a.Acquire(context.Background(), PriorityLow, time.Time{})
		queued <- shed
		if shed == nil {
			r()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// Queue is full (1 low-pri waiter). A low-pri arrival is shed...
	_, shed = a.Acquire(context.Background(), PriorityLow, time.Time{})
	if shed == nil || shed.Reason != ShedQueueFull {
		t.Fatalf("low-pri arrival at full queue: shed = %v, want queue_full", shed)
	}
	// ...but a high-pri arrival displaces the queued low-pri waiter.
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		r, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
		if shed == nil {
			r()
		}
	}()
	if displaced := <-queued; displaced == nil || displaced.Reason != ShedDisplaced {
		t.Fatalf("low-pri waiter should be displaced, got %v", displaced)
	}
	release()
	wg.Wait()
	wg2.Wait()
}

func TestAdmissionDeadlineShedding(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxConcurrent: 1, MaxQueue: 8, MaxWait: time.Second}, nil, "t")
	// Already-expired deadline: shed immediately.
	_, shed := a.Acquire(context.Background(), PriorityHigh, time.Now().Add(-time.Second))
	if shed == nil || shed.Reason != ShedExpired {
		t.Fatalf("expired deadline: shed = %v, want expired", shed)
	}
	release, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	defer release()
	// A deadline tighter than the estimated queue wait: shed without queueing.
	_, shed = a.Acquire(context.Background(), PriorityHigh, time.Now().Add(time.Microsecond))
	if shed == nil {
		t.Fatal("near-expired deadline should be shed rather than queued")
	}
	if shed.Reason != ShedDeadline && shed.Reason != ShedExpired {
		t.Fatalf("reason = %q, want deadline/expired", shed.Reason)
	}
}

func TestAdmissionScaleSqueezesLimit(t *testing.T) {
	scale := 1.0
	var mu sync.Mutex
	reg := obs.NewRegistry()
	a := NewAdmission(AdmissionOptions{
		MaxConcurrent: 4,
		MaxWait:       30 * time.Millisecond,
		Scale: func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return scale
		},
	}, reg, "t")
	var rels []func()
	for i := 0; i < 4; i++ {
		r, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
		if shed != nil {
			t.Fatalf("acquire %d: %v", i, shed)
		}
		rels = append(rels, r)
	}
	for _, r := range rels {
		r()
	}
	mu.Lock()
	scale = 0.25 // squeeze to 1 slot
	mu.Unlock()
	r1, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{})
	if shed != nil {
		t.Fatal(shed)
	}
	defer r1()
	if _, shed := a.Acquire(context.Background(), PriorityHigh, time.Time{}); shed == nil {
		t.Fatal("second acquire should shed under a 0.25 squeeze of 4")
	}
	if limit := reg.Gauge("t_limit").Value(); limit != 1 {
		t.Fatalf("t_limit = %d, want 1", limit)
	}
}

func TestAdmissionNil(t *testing.T) {
	var a *Admission
	release, shed := a.Acquire(context.Background(), PriorityLow, time.Time{})
	if shed != nil {
		t.Fatal("nil admission must admit")
	}
	release()
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	NewRetryBudget(BudgetOptions{}, reg, "gplusapi")
	NewAdmission(AdmissionOptions{}, reg, "gplusd_admission")
	snap := reg.Snapshot()
	want := []string{
		"gplusapi_retry_budget_tokens_milli",
		"gplusd_admission_limit",
		"gplusd_admission_shed_total",
	}
	joined := strings.Join(snapKeys(snap), "\n")
	for _, name := range want {
		if !strings.Contains(joined, name) {
			t.Errorf("series %q not registered; have:\n%s", name, joined)
		}
	}
}

func snapKeys(snap obs.Snapshot) []string {
	var out []string
	for name := range snap.Counters {
		out = append(out, name)
	}
	for name := range snap.Gauges {
		out = append(out, name)
	}
	for name := range snap.Histograms {
		out = append(out, name)
	}
	return out
}
