package crawler

import (
	"strconv"
	"sync"
	"testing"

	"gplus/internal/profile"
)

func newTestScheduler(budget int) *scheduler {
	s := newScheduler(budget)
	s.tel = newTelemetry(nil, 0)
	return s
}

// drain claims every queued id without blocking semantics mattering
// (single goroutine, so next returns false once the queue empties).
func drain(t *testing.T, s *scheduler) []string {
	t.Helper()
	var ids []string
	for {
		id, ok := s.next()
		if !ok {
			return ids
		}
		ids = append(ids, id)
		s.finish()
	}
}

func TestOfferBatchDedupAndOrder(t *testing.T) {
	s := newTestScheduler(0)
	s.offerBatch([]string{"a", "b", "a", "c", "b"})
	s.offerBatch([]string{"c", "d"})
	got := drain(t, s)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("claimed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claimed %v, want FIFO order %v", got, want)
		}
	}
}

func TestOfferBatchRespectsBudget(t *testing.T) {
	s := newTestScheduler(3)
	s.offerBatch([]string{"a", "b", "c", "d", "e"})
	if got := drain(t, s); len(got) != 3 {
		t.Errorf("claimed %d ids under budget 3", len(got))
	}
	// Everything offered is discovered, even past the budget.
	if got := len(s.discovered()); got != 5 {
		t.Errorf("discovered %d, want 5", got)
	}
}

// TestPreloadHandBuiltResultDoesNotPanic is the regression for the
// negative-capacity panic: a Resume whose Profiles are absent from
// Discovered made len(Discovered)-len(Profiles) negative.
func TestPreloadHandBuiltResultDoesNotPanic(t *testing.T) {
	s := newTestScheduler(0)
	prev := &Result{
		Profiles: map[string]profile.Profile{
			"crawled-1": {}, "crawled-2": {}, "crawled-3": {},
		},
		Discovered: map[string]bool{"frontier-1": true},
	}
	s.preload(prev) // panicked before the fix

	// The frontier id is queued; crawled ids are seen but never handed out.
	got := drain(t, s)
	if len(got) != 1 || got[0] != "frontier-1" {
		t.Fatalf("claimed %v, want just frontier-1", got)
	}
	for _, id := range []string{"crawled-1", "crawled-2", "crawled-3"} {
		if !s.discovered()[id] {
			t.Errorf("profile id %s not implicitly discovered", id)
		}
	}
}

func TestPreloadCrawledIDsNeverRequeued(t *testing.T) {
	s := newTestScheduler(0)
	s.preload(&Result{
		Profiles:   map[string]profile.Profile{"done": {}},
		Discovered: map[string]bool{"done": true, "todo": true},
	})
	s.offerBatch([]string{"done", "todo", "new"})
	got := drain(t, s)
	if len(got) != 2 {
		t.Fatalf("claimed %v, want todo+new only", got)
	}
}

// TestSchedulerConcurrentClaimsExactlyOnce drives a synthetic BFS with
// many workers offering pages and claiming ids concurrently; under
// -race this exercises the batched offer path, the head-index queue,
// and the waiter-counted wakeups. Every id must be claimed exactly once
// and completion must be detected (all workers exit).
func TestSchedulerConcurrentClaimsExactlyOnce(t *testing.T) {
	const (
		workers = 8
		nodes   = 5000
	)
	s := newTestScheduler(0)
	var mu sync.Mutex
	claims := make(map[string]int, nodes)

	s.offerBatch([]string{"0"})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, ok := s.next()
				if !ok {
					return
				}
				mu.Lock()
				claims[id]++
				mu.Unlock()
				// Offer this node's "circle page": children in a binary
				// expansion capped at nodes.
				n, _ := strconv.Atoi(id)
				var page []string
				for _, c := range []int{2*n + 1, 2*n + 2} {
					if c < nodes {
						page = append(page, strconv.Itoa(c))
					}
				}
				s.offerBatch(page)
				s.finish()
			}
		}()
	}
	wg.Wait()

	if len(claims) != nodes {
		t.Fatalf("claimed %d distinct ids, want %d", len(claims), nodes)
	}
	for id, n := range claims {
		if n != 1 {
			t.Fatalf("id %s claimed %d times", id, n)
		}
	}
	if got := s.tel.frontier.Value(); got != 0 {
		t.Errorf("frontier gauge = %d after full drain, want 0", got)
	}
}

func TestSchedulerQueueCompaction(t *testing.T) {
	// Push the head index far enough to trigger the compaction path and
	// make sure no id is lost or reordered across it.
	s := newTestScheduler(0)
	const n = 5000
	batch := make([]string, n)
	for i := range batch {
		batch[i] = strconv.Itoa(i)
	}
	s.offerBatch(batch)
	for i := 0; i < n/2; i++ {
		id, ok := s.next()
		if !ok || id != strconv.Itoa(i) {
			t.Fatalf("claim %d = %q, %v", i, id, ok)
		}
		s.finish()
	}
	// Interleave fresh offers after the head has advanced.
	s.offerBatch([]string{"tail-1", "tail-2"})
	rest := drain(t, s)
	if len(rest) != n/2+2 {
		t.Fatalf("drained %d ids, want %d", len(rest), n/2+2)
	}
	if rest[0] != strconv.Itoa(n/2) || rest[len(rest)-1] != "tail-2" {
		t.Fatalf("order broken across compaction: first=%s last=%s", rest[0], rest[len(rest)-1])
	}
}
