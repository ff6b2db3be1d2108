package crawler

import (
	"net/http"
	"sort"
	"sync"
)

// scheduler is the shared BFS frontier: a FIFO queue with a visited set,
// a profile budget, and completion detection (queue drained while no
// worker is mid-crawl).
//
// The queue is the crawl's hottest shared structure — every discovered
// id passes through it — so the design minimizes time under the lock and
// wakeups: workers offer whole circle pages at once (offerBatch), the
// queue pops by head index instead of re-slicing, and waiters are woken
// individually (one Signal per available id) rather than broadcast on
// every event.
type scheduler struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []string
	// head indexes the next unclaimed id in queue; popping advances it
	// instead of re-slicing so the backing array is reused, and the
	// consumed prefix is compacted away once it dominates the slice.
	head     int
	seen     map[string]bool
	inflight int
	claimed  int
	waiting  int // workers blocked in next
	budget   int // 0 = unlimited
	// errorBudget closes the crawl once errorCount reaches it (0 =
	// unlimited).
	errorBudget int
	errorCount  int
	closed      bool
	// tel mirrors queue depth and discovered-set size into the frontier
	// and discovered gauges (no-ops when telemetry is off).
	tel *telemetry
	// jrnl receives a D record for every id the first time it is seen
	// (nil disables journaling). The scheduler is the natural owner: it
	// is the only place that knows which offered ids are new.
	jrnl *Journal
	// maxRequeues caps how many times one id may be returned to the
	// frontier by requeue before its overload counts as a permanent
	// failure (Crawl sets it; a bare scheduler requeues nothing);
	// requeues tracks the per-id count, allocated lazily on first use.
	maxRequeues int
	requeues    map[string]int
}

// queued returns the number of ids waiting to be claimed; the caller
// must hold s.mu.
func (s *scheduler) queued() int { return len(s.queue) - s.head }

// updateGauges publishes the live frontier depth and discovered count;
// the caller must hold s.mu.
func (s *scheduler) updateGauges() {
	s.tel.frontier.Set(int64(s.queued()))
	s.tel.discovered.Set(int64(len(s.seen)))
}

// recordErrors adds permanently-failed fetches toward the error budget,
// closing the crawl when it is exhausted.
func (s *scheduler) recordErrors(n int) {
	s.mu.Lock()
	s.errorCount += n
	exhausted := s.errorBudget > 0 && s.errorCount >= s.errorBudget
	if exhausted {
		s.closed = true
	}
	s.mu.Unlock()
	if exhausted {
		s.cond.Broadcast()
	}
}

// abort closes the crawl immediately — the path for fatal local
// failures (an edge sink that can no longer persist what the workers
// collect), where continuing to fetch would only widen the data loss.
func (s *scheduler) abort() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

func newScheduler(budget int) *scheduler {
	s := &scheduler{
		seen:   make(map[string]bool),
		budget: budget,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// preload seeds the scheduler from a previous crawl: already-crawled ids
// enter the visited set so they are never refetched, and the uncrawled
// frontier enters the queue in sorted order. Profile ids are treated as
// implicitly discovered — a hand-built or merged Result whose Profiles
// are absent from Discovered must resume cleanly, not panic on a
// negative frontier estimate.
func (s *scheduler) preload(prev *Result) {
	s.mu.Lock()
	for id := range prev.Profiles {
		s.seen[id] = true
	}
	frontier := make([]string, 0, max(0, len(prev.Discovered)-len(prev.Profiles)))
	for id := range prev.Discovered {
		if s.seen[id] {
			continue // crawled last session
		}
		s.seen[id] = true
		frontier = append(frontier, id)
	}
	sort.Strings(frontier)
	for _, id := range frontier {
		if s.budget > 0 && s.queued() >= s.budget {
			break
		}
		s.queue = append(s.queue, id)
	}
	s.updateGauges()
	s.mu.Unlock()
	s.cond.Broadcast()
}

// offerBatch enqueues every never-seen id in the batch under a single
// lock acquisition — one round-trip per circle page instead of one per
// edge — then wakes at most as many waiters as ids were added.
func (s *scheduler) offerBatch(ids []string) {
	if len(ids) == 0 {
		return
	}
	var fresh []string
	s.mu.Lock()
	added := 0
	for _, id := range ids {
		if s.seen[id] {
			continue
		}
		s.seen[id] = true
		if s.jrnl != nil {
			fresh = append(fresh, id)
		}
		if s.closed || (s.budget > 0 && s.claimed+s.queued() >= s.budget) {
			// Past the budget: the user is discovered but will never be
			// crawled — a frontier node of the partial crawl. It is
			// still journaled above: Discovered includes it.
			continue
		}
		s.queue = append(s.queue, id)
		added++
	}
	s.updateGauges()
	wake := min(added, s.waiting)
	s.mu.Unlock()
	for i := 0; i < wake; i++ {
		s.cond.Signal()
	}
	// Outside the frontier lock: a briefly backed-up journal channel
	// must not stall every other worker's offers.
	s.jrnl.discoveredIDs(fresh)
}

// pop removes and returns the head of the queue; the caller must hold
// s.mu and have checked queued() > 0.
func (s *scheduler) pop() string {
	id := s.queue[s.head]
	s.queue[s.head] = "" // release the string to the GC
	s.head++
	switch {
	case s.head == len(s.queue):
		s.queue = s.queue[:0]
		s.head = 0
	case s.head > 1024 && s.head > len(s.queue)/2:
		// The consumed prefix dominates; compact so appends reuse it.
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	return id
}

// next blocks until an id is available, the crawl is complete, or it is
// closed (abort, which Crawl also runs when its context ends). ok is
// false when the worker should exit.
func (s *scheduler) next() (id string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || (s.budget > 0 && s.claimed >= s.budget) {
			return "", false
		}
		if s.queued() > 0 {
			id = s.pop()
			s.claimed++
			s.inflight++
			s.updateGauges()
			return id, true
		}
		if s.inflight == 0 {
			// Nothing queued and nobody working: the crawl is complete.
			s.closed = true
			s.cond.Broadcast()
			return "", false
		}
		s.waiting++
		s.cond.Wait()
		s.waiting--
	}
}

// requeue returns a claimed-but-overloaded id to the tail of the
// frontier, undoing its claim so the profile budget is not charged for
// work that never happened. It reports false once the id has exhausted
// its requeue allowance (or the crawl is closing), at which point the
// caller must treat the failure as permanent. The worker still calls
// finish() for the abandoned claim as usual.
func (s *scheduler) requeue(id string) bool {
	s.mu.Lock()
	if s.closed || s.requeues[id] >= s.maxRequeues {
		s.mu.Unlock()
		return false
	}
	if s.requeues == nil {
		s.requeues = make(map[string]int)
	}
	s.requeues[id]++
	s.claimed--
	s.queue = append(s.queue, id)
	s.updateGauges()
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// requeueTotal sums every id's requeue count for end-of-crawl stats.
func (s *scheduler) requeueTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.requeues {
		n += c
	}
	return n
}

// finish marks one claimed crawl as done. Waiters are woken only when
// the last in-flight crawl retires — that is the only finish event that
// can change a waiter's fate (completion detection); broadcasting on
// every finish was a thundering herd per crawled profile.
func (s *scheduler) finish() {
	s.mu.Lock()
	s.inflight--
	idle := s.inflight == 0
	s.mu.Unlock()
	if idle {
		s.cond.Broadcast()
	}
}

// discovered snapshots the set of all ids ever seen.
func (s *scheduler) discovered() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.seen))
	for id := range s.seen {
		out[id] = true
	}
	return out
}

// newWorkerTransport builds a worker its own transport so concurrent
// workers do not share connection pools unfairly. Config.AttemptTimeout,
// applied through each attempt's context, is the one request deadline.
func newWorkerTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}
