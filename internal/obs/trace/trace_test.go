package trace

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gplus/internal/obs"
)

// newCounted builds a tracer from cfg with its counters in a fresh
// registry, and returns it with that registry and a reader of
// trace_traces_total.
func newCounted(cfg Config) (*Tracer, *obs.Registry, func() int64) {
	cfg.Metrics = obs.NewRegistry()
	completed := cfg.Metrics.Counter("trace_traces_total")
	return New(cfg), cfg.Metrics, completed.Value
}

func TestSpanTreeAndRecording(t *testing.T) {
	rec := NewRecorder(8, Rules{})
	tr, _, completed := newCounted(Config{Recorder: rec})

	ctx, root := tr.StartSpan(context.Background(), "crawl.profile")
	if root == nil {
		t.Fatal("root span is nil with SampleRate 1")
	}
	root.Annotate("id", "u42")
	cctx, child := tr.StartSpan(ctx, "fetch.profile")
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace id %s != root %s", child.TraceID, root.TraceID)
	}
	if child.Parent != root.SpanID {
		t.Fatalf("child parent %s != root span id %s", child.Parent, root.SpanID)
	}
	_, grand := tr.StartSpan(cctx, "attempt")
	if grand.Parent != child.SpanID {
		t.Fatalf("grandchild parent %s != child span id %s", grand.Parent, child.SpanID)
	}
	grand.Finish()
	child.Finish()

	if got := completed(); got != 0 {
		t.Fatalf("trace flushed with root still open (completed=%d)", got)
	}
	root.Finish()
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	got := traces[0]
	if len(got.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(got.Spans))
	}
	if got.RootID != root.SpanID || got.TraceID != root.TraceID {
		t.Fatalf("trace root/trace id mismatch: %+v", got)
	}
	if r := got.Root(); r == nil || r.Name != "crawl.profile" {
		t.Fatalf("Root() = %+v, want crawl.profile", r)
	}
	if len(got.Root().Attrs) != 1 || got.Root().Attrs[0].K != "id" {
		t.Fatalf("root annotations lost: %+v", got.Root().Attrs)
	}
}

func TestChildFinishingAfterRootStillFlushesOnce(t *testing.T) {
	rec := NewRecorder(8, Rules{})
	tr, _, completed := newCounted(Config{Recorder: rec})
	ctx, root := tr.StartSpan(context.Background(), "op")
	_, child := tr.StartSpan(ctx, "late")
	root.Finish()
	if completed() != 0 {
		t.Fatal("trace flushed before its last span finished")
	}
	child.Finish()
	child.Finish() // idempotent: must not double-count or re-flush
	if got := completed(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	// All span methods must no-op on nil.
	sp.Annotate("k", "v")
	sp.SetError(nil)
	sp.Fail("boom")
	sp.SetRetries(3)
	sp.Finish()
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("SpanFromContext on untouched ctx = %v", got)
	}
	ctx2, sp2 := tr.Join(ctx, http.Header{}, "srv")
	if sp2 != nil || ctx2 != ctx {
		t.Fatal("nil tracer Join must be a no-op")
	}
	var rec *Recorder
	if rec.Traces() != nil || rec.Exemplars() != nil {
		t.Fatal("nil recorder returned traces")
	}
	rec.record(&Trace{})
	Inject(nil, http.Header{})
}

func TestHeadSamplingIsPerTraceNotPerSpan(t *testing.T) {
	rec := NewRecorder(4096, Rules{})
	tr, _, completed := newCounted(Config{SampleRate: 0.5, Recorder: rec})
	sampled := 0
	const n = 500
	for i := 0; i < n; i++ {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := tr.StartSpan(ctx, "child")
		if (root == nil) != (child == nil) {
			t.Fatal("child sampling decision diverged from its root")
		}
		if root != nil {
			sampled++
			child.Finish()
			root.Finish()
		}
	}
	if sampled == 0 || sampled == n {
		t.Fatalf("sampled %d/%d traces at rate 0.5; head sampling is not probabilistic", sampled, n)
	}
	if got := int(completed()); got != sampled {
		t.Fatalf("recorder saw %d traces, %d were sampled", got, sampled)
	}
	// Every recorded trace must have exactly 2 spans: an unsampled root
	// must never leave an orphaned child trace behind.
	for _, trc := range rec.Traces() {
		if len(trc.Spans) != 2 {
			t.Fatalf("trace with %d spans; unsampled parent leaked a child root", len(trc.Spans))
		}
	}
}

func TestPropagationRoundTrip(t *testing.T) {
	client := New(Config{})
	server := New(Config{})

	_, csp := client.StartSpan(context.Background(), "api.profile")
	h := http.Header{}
	Inject(csp, h)
	if got := h.Get(Header); !strings.HasPrefix(got, "00-"+csp.TraceID+"-"+csp.SpanID) {
		t.Fatalf("injected header %q does not carry trace/span ids", got)
	}

	_, ssp := server.Join(context.Background(), h, "server.profile")
	if ssp == nil {
		t.Fatal("server did not join a sampled propagated trace")
	}
	if ssp.TraceID != csp.TraceID {
		t.Fatalf("server trace id %s != client %s", ssp.TraceID, csp.TraceID)
	}
	if ssp.Parent != csp.SpanID {
		t.Fatalf("server span parent %s != client span id %s", ssp.Parent, csp.SpanID)
	}
	if !ssp.Remote {
		t.Fatal("joined span not marked Remote")
	}
	ssp.Finish()
	csp.Finish()
}

func TestJoinRejectsMalformedHeaders(t *testing.T) {
	tr := New(Config{})
	for _, bad := range []string{
		"",
		"garbage",
		"00-short-abc-01",
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("0", 16) + "-01", // non-hex
		"00" + strings.Repeat("0", 51),                                          // right length, no dashes
	} {
		h := http.Header{}
		if bad != "" {
			h.Set(Header, bad)
		}
		_, sp := tr.Join(context.Background(), h, "srv")
		// Malformed/absent headers fall back to a locally rooted span
		// (rate 1 here), which must NOT be marked remote.
		if sp == nil {
			t.Fatalf("header %q: fallback span is nil at rate 1", bad)
		}
		if sp.Remote || sp.Parent != "" {
			t.Fatalf("header %q: joined as remote instead of falling back", bad)
		}
		sp.Finish()
	}
}

func TestJoinHonorsUnsampledFlag(t *testing.T) {
	tr := New(Config{})
	h := http.Header{}
	h.Set(Header, "00-"+strings.Repeat("a", 32)+"-"+strings.Repeat("b", 16)+"-00")
	ctx, sp := tr.Join(context.Background(), h, "srv")
	if sp != nil {
		t.Fatal("joined a trace the client chose not to sample")
	}
	// Descendants must inherit the no-sample decision, not start fresh roots.
	_, child := tr.StartSpan(ctx, "render")
	if child != nil {
		t.Fatal("descendant of unsampled join started a new root")
	}
}

func TestExemplarRules(t *testing.T) {
	rec := NewRecorder(2, Rules{SlowerThan: 10 * time.Millisecond, Errors: true, MinRetries: 2})
	tr := New(Config{Recorder: rec})

	// Errored trace.
	_, sp := tr.StartSpan(context.Background(), "bad")
	sp.Fail("boom")
	sp.Finish()
	// Retry-heavy trace.
	_, sp = tr.StartSpan(context.Background(), "retried")
	sp.SetRetries(5)
	sp.Finish()
	// Boring traces — enough of them to evict everything from the ring.
	for i := 0; i < 5; i++ {
		_, sp = tr.StartSpan(context.Background(), "fine")
		sp.Finish()
	}

	ex := rec.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("retained %d exemplars, want 2", len(ex))
	}
	if ex[0].Exemplar != "error" {
		t.Fatalf("first exemplar tagged %q, want error", ex[0].Exemplar)
	}
	if ex[1].Exemplar != "retries" {
		t.Fatalf("second exemplar tagged %q, want retries", ex[1].Exemplar)
	}
	// The ring only holds 2, but the exemplars survived the churn.
	found := map[string]bool{}
	for _, trc := range rec.Traces() {
		found[trc.Spans[0].Name] = true
	}
	if !found["bad"] || !found["retried"] {
		t.Fatalf("exemplars evicted by ring churn: %v", found)
	}
}

func TestExemplarLatencyRule(t *testing.T) {
	rec := NewRecorder(2, Rules{SlowerThan: time.Nanosecond})
	tr := New(Config{Recorder: rec})
	_, sp := tr.StartSpan(context.Background(), "slow")
	time.Sleep(time.Millisecond)
	sp.Finish()
	ex := rec.Exemplars()
	if len(ex) != 1 || ex[0].Exemplar != "latency" {
		t.Fatalf("latency exemplar not retained: %+v", ex)
	}
}

func TestExemplarBoundAndSink(t *testing.T) {
	rec := NewRecorder(2, Rules{Errors: true})
	var mu sync.Mutex
	var sunk []string
	rec.SetSink(func(tr *Trace) {
		mu.Lock()
		sunk = append(sunk, tr.TraceID)
		mu.Unlock()
	})
	tr, reg, _ := newCounted(Config{Recorder: rec})
	for i := 0; i < MaxExemplars+2; i++ {
		_, sp := tr.StartSpan(context.Background(), "bad")
		sp.Fail("x")
		sp.Finish()
	}
	if n := len(rec.Exemplars()); n != MaxExemplars {
		t.Fatalf("retained %d exemplars past the bound of %d", n, MaxExemplars)
	}
	if got := reg.Counter("trace_exemplars_dropped_total").Value(); got != 2 {
		t.Fatalf("trace_exemplars_dropped_total = %d, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sunk) != MaxExemplars {
		t.Fatalf("sink saw %d exemplars, want %d (dropped ones must not reach it)", len(sunk), MaxExemplars)
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(4, Rules{Errors: true})
	tr := New(Config{Recorder: rec, Metrics: reg})
	ctx, root := tr.StartSpan(context.Background(), "a")
	_, child := tr.StartSpan(ctx, "b")
	child.Fail("x")
	child.Finish()
	root.Finish()
	snap := reg.Snapshot()
	if got := snap.Counters["trace_spans_total"]; got != 2 {
		t.Fatalf("trace_spans_total = %d, want 2", got)
	}
	if got := snap.Counters["trace_traces_total"]; got != 1 {
		t.Fatalf("trace_traces_total = %d, want 1", got)
	}
	if got := snap.Counters[`trace_exemplars_total{rule="error"}`]; got != 1 {
		t.Fatalf(`trace_exemplars_total{rule="error"} = %d, want 1`, got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	rec := NewRecorder(64, Rules{})
	tr, _, completed := newCounted(Config{Recorder: rec})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartSpan(context.Background(), "root")
				var kids sync.WaitGroup
				for k := 0; k < 3; k++ {
					kids.Add(1)
					go func() {
						defer kids.Done()
						_, sp := tr.StartSpan(ctx, "kid")
						sp.Annotate("k", "v")
						sp.Finish()
					}()
				}
				kids.Wait()
				root.Finish()
			}
		}()
	}
	wg.Wait()
	if got := completed(); got != workers*50 {
		t.Fatalf("completed = %d, want %d", got, workers*50)
	}
	for _, trc := range rec.Traces() {
		if len(trc.Spans) != 4 {
			t.Fatalf("trace completed with %d spans, want 4", len(trc.Spans))
		}
	}
}
