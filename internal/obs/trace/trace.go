// Package trace is the reproduction's dependency-free request tracer:
// Dapper-style spans with parent/child linkage, key/value annotations,
// and error status, collected into whole-request traces by a bounded
// flight recorder (see Recorder) and joined across the crawler/gplusd
// process boundary by an X-Gplus-Trace header (see Inject and Join).
//
// The paper's crawl ran 46 days against a rate-limited, flaky service;
// aggregate histograms say a crawl is slow, but only a per-request span
// tree says *where* one profile's fetch→parse→schedule pipeline spent
// its wall-clock, or how many retry attempts one request burned. The
// tracer exists to answer exactly those questions.
//
// Like the obs metrics layer, everything is nil-safe: a nil *Tracer
// hands out nil spans and every Span method on nil is a no-op, so
// instrumented code pays one pointer check when tracing is off — no
// allocation, no atomic, no lock (benchmarked in bench_test.go).
//
// Sampling is head-based: the decision is made once when a trace root
// starts, and descendants (including the remote gplusd side, via the
// propagated flags byte) inherit it. Exemplar rules in the Recorder
// additionally retain every sampled trace that was slow, errored, or
// retried hard, so the interesting tail survives the ring buffer.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"

	"gplus/internal/obs"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one timed operation inside a trace. Fields are exported for
// JSON serialization (the /debug/traces JSONL dump that gplusanalyze
// reads back); instrumented code mutates spans only through the nil-safe
// methods.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the id of the parent span — possibly a span in another
	// process when this span was joined from a propagated header
	// (Remote true). Empty for locally started roots.
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Remote bool   `json:"remote,omitempty"`
	// Start carries Go's monotonic clock reading while the span is live,
	// so Dur is immune to wall-clock steps; serialization keeps the wall
	// time for display.
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Attrs   []Attr        `json:"attrs,omitempty"`
	Err     string        `json:"err,omitempty"`
	Retries int           `json:"retries,omitempty"`

	mu   sync.Mutex
	td   *traceData
	done bool
}

// Annotate attaches a key/value annotation. No-op on a nil or finished
// span.
func (s *Span) Annotate(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.Attrs = append(s.Attrs, Attr{K: k, V: v})
	}
	s.mu.Unlock()
}

// SetError marks the span failed. SetError(nil) is a no-op, so call
// sites can pass their error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.Fail(err.Error())
}

// Fail marks the span failed with a message.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done && s.Err == "" {
		s.Err = msg
	}
	s.mu.Unlock()
}

// SetRetries records how many retry attempts the operation burned beyond
// its first try; the recorder's MinRetries exemplar rule keys off it.
func (s *Span) SetRetries(n int) {
	if s == nil || n < 0 {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.Retries = n
	}
	s.mu.Unlock()
}

// Finish seals the span with its duration and, once every span of its
// trace has finished, hands the completed trace to the flight recorder.
// Finish is idempotent and nil-safe.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.Dur = time.Since(s.Start)
	td := s.td
	s.mu.Unlock()
	if td != nil {
		td.finish(s)
	}
}

// traceData is the shared collection point of one in-flight trace: the
// set of finished spans plus a refcount of still-open ones. When the
// count reaches zero the trace is complete and goes to the recorder.
type traceData struct {
	rec  *Recorder
	root *Span

	mu    sync.Mutex
	open  int
	spans []*Span
}

func (td *traceData) startSpan(sp *Span) {
	td.mu.Lock()
	td.open++
	td.mu.Unlock()
}

func (td *traceData) finish(sp *Span) {
	td.mu.Lock()
	td.spans = append(td.spans, sp)
	td.open--
	flush := td.open == 0
	var spans []*Span
	if flush {
		spans = td.spans
	}
	td.mu.Unlock()
	if !flush {
		return
	}
	tr := &Trace{
		TraceID: td.root.TraceID,
		RootID:  td.root.SpanID,
		Start:   td.root.Start,
		Dur:     td.root.Dur,
		Spans:   spans,
	}
	td.rec.record(tr)
}

// Tracer creates spans. A nil *Tracer is fully functional as "tracing
// off": StartSpan and Join return nil spans without allocating.
type Tracer struct {
	rec   *Recorder
	rate  float64
	spans *obs.Counter
}

// Config configures New.
type Config struct {
	// SampleRate is the head-based probability in (0, 1] that a new
	// trace root is recorded. Zero means 1 (record everything); to
	// disable tracing entirely, use a nil *Tracer.
	SampleRate float64
	// Recorder receives completed traces. Nil builds a default recorder
	// (64-trace ring, no exemplar rules).
	Recorder *Recorder
	// Metrics receives tracer telemetry when non-nil:
	// trace_spans_total, trace_traces_total,
	// trace_exemplars_total{rule=...}, trace_exemplars_dropped_total.
	Metrics *obs.Registry
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.Recorder == nil {
		cfg.Recorder = NewRecorder(0, Rules{})
	}
	cfg.Recorder.instrument(cfg.Metrics)
	cfg.Metrics.Help("trace_spans_total", "Spans started by the tracer.")
	cfg.Metrics.Help("trace_traces_total", "Traces completed and recorded.")
	return &Tracer{
		rec:   cfg.Recorder,
		rate:  cfg.SampleRate,
		spans: cfg.Metrics.Counter("trace_spans_total"),
	}
}

// Recorder returns the tracer's flight recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

type spanKey struct{}

// notSampled is the shared sentinel stored in a context when the head
// sampling decision was "no": descendants see it and return nil spans
// instead of re-rolling the dice (which would create orphan roots).
var notSampled = &Span{}

// spanValue returns the raw context span, including the sentinel.
func spanValue(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SpanFromContext returns the active span, or nil if the context carries
// none (or carries an unsampled trace).
func SpanFromContext(ctx context.Context) *Span {
	sp := spanValue(ctx)
	if sp == notSampled {
		return nil
	}
	return sp
}

// StartSpan starts a span: a child of the context's span when one is
// present, otherwise a new trace root subject to the head sampling
// decision. The returned context carries the new span (or the trace's
// not-sampled marker). Both returns are safe when the tracer is nil or
// the trace is unsampled: the span is nil and every method on it no-ops.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := spanValue(ctx); parent != nil {
		if parent == notSampled {
			return ctx, nil
		}
		sp := t.newSpan(name, parent.TraceID, parent.SpanID, false, parent.td)
		return context.WithValue(ctx, spanKey{}, sp), sp
	}
	if t.rate < 1 && rand.Float64() >= t.rate {
		return context.WithValue(ctx, spanKey{}, notSampled), nil
	}
	sp := t.newSpan(name, newTraceID(), "", false, nil)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// newSpan creates a live span; td nil means this span roots a new local
// trace collection (fresh root or joined remote parent).
func (t *Tracer) newSpan(name, traceID, parent string, remote bool, td *traceData) *Span {
	sp := &Span{
		TraceID: traceID,
		SpanID:  newSpanID(),
		Parent:  parent,
		Name:    name,
		Remote:  remote,
		Start:   time.Now(),
	}
	if td == nil {
		td = &traceData{rec: t.rec, root: sp}
	}
	sp.td = td
	td.startSpan(sp)
	t.spans.Inc()
	return sp
}

func newTraceID() string {
	var b [16]byte
	putUint64(b[:8], rand.Uint64())
	putUint64(b[8:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

func newSpanID() string {
	var b [8]byte
	putUint64(b[:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

func putUint64(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (56 - 8*i))
	}
}
