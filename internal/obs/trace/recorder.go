package trace

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gplus/internal/obs"
)

// Trace is one completed request: the unit the flight recorder retains
// and the JSONL dump serializes (one Trace per line).
type Trace struct {
	TraceID string    `json:"trace_id"`
	RootID  string    `json:"root_id"`
	Start   time.Time `json:"start"`
	// Dur is the local root span's duration.
	Dur time.Duration `json:"dur_ns"`
	// Exemplar names the rules that retained this trace beyond the ring
	// ("latency", "error", "retries", comma-joined), empty for ring-only
	// residents.
	Exemplar string  `json:"exemplar,omitempty"`
	Spans    []*Span `json:"spans"`
}

// Root returns the trace's local root span (nil if the dump is
// malformed).
func (tr *Trace) Root() *Span {
	for _, sp := range tr.Spans {
		if sp.SpanID == tr.RootID {
			return sp
		}
	}
	return nil
}

// Errors counts failed spans.
func (tr *Trace) Errors() int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Err != "" {
			n++
		}
	}
	return n
}

// MaxRetries returns the largest retry count recorded on any span.
func (tr *Trace) MaxRetries() int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Retries > n {
			n = sp.Retries
		}
	}
	return n
}

// Rules are the exemplar retention rules: a completed trace matching any
// armed rule is kept outside the ring buffer, so the interesting tail
// (slow, failed, or retry-heavy requests) survives arbitrarily long
// crawls.
type Rules struct {
	// SlowerThan retains traces whose root span exceeds this duration
	// (0 disarms the rule).
	SlowerThan time.Duration
	// Errors retains traces containing at least one failed span.
	Errors bool
	// MinRetries retains traces where some span burned at least this
	// many retries (0 disarms the rule).
	MinRetries int
}

// ruleNames are the exemplar rules in the order match names them.
var ruleNames = [...]string{"latency", "error", "retries"}

// match names the rules the trace trips, comma-joined ("" = none).
func (r Rules) match(tr *Trace) string {
	tripped := [len(ruleNames)]bool{
		r.SlowerThan > 0 && tr.Dur > r.SlowerThan,
		r.Errors && tr.Errors() > 0,
		r.MinRetries > 0 && tr.MaxRetries() >= r.MinRetries,
	}
	out := ""
	for i, name := range ruleNames {
		if tripped[i] {
			if out != "" {
				out += ","
			}
			out += name
		}
	}
	return out
}

// unionRules merges two comma-joined rule sets: each rule once, in
// match's order (a name match does not know goes last).
func unionRules(a, b string) string {
	var names []string
	for _, name := range strings.Split(a+","+b, ",") {
		if name != "" && !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	rank := func(name string) int {
		if i := slices.Index(ruleNames[:], name); i >= 0 {
			return i
		}
		return len(ruleNames)
	}
	slices.SortStableFunc(names, func(x, y string) int { return rank(x) - rank(y) })
	return strings.Join(names, ",")
}

// MaxExemplars bounds exemplar retention; beyond it, new exemplars are
// counted in trace_exemplars_dropped_total rather than growing without
// limit over a 46-day crawl.
const MaxExemplars = 4096

// Recorder is the bounded flight recorder: a ring of the last N
// completed traces plus every trace matching the exemplar rules (up to
// MaxExemplars). It is safe for concurrent use and serves /debug/traces
// (see ServeHTTP in handler.go).
type Recorder struct {
	rules Rules

	mu        sync.Mutex
	ring      []*Trace // fixed-capacity circular buffer
	next      int      // ring write cursor
	exemplars []*Trace
	sink      func(*Trace)

	cTraces  *obs.Counter
	cDropped *obs.Counter
	reg      *obs.Registry
}

// NewRecorder builds a flight recorder retaining the last ringSize
// completed traces (0 means 64) plus rule-matching exemplars.
func NewRecorder(ringSize int, rules Rules) *Recorder {
	if ringSize <= 0 {
		ringSize = 64
	}
	return &Recorder{
		rules: rules,
		ring:  make([]*Trace, ringSize),
	}
}

// SetSink installs a callback invoked (outside the recorder lock) with
// every exemplar trace as it completes — a run directory's traces.jsonl is
// streamed through it.
func (r *Recorder) SetSink(fn func(*Trace)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

func (r *Recorder) instrument(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Help("trace_exemplars_total", "Exemplar traces retained, by rule set.")
	reg.Help("trace_exemplars_dropped_total", "Exemplar traces dropped past the retention bound.")
	r.mu.Lock()
	r.reg = reg
	r.cTraces = reg.Counter("trace_traces_total")
	r.cDropped = reg.Counter("trace_exemplars_dropped_total")
	r.mu.Unlock()
}

// record files one completed trace.
func (r *Recorder) record(tr *Trace) {
	if r == nil {
		return
	}
	rule := r.rules.match(tr)
	tr.Exemplar = rule
	var sink func(*Trace)
	r.mu.Lock()
	r.cTraces.Inc()
	r.ring[r.next] = tr
	r.next = (r.next + 1) % len(r.ring)
	if rule != "" {
		if len(r.exemplars) < MaxExemplars {
			r.exemplars = append(r.exemplars, tr)
			r.reg.Counter("trace_exemplars_total", obs.Label{Key: obs.KeyRule, Value: rule}).Inc()
			sink = r.sink
		} else {
			r.cDropped.Inc()
		}
	}
	r.mu.Unlock()
	if sink != nil {
		sink(tr)
	}
}

// Completed returns the ring's retained traces, oldest first.
func (r *Recorder) Completed() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		if tr := r.ring[(r.next+i)%len(r.ring)]; tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Exemplars returns the retained exemplar traces in completion order.
func (r *Recorder) Exemplars() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.exemplars...)
}

// Traces returns every retained trace — exemplars plus ring residents —
// deduplicated (a trace can live in both), ordered by start time.
func (r *Recorder) Traces() []*Trace {
	seen := make(map[*Trace]bool)
	var out []*Trace
	for _, tr := range append(r.Exemplars(), r.Completed()...) {
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// WriteJSONL dumps every retained trace as one JSON object per line —
// the format gplusanalyze traces (and ReadTraces) consumes.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, tr := range r.Traces() {
		if err := enc.Encode(tr); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceJSONL serializes one trace as a single JSONL line.
func WriteTraceJSONL(w io.Writer, tr *Trace) error {
	return json.NewEncoder(w).Encode(tr)
}
