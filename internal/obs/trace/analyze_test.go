package trace

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// span builds a finished span literal for analysis tests.
func span(traceID, spanID, parent, name string, start time.Time, dur time.Duration) *Span {
	return &Span{
		TraceID: traceID, SpanID: spanID, Parent: parent, Name: name,
		Start: start, Dur: dur,
	}
}

func TestReadTracesRoundTrip(t *testing.T) {
	rec := NewRecorder(8, Rules{Errors: true})
	tr := New(Config{Recorder: rec})
	ctx, root := tr.StartSpan(context.Background(), "crawl.profile")
	root.Annotate("id", "u1")
	_, child := tr.StartSpan(ctx, "fetch.profile")
	child.Fail("boom")
	child.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, torn, err := ReadTraces(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("torn=%d err=%v", torn, err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d traces, want 1", len(got))
	}
	if got[0].TraceID != root.TraceID || len(got[0].Spans) != 2 {
		t.Fatalf("round trip mangled the trace: %+v", got[0])
	}
	if got[0].Exemplar != "error" {
		t.Fatalf("exemplar tag lost in round trip: %q", got[0].Exemplar)
	}
	if got[0].Errors() != 1 {
		t.Fatalf("error status lost in round trip")
	}
}

func TestReadTracesRejectsGarbage(t *testing.T) {
	if _, _, err := ReadTraces(strings.NewReader("{\"trace_id\":\"a\"}\nnot json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	// An unterminated tail is a torn append, not garbage: it is dropped
	// and counted, and every complete trace before it still loads.
	got, torn, err := ReadTraces(strings.NewReader("{\"trace_id\":\"a\"}\n{\"trace_id\":\"b"))
	if err != nil || torn != 1 || len(got) != 1 || got[0].TraceID != "a" {
		t.Fatalf("torn tail: %d traces, torn=%d, err=%v; want the 1 complete one and torn=1", len(got), torn, err)
	}
}

func TestMergeByTraceID(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// Client half: root -> attempt.
	client := &Trace{
		TraceID: "T", RootID: "c1", Start: t0, Dur: 100 * time.Millisecond,
		Exemplar: "latency",
		Spans: []*Span{
			span("T", "c1", "", "api.profile", t0, 100*time.Millisecond),
			span("T", "c2", "c1", "attempt", t0, 90*time.Millisecond),
		},
	}
	// Server half: its root's parent is the client attempt span.
	server := &Trace{
		TraceID: "T", RootID: "s1", Start: t0.Add(5 * time.Millisecond), Dur: 80 * time.Millisecond,
		Exemplar: "error",
		Spans: []*Span{
			span("T", "s1", "c2", "server.profile", t0.Add(5*time.Millisecond), 80*time.Millisecond),
		},
	}
	other := &Trace{TraceID: "U", RootID: "x", Start: t0, Spans: []*Span{span("U", "x", "", "op", t0, time.Millisecond)}}

	merged := MergeByTraceID([]*Trace{server, client, other})
	if len(merged) != 2 {
		t.Fatalf("merged to %d traces, want 2", len(merged))
	}
	var joined *Trace
	for _, tr := range merged {
		if tr.TraceID == "T" {
			joined = tr
		}
	}
	if joined == nil || len(joined.Spans) != 3 {
		t.Fatalf("halves did not merge: %+v", joined)
	}
	// Earliest root wins the trace-level fields.
	if joined.RootID != "c1" || joined.Dur != 100*time.Millisecond {
		t.Fatalf("merge picked wrong root: %+v", joined)
	}
	if joined.Exemplar != "latency,error" {
		t.Fatalf("exemplar tags = %q, want the union in rule order latency,error", joined.Exemplar)
	}

	// Halves that share a rule carry it once: the union is by rule name,
	// so Analyze counts one retries exemplar for one trace.
	client.Exemplar, server.Exemplar = "latency,retries", "error,retries"
	merged = MergeByTraceID([]*Trace{client, server})
	if got := merged[0].Exemplar; got != "latency,error,retries" {
		t.Fatalf("exemplar tags = %q, want latency,error,retries", got)
	}
	a := Analyze([]*Trace{client, server}, 1)
	if want := map[string]int{"latency": 1, "error": 1, "retries": 1}; !reflect.DeepEqual(a.Exemplars, want) {
		t.Fatalf("Analyze counted exemplar rules %v, want %v", a.Exemplars, want)
	}
}

// TestMergeDeduplicatesSpans pins the overlapping-dump case: a trace
// shows up in both a run directory's traces.jsonl and a /debug/traces
// dump, and analyzing the two files together must not double its spans
// (or its attempt counts, which would inflate retry amplification).
func TestMergeDeduplicatesSpans(t *testing.T) {
	t0 := time.Unix(1000, 0)
	mk := func() *Trace {
		return &Trace{
			TraceID: "T", RootID: "r", Start: t0, Dur: 10 * time.Millisecond,
			Exemplar: "retries",
			Spans: []*Span{
				span("T", "r", "", "api.profile", t0, 10*time.Millisecond),
				span("T", "a1", "r", "attempt", t0, time.Millisecond),
				span("T", "a2", "r", "attempt", t0.Add(time.Millisecond), time.Millisecond),
			},
		}
	}
	merged := MergeByTraceID([]*Trace{mk(), mk()})
	if len(merged) != 1 || len(merged[0].Spans) != 3 {
		t.Fatalf("duplicate dump halves not deduplicated: %+v", merged)
	}
	if merged[0].Exemplar != "retries" {
		t.Fatalf("exemplar tag duplicated: %q", merged[0].Exemplar)
	}
	a := Analyze([]*Trace{mk(), mk()}, 10)
	if a.Spans != 3 {
		t.Fatalf("analysis counts %d spans, want 3", a.Spans)
	}
	if len(a.Retries) != 1 || a.Retries[0].Attempts != 2 || a.Retries[0].Amplification != 2.0 {
		t.Fatalf("duplicated spans inflated retry stats: %+v", a.Retries)
	}
}

func TestCriticalPath(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// root(100ms) -> slow child(80ms, bounds the finish) -> grandchild;
	// a sibling running concurrently inside slow's window (20-30ms) is
	// already covered and must not appear on the path.
	tr := &Trace{
		TraceID: "T", RootID: "r", Start: t0, Dur: 100 * time.Millisecond,
		Spans: []*Span{
			span("T", "r", "", "root", t0, 100*time.Millisecond),
			span("T", "a", "r", "overlapped", t0.Add(20*time.Millisecond), 10*time.Millisecond),
			span("T", "b", "r", "slow", t0.Add(15*time.Millisecond), 80*time.Millisecond),
			span("T", "c", "b", "leaf", t0.Add(20*time.Millisecond), 30*time.Millisecond),
		},
	}
	path := CriticalPath(tr)
	names := make([]string, len(path))
	var total time.Duration
	for i, st := range path {
		names[i] = st.Span.Name
		total += st.Self
	}
	if strings.Join(names, ">") != "root>slow>leaf" {
		t.Fatalf("critical path = %v, want root>slow>leaf", names)
	}
	// Self times sum to the root duration.
	if total != tr.Dur {
		t.Fatalf("path self times sum to %v, want root duration %v", total, tr.Dur)
	}
	if path[0].Self != 20*time.Millisecond || path[1].Self != 50*time.Millisecond || path[2].Self != 30*time.Millisecond {
		t.Fatalf("self times = %v/%v/%v", path[0].Self, path[1].Self, path[2].Self)
	}
}

// TestCriticalPathSequentialChildren is the crawl.profile shape: stages
// that run one after another must ALL land on the path with their own
// self time, instead of the last-finishing (tiny) stage hiding the rest
// under the root's self.
func TestCriticalPathSequentialChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tr := &Trace{
		TraceID: "T", RootID: "r", Start: t0, Dur: 100 * time.Millisecond,
		Spans: []*Span{
			span("T", "r", "", "root", t0, 100*time.Millisecond),
			span("T", "a", "r", "fetch", t0, 40*time.Millisecond),
			span("T", "b", "r", "journal", t0.Add(50*time.Millisecond), 40*time.Millisecond),
		},
	}
	self := map[string]time.Duration{}
	var total time.Duration
	for _, st := range CriticalPath(tr) {
		self[st.Span.Name] = st.Self
		total += st.Self
	}
	if total != tr.Dur {
		t.Fatalf("path self times sum to %v, want %v", total, tr.Dur)
	}
	if self["fetch"] != 40*time.Millisecond || self["journal"] != 40*time.Millisecond {
		t.Fatalf("sequential children self times = %v, want 40ms each", self)
	}
	if self["root"] != 20*time.Millisecond {
		t.Fatalf("root self = %v, want the 20ms of uncovered gaps", self["root"])
	}
}

func TestAnalyzeRetryAmplification(t *testing.T) {
	t0 := time.Unix(1000, 0)
	mk := func(id string, attempts int) *Trace {
		tr := &Trace{TraceID: id, RootID: id + "r", Start: t0, Dur: time.Millisecond,
			Spans: []*Span{span(id, id+"r", "", "api.profile", t0, time.Millisecond)}}
		for i := 0; i < attempts; i++ {
			tr.Spans = append(tr.Spans, span(id, id+"a"+string(rune('0'+i)), id+"r", "attempt", t0, time.Microsecond))
		}
		return tr
	}
	a := Analyze([]*Trace{mk("A", 1), mk("B", 3)}, 10)
	if len(a.Retries) != 1 {
		t.Fatalf("retry stats = %+v, want one op", a.Retries)
	}
	rs := a.Retries[0]
	if rs.Name != "api.profile" || rs.Ops != 2 || rs.Attempts != 4 {
		t.Fatalf("retry stat = %+v", rs)
	}
	if rs.Amplification != 2.0 {
		t.Fatalf("amplification = %v, want 2.0", rs.Amplification)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	rec := NewRecorder(64, Rules{Errors: true})
	tr := New(Config{Recorder: rec})
	for i := 0; i < 5; i++ {
		ctx, root := tr.StartSpan(context.Background(), "crawl.profile")
		_, f := tr.StartSpan(ctx, "fetch.profile")
		if i == 0 {
			f.Fail("boom")
		}
		f.Finish()
		root.Finish()
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	traces, _, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(traces, 3)
	if a.Traces != 5 || a.Spans != 10 || a.Errors != 1 {
		t.Fatalf("analysis counts = %d traces %d spans %d errors", a.Traces, a.Spans, a.Errors)
	}
	if a.Exemplars["error"] != 1 {
		t.Fatalf("exemplar counts = %v", a.Exemplars)
	}
	if len(a.Slowest) != 3 {
		t.Fatalf("slowest list has %d entries, want topK=3", len(a.Slowest))
	}
	var out bytes.Buffer
	if err := a.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical-path breakdown", "crawl.profile", "top 3 slowest"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestWriteSpanTreeShowsJoinedRemoteSpans(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tr := &Trace{
		TraceID: "T", RootID: "r", Start: t0, Dur: time.Millisecond,
		Spans: []*Span{
			span("T", "r", "", "api.profile", t0, time.Millisecond),
			func() *Span {
				s := span("T", "s", "r", "server.profile", t0, time.Millisecond/2)
				s.Remote = true
				s.Attrs = []Attr{{K: "client", V: "machine-00"}}
				return s
			}(),
		},
	}
	var out bytes.Buffer
	if err := WriteSpanTree(&out, tr); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "(joined)") {
		t.Fatalf("remote span not marked joined:\n%s", got)
	}
	if !strings.Contains(got, "client=machine-00") {
		t.Fatalf("annotations missing:\n%s", got)
	}
	// The server span must be indented under its client parent.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "    ") {
		t.Fatalf("server span not nested under client span:\n%s", got)
	}
}
