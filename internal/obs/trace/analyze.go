package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gplus/internal/durable"
)

// This file is the offline half of the tracer: it reads JSONL dumps
// (from /debug/traces?format=jsonl or an -obs-dir run directory) back into
// Traces and computes the reports `gplusanalyze traces` prints —
// critical-path breakdown, retry amplification, and the slowest
// requests with their span trees. Client and server dumps of the same
// crawl can be concatenated: MergeByTraceID stitches spans that share a
// propagated trace id into one tree, so a gplusd server span appears
// under the crawler attempt span that caused it.

// ReadTraces parses a JSONL trace dump (blank lines ignored). A dump cut
// mid-record — an exemplar stream whose writer was killed — loads up to
// its last complete trace, and torn counts the unterminated final record
// that was dropped (durable.ReadLog's torn-tail rule).
func ReadTraces(r io.Reader) (out []*Trace, torn int, err error) {
	torn, err = durable.ReadLog(r, func(rec []byte) error {
		if len(rec) == 0 {
			return nil
		}
		tr := &Trace{}
		if err := json.Unmarshal(rec, tr); err != nil {
			return fmt.Errorf("trace: bad JSONL line %d: %w", len(out)+1, err)
		}
		out = append(out, tr)
		return nil
	})
	return out, torn, err
}

// MergeByTraceID combines traces sharing a trace id — the client-side
// and server-side halves of one propagated request — into a single
// trace whose span set is the union, keyed by span id. The dedup matters
// beyond the client/server stitch: a run directory analyzed together
// with a /debug/traces dump of the same run holds the same trace twice,
// and `gplusanalyze traces` must not double its spans. The root is the
// earliest local root; exemplar tags are unioned.
func MergeByTraceID(traces []*Trace) []*Trace {
	byID := make(map[string]*Trace)
	seen := make(map[string]map[string]bool)
	var order []string
	add := func(got *Trace, spans []*Span) {
		ids := seen[got.TraceID]
		for _, sp := range spans {
			if ids[sp.SpanID] {
				continue
			}
			ids[sp.SpanID] = true
			got.Spans = append(got.Spans, sp)
		}
	}
	for _, tr := range traces {
		got, ok := byID[tr.TraceID]
		if !ok {
			cp := *tr
			cp.Spans = nil
			byID[tr.TraceID] = &cp
			seen[tr.TraceID] = make(map[string]bool, len(tr.Spans))
			order = append(order, tr.TraceID)
			add(&cp, tr.Spans)
			continue
		}
		add(got, tr.Spans)
		if tr.Start.Before(got.Start) {
			got.Start, got.RootID, got.Dur = tr.Start, tr.RootID, tr.Dur
		}
		got.Exemplar = unionRules(got.Exemplar, tr.Exemplar)
	}
	out := make([]*Trace, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id])
	}
	return out
}

// PathStep is one span on a trace's critical path with the wall-clock it
// is personally responsible for (its duration minus the part covered by
// the next step).
type PathStep struct {
	Span *Span
	Self time.Duration
}

// CriticalPath walks each span backwards from its finish time,
// repeatedly descending into the child whose finish bounded the cursor —
// so a span whose children ran sequentially (fetch, then N circle pages,
// then the journal write) puts every bounding child on the path, not
// just the last one to finish. Children running concurrently with an
// on-path sibling are skipped: their time is already covered. Each
// step's Self is the part of its duration no on-path child covers, so
// the steps sum to the root duration.
func CriticalPath(tr *Trace) []PathStep {
	root := tr.Root()
	if root == nil {
		return nil
	}
	children := childIndex(tr)
	var path []PathStep
	var walk func(sp *Span)
	walk = func(sp *Span) {
		idx := len(path)
		path = append(path, PathStep{Span: sp})
		self := sp.Dur
		cursor := sp.Start.Add(sp.Dur)
		for {
			var next *Span
			var nextEnd time.Time
			for _, k := range children[sp.SpanID] {
				if end := k.Start.Add(k.Dur); !end.After(cursor) && (next == nil || end.After(nextEnd)) {
					next, nextEnd = k, end
				}
			}
			if next == nil {
				break
			}
			covered := next.Start
			if covered.Before(sp.Start) {
				covered = sp.Start
			}
			self -= nextEnd.Sub(covered)
			walk(next)
			cursor = next.Start
			if !cursor.After(sp.Start) {
				break
			}
		}
		if self < 0 {
			self = 0
		}
		path[idx].Self = self
	}
	walk(root)
	return path
}

// childIndex maps span id -> children present in the trace.
func childIndex(tr *Trace) map[string][]*Span {
	children := make(map[string][]*Span, len(tr.Spans))
	for _, sp := range tr.Spans {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	}
	return children
}

// PathStat aggregates critical-path time by span name.
type PathStat struct {
	Name  string
	Total time.Duration
	Count int
	Share float64 // fraction of all critical-path time
}

// RetryStat aggregates retry behaviour by operation span name.
type RetryStat struct {
	Name     string
	Ops      int
	Attempts int
	// Amplification is Attempts/Ops: how many requests each logical
	// operation cost once retries are counted.
	Amplification float64
}

// Analysis is the offline report over a trace dump.
type Analysis struct {
	Traces    int
	Spans     int
	Errors    int
	Exemplars map[string]int
	Path      []PathStat
	Retries   []RetryStat
	Slowest   []*Trace
}

// Analyze merges the dump by trace id and computes the full report.
// topK bounds the Slowest list (<= 0 means 10).
func Analyze(traces []*Trace, topK int) *Analysis {
	if topK <= 0 {
		topK = 10
	}
	merged := MergeByTraceID(traces)
	a := &Analysis{Traces: len(merged), Exemplars: map[string]int{}}

	pathTotals := map[string]*PathStat{}
	var pathSum time.Duration
	retry := map[string]*RetryStat{}

	for _, tr := range merged {
		a.Spans += len(tr.Spans)
		a.Errors += tr.Errors()
		if tr.Exemplar != "" {
			for _, rule := range strings.Split(tr.Exemplar, ",") {
				a.Exemplars[rule]++
			}
		}
		for _, step := range CriticalPath(tr) {
			st := pathTotals[step.Span.Name]
			if st == nil {
				st = &PathStat{Name: step.Span.Name}
				pathTotals[step.Span.Name] = st
			}
			st.Total += step.Self
			st.Count++
			pathSum += step.Self
		}
		// Retry amplification: operation spans are the parents of
		// "attempt" spans (the gplusapi client emits one per try).
		children := childIndex(tr)
		for _, sp := range tr.Spans {
			attempts := 0
			for _, k := range children[sp.SpanID] {
				if k.Name == "attempt" {
					attempts++
				}
			}
			if attempts == 0 {
				continue
			}
			rs := retry[sp.Name]
			if rs == nil {
				rs = &RetryStat{Name: sp.Name}
				retry[sp.Name] = rs
			}
			rs.Ops++
			rs.Attempts += attempts
		}
	}

	for _, st := range pathTotals {
		if pathSum > 0 {
			st.Share = float64(st.Total) / float64(pathSum)
		}
		a.Path = append(a.Path, *st)
	}
	sort.Slice(a.Path, func(i, j int) bool { return a.Path[i].Total > a.Path[j].Total })

	for _, rs := range retry {
		if rs.Ops > 0 {
			rs.Amplification = float64(rs.Attempts) / float64(rs.Ops)
		}
		a.Retries = append(a.Retries, *rs)
	}
	sort.Slice(a.Retries, func(i, j int) bool { return a.Retries[i].Amplification > a.Retries[j].Amplification })

	slow := append([]*Trace(nil), merged...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].Dur > slow[j].Dur })
	if len(slow) > topK {
		slow = slow[:topK]
	}
	a.Slowest = slow
	return a
}

// WriteText renders the analysis for a terminal.
func (a *Analysis) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "trace dump: %d traces, %d spans, %d failed spans\n", a.Traces, a.Spans, a.Errors)
	if len(a.Exemplars) > 0 {
		rules := make([]string, 0, len(a.Exemplars))
		for k := range a.Exemplars {
			rules = append(rules, k)
		}
		sort.Strings(rules)
		fmt.Fprint(w, "exemplar rules tripped:")
		for _, k := range rules {
			fmt.Fprintf(w, " %s=%d", k, a.Exemplars[k])
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\ncritical-path breakdown (where request wall-clock actually went):")
	fmt.Fprintf(w, "  %-22s %12s %8s %7s\n", "span", "total", "count", "share")
	for _, st := range a.Path {
		fmt.Fprintf(w, "  %-22s %12v %8d %6.1f%%\n", st.Name, st.Total.Round(time.Microsecond), st.Count, 100*st.Share)
	}

	if len(a.Retries) > 0 {
		fmt.Fprintln(w, "\nretry amplification (attempts per logical operation):")
		fmt.Fprintf(w, "  %-22s %8s %10s %14s\n", "operation", "ops", "attempts", "amplification")
		for _, rs := range a.Retries {
			fmt.Fprintf(w, "  %-22s %8d %10d %13.2fx\n", rs.Name, rs.Ops, rs.Attempts, rs.Amplification)
		}
	}

	fmt.Fprintf(w, "\ntop %d slowest requests:\n", len(a.Slowest))
	for i, tr := range a.Slowest {
		tags := ""
		if tr.Exemplar != "" {
			tags = " [" + tr.Exemplar + "]"
		}
		fmt.Fprintf(w, "\n#%d  trace %s  %v  %d spans%s\n", i+1, tr.TraceID, tr.Dur.Round(time.Microsecond), len(tr.Spans), tags)
		if err := WriteSpanTree(w, tr); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpanTree renders a trace's spans as an indented tree with
// durations, annotations, and error status. Spans whose parent is not in
// the trace (the local root, plus any unjoined remote halves) print at
// the top level.
func WriteSpanTree(w io.Writer, tr *Trace) error {
	children := childIndex(tr)
	present := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		present[sp.SpanID] = true
	}
	var roots []*Span
	for _, sp := range tr.Spans {
		if sp.Parent == "" || !present[sp.Parent] {
			roots = append(roots, sp)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	var walk func(sp *Span, depth int) error
	walk = func(sp *Span, depth int) error {
		var b strings.Builder
		b.WriteString("  ")
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s %10v", 30-2*depth, sp.Name, sp.Dur.Round(time.Microsecond))
		if sp.Remote {
			b.WriteString("  (joined)")
		}
		for _, at := range sp.Attrs {
			fmt.Fprintf(&b, "  %s=%s", at.K, at.V)
		}
		if sp.Retries > 0 {
			fmt.Fprintf(&b, "  retries=%d", sp.Retries)
		}
		if sp.Err != "" {
			fmt.Fprintf(&b, "  ERROR: %s", sp.Err)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
		for _, k := range children[sp.SpanID] {
			if err := walk(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range roots {
		if err := walk(root, 0); err != nil {
			return err
		}
	}
	return nil
}
