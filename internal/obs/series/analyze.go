package series

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Span is a contiguous run of ticks in some condition.
type Span struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Peak is the condition's worst value inside the span (error rate
	// for spikes, burn rate for SLO violations, seconds for stalls).
	Peak float64 `json:"peak"`
	// Name tags SLO spans with the violated objective.
	Name string `json:"name,omitempty"`
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Row is one further plotted signal of a report: a counter as its
// per-second rate (Title ends in "/s"), a gauge as sampled.
type Row struct {
	Title, Unit string
	Rate        bool
	Points      []Point
}

// HealthReport is the one place a run's health is derived: rates,
// totals, error spikes, stalls and SLO status, from the series a Signals
// value names, over any Source — the Store read back from series.jsonl,
// or the live collector's (Watch). Every surface renders it: the progress
// line, the dashboard frame, the stall and SLO-page captures, the slo_*
// gauges, /debug/slo, `gplusanalyze metrics`.
type HealthReport struct {
	Signals    Signals
	Start, End time.Time
	Ticks      int

	// Throughput is Signals.Work's per-second rate at each tick; Total
	// is the counter's value at End, whatever part of the run the source
	// still holds.
	Throughput     []Point
	AvgThroughput  float64
	PeakThroughput float64
	Total          float64
	// Rows are Activity, Also, Backlog and Lag, those the set names.
	Rows []Row
	// ETA is the backlog at End over AvgThroughput; 0 when unknown.
	ETA time.Duration

	// Error timeline (per-second error rates) and spikes: ticks where
	// the rate exceeds max(5x the run average, 0.05/s).
	Errors      []Point
	TotalErrors float64
	ErrorSpikes []Span

	// Stalls are runs of >= Signals.StallAfter ticks without activity
	// while the backlog was non-empty. StallOnset marks End as the tick
	// a stall reached that length — true at exactly one tick per stall,
	// which is when a live watcher fires its capture.
	Stalls     []Span
	StallOnset bool

	// SLO status at every tick: each objective's status at End, in
	// Signals.Objectives order, and the violation spans. PageOnset names
	// the objectives whose state became PAGE at End, from any other state
	// at the tick before — what a live watcher fires a capture on.
	Statuses   []Status
	Violations []Span
	PageOnset  []string
}

// BuildReport reads src through sig, evaluating the objectives at every
// tick it holds.
func BuildReport(src Source, sig Signals) *HealthReport {
	return buildReport(src, sig, func(t time.Time) []Status { return evaluateAll(src, sig.Objectives, t) })
}

// evaluateAll evaluates every objective at now.
func evaluateAll(src Source, objs []Objective, now time.Time) []Status {
	out := make([]Status, len(objs))
	for i, o := range objs {
		out[i] = Evaluate(src, o, now)
	}
	return out
}

// buildReport is BuildReport with the objectives' statuses at each tick
// taken from statusAt, which returns them in sig.Objectives order.
func buildReport(src Source, sig Signals, statusAt func(time.Time) []Status) *HealthReport {
	r := &HealthReport{Signals: sig}
	ticks := src.TimesSince(time.Time{})
	r.Ticks = len(ticks)
	if len(ticks) == 0 {
		return r
	}
	r.Start, r.End = ticks[0], ticks[len(ticks)-1]

	work := []string{sig.Work.Selector}
	r.Throughput = perTick(src, work, ticks)
	r.Total = countAtEnd(src, work)
	for _, p := range r.Throughput {
		r.AvgThroughput += p.V / float64(len(r.Throughput))
		r.PeakThroughput = math.Max(r.PeakThroughput, p.V)
	}
	row := func(s Signal, rate bool) []Point {
		if s.Selector == "" {
			return nil
		}
		title := s.Title
		if rate {
			title += "/s"
		}
		pts := perTick(src, []string{s.Selector}, ticks)
		r.Rows = append(r.Rows, Row{Title: title, Unit: s.Unit, Rate: rate, Points: pts})
		return pts
	}
	activity := r.Throughput
	if sig.Activity.Selector != "" {
		activity = row(sig.Activity, true)
	}
	for _, s := range sig.Also {
		row(s, true)
	}
	if backlog := row(sig.Backlog, false); len(backlog) > 0 {
		r.Stalls, r.StallOnset = stalls(activity, backlog, sig.StallAfter)
		if queued := backlog[len(backlog)-1].V; queued > 0 && r.AvgThroughput > 0 {
			r.ETA = time.Duration(queued / r.AvgThroughput * float64(time.Second))
		}
	}
	row(sig.Lag, false)

	r.Errors = perTick(src, sig.Errors, ticks)
	r.TotalErrors = countAtEnd(src, sig.Errors)
	r.ErrorSpikes = errorSpikes(r.Errors)
	if len(sig.Objectives) > 0 {
		r.slo(ticks, statusAt)
	}
	return r
}

// perTick sums the series matching any selector at each tick: counters
// and histograms as the per-second rate over the interval ending there,
// gauges as sampled. Rates exist from the second tick on, so the result
// is aligned on ticks[1:] for both.
func perTick(src Source, selectors []string, ticks []time.Time) []Point {
	byTick := make(map[int64]float64)
	for _, name := range selectNames(src, selectors...) {
		pts := src.PointsSince(name, time.Time{})
		if kind, _ := src.SeriesKind(name); kind != KindGauge {
			pts = RatePoints(pts)
		}
		for _, p := range pts {
			byTick[p.T.UnixNano()] += p.V
		}
	}
	out := make([]Point, 0, len(ticks))
	for _, t := range ticks[1:] {
		out = append(out, Point{T: t, V: byTick[t.UnixNano()]})
	}
	return out
}

// countAtEnd sums the matching counters' values at the source's last
// point: what the first retained point already carried plus the
// reset-aware growth since, so a source that holds only the tail of a
// run reports the same total as one that holds all of it.
func countAtEnd(src Source, selectors []string) float64 {
	var total float64
	for _, name := range selectNames(src, selectors...) {
		if kind, _ := src.SeriesKind(name); kind == KindGauge {
			continue
		}
		if pts := src.PointsSince(name, time.Time{}); len(pts) > 0 {
			total += pts[0].V + Increase(pts)
		}
	}
	return total
}

// runs returns the maximal runs [first, last] of indices below n at
// which in holds.
func runs(n int, in func(i int) bool) [][2]int {
	var out [][2]int
	first := -1
	for i := 0; i <= n; i++ {
		if i < n && in(i) {
			if first < 0 {
				first = i
			}
		} else if first >= 0 {
			out = append(out, [2]int{first, i - 1})
			first = -1
		}
	}
	return out
}

// errorSpikes finds contiguous runs where the error rate exceeds
// max(5x the run average, 0.05/s).
func errorSpikes(errs []Point) []Span {
	var avg float64
	for _, p := range errs {
		avg += p.V / float64(len(errs))
	}
	threshold := math.Max(5*avg, 0.05)
	var spans []Span
	for _, run := range runs(len(errs), func(i int) bool { return errs[i].V > threshold }) {
		s := Span{Start: errs[run[0]].T, End: errs[run[1]].T}
		for _, p := range errs[run[0] : run[1]+1] {
			s.Peak = math.Max(s.Peak, p.V)
		}
		spans = append(spans, s)
	}
	return spans
}

// stalls is the stall rule: runs of at least after consecutive ticks
// with zero activity while the backlog stayed non-empty (a drained
// backlog with slow stragglers is a finishing run, not a stall). onset
// reports that the run ending at the last tick is exactly after long.
func stalls(activity, backlog []Point, after int) (spans []Span, onset bool) {
	after = max(after, 1)
	for _, run := range runs(len(activity), func(i int) bool { return activity[i].V == 0 && backlog[i].V > 0 }) {
		if n := run[1] - run[0] + 1; n >= after {
			start, end := activity[run[0]].T, activity[run[1]].T
			spans = append(spans, Span{Start: start, End: end, Peak: end.Sub(start).Seconds()})
			onset = n == after && run[1] == len(activity)-1
		}
	}
	return spans, onset
}

// slo fills the SLO half of the report from the statuses at every tick:
// the contiguous spans during which each objective's long-window SLI was
// out of bounds (Status.Violating), sorted by start time, each
// objective's status at the last tick, and the PAGE onsets there.
func (r *HealthReport) slo(ticks []time.Time, statusAt func(time.Time) []Status) {
	at := make([][]Status, len(ticks))
	for i, t := range ticks {
		at[i] = statusAt(t)
	}
	end := len(ticks) - 1
	for j, o := range r.Signals.Objectives {
		for _, run := range runs(len(ticks), func(i int) bool { return at[i][j].Violating }) {
			s := Span{Start: ticks[run[0]], End: ticks[run[1]], Name: o.Name}
			for _, st := range at[run[0] : run[1]+1] {
				s.Peak = math.Max(s.Peak, st[j].BurnLong)
			}
			r.Violations = append(r.Violations, s)
		}
		r.Statuses = append(r.Statuses, at[end][j])
		if end > 0 && at[end][j].State == StatePage && at[end-1][j].State != StatePage {
			r.PageOnset = append(r.PageOnset, o.Name)
		}
	}
	sort.SliceStable(r.Violations, func(i, j int) bool { return r.Violations[i].Start.Before(r.Violations[j].Start) })
}

// last formats the newest value of a row: rates to a decimal, gauges
// whole with their unit.
func last(pts []Point, rate bool, unit string) string {
	if len(pts) == 0 {
		return "-"
	}
	if rate {
		return fmt.Sprintf("%.1f", pts[len(pts)-1].V)
	}
	return fmt.Sprintf("%.0f%s", pts[len(pts)-1].V, unit)
}

// ProgressLine renders where the report ends as one structured line —
// gpluscrawl logs it every -progress. Totals are the run's, rates the
// last tick's, and the ETA is smoothed over window=, the span the
// report covers.
func (r *HealthReport) ProgressLine() string {
	sig := r.Signals
	var b strings.Builder
	fmt.Fprintf(&b, "%s progress: %s=%.0f %s/s=%s", sig.Name, sig.Done, r.Total, sig.Work.Title, last(r.Throughput, true, ""))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %s=%s", row.Title, last(row.Points, row.Rate, row.Unit))
	}
	eta := "?"
	if r.ETA > 0 {
		eta = r.ETA.Round(time.Second).String()
	}
	fmt.Fprintf(&b, " errors=%.0f eta=%s window=%s", r.TotalErrors, eta, r.End.Sub(r.Start).Round(time.Second))
	return b.String()
}

// WriteText renders the report for terminals.
func (r *HealthReport) WriteText(w io.Writer, width int) {
	if width <= 0 {
		width = 60
	}
	if r.Ticks == 0 {
		fmt.Fprintln(w, "no samples in dump")
		return
	}
	sig := r.Signals
	fmt.Fprintf(w, "%s health  %s .. %s  (%s, %d ticks)\n\n", sig.Name,
		r.Start.Format(time.RFC3339), r.End.Format(time.RFC3339),
		r.End.Sub(r.Start).Round(time.Second), r.Ticks)

	const line = "%-12s %s  %s\n"
	fmt.Fprintf(w, line, sig.Work.Title+"/s", Sparkline(values(r.Throughput), width), last(r.Throughput, true, ""))
	fmt.Fprintf(w, "%-12s avg %.2f/s  peak %.2f/s  total %.0f %s\n", "",
		r.AvgThroughput, r.PeakThroughput, r.Total, sig.Work.Title)
	for _, row := range r.Rows {
		fmt.Fprintf(w, line, row.Title, Sparkline(values(row.Points), width), last(row.Points, row.Rate, row.Unit))
	}
	fmt.Fprintf(w, line, "errors/s", Sparkline(values(r.Errors), width), last(r.Errors, true, ""))
	fmt.Fprintf(w, "%-12s total %.0f errors\n", "", r.TotalErrors)
	for _, s := range r.ErrorSpikes {
		fmt.Fprintf(w, "  spike  %s .. %s  peak %.2f err/s\n",
			s.Start.Format("15:04:05"), s.End.Format("15:04:05"), s.Peak)
	}
	if len(r.ErrorSpikes) == 0 {
		fmt.Fprintln(w, "  no error spikes")
	}
	for _, s := range r.Stalls {
		fmt.Fprintf(w, "  stall  %s .. %s  (%.0fs with work queued)\n",
			s.Start.Format("15:04:05"), s.End.Format("15:04:05"), s.Peak)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "SLOs:")
	for _, st := range r.Statuses {
		fmt.Fprintf(w, "  %-16s %-48s %-4s burn=%.2f\n", st.Name, st.Objective, st.State, st.BurnLong)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintln(w, "  no violation spans")
	}
	for _, s := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %-12s %s .. %s  (%s, peak burn %.2f)\n",
			s.Name, s.Start.Format("15:04:05"), s.End.Format("15:04:05"),
			s.dur().Round(time.Second), s.Peak)
	}
}

func values(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}
