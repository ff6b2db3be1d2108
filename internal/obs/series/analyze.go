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
	Start time.Time
	End   time.Time
	// Peak is the condition's worst value inside the span (error rate
	// for spikes, burn rate for SLO violations, seconds for stalls).
	Peak float64
	// Name tags SLO spans with the violated objective.
	Name string
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
// value names, over a run of a Store's ticks: all of the Store read back
// from series.jsonl, or the live collector's newest ones (Watch). Every
// surface renders it: the progress line, the dashboard frame, the stall
// and SLO-page captures, /debug/slo, `gplusanalyze metrics`.
type HealthReport struct {
	Signals    Signals
	Start, End time.Time
	Ticks      int

	// Throughput is Signals.Work's per-second rate at each tick; Total
	// is the counter's value at End, whatever part of the run the ticks
	// still hold.
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

// BuildReport reads s through sig, evaluating the objectives at every
// tick it holds.
func BuildReport(s *Store, sig Signals) *HealthReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return buildReport(s, s.ticks, sig, func(t time.Time) []Status { return evaluateAll(s, sig.Objectives, t, evaluate) })
}

// evaluateAll evaluates every objective at now through eval. Caller
// holds the lock.
func evaluateAll(s *Store, objs []Objective, now time.Time, eval func(*Store, Objective, time.Time) Status) []Status {
	out := make([]Status, len(objs))
	for i, o := range objs {
		out[i] = eval(s, o, now)
	}
	return out
}

// buildReport reads ticks, a run of the ticks of s, through sig, taking
// the objectives' statuses at each tick from statusAt, which returns them
// in sig.Objectives order. Caller holds the lock.
func buildReport(s *Store, ticks []Tick, sig Signals, statusAt func(time.Time) []Status) *HealthReport {
	r := &HealthReport{Signals: sig}
	r.Ticks = len(ticks)
	if len(ticks) == 0 {
		return r
	}
	r.Start, r.End = ticks[0].T, ticks[len(ticks)-1].T

	work := []string{sig.Work.Selector}
	r.Throughput = s.perTick(ticks, work)
	r.Total = s.countAtEnd(ticks, work)
	for _, p := range r.Throughput {
		r.AvgThroughput += p.V / float64(len(r.Throughput))
		r.PeakThroughput = math.Max(r.PeakThroughput, p.V)
	}
	row := func(sg Signal, rate bool) []Point {
		if sg.Selector == "" {
			return nil
		}
		title := sg.Title
		if rate {
			title += "/s"
		}
		pts := s.perTick(ticks, []string{sg.Selector})
		r.Rows = append(r.Rows, Row{Title: title, Unit: sg.Unit, Rate: rate, Points: pts})
		return pts
	}
	activity := r.Throughput
	if sig.Activity.Selector != "" {
		activity = row(sig.Activity, true)
	}
	for _, sg := range sig.Also {
		row(sg, true)
	}
	if backlog := row(sig.Backlog, false); len(backlog) > 0 {
		r.Stalls, r.StallOnset = stalls(activity, backlog, sig.StallAfter)
		if queued := backlog[len(backlog)-1].V; queued > 0 && r.AvgThroughput > 0 {
			r.ETA = time.Duration(queued / r.AvgThroughput * float64(time.Second))
		}
	}
	row(sig.Lag, false)

	r.Errors = s.perTick(ticks, sig.Errors)
	r.TotalErrors = s.countAtEnd(ticks, sig.Errors)
	r.ErrorSpikes = errorSpikes(r.Errors)
	if len(sig.Objectives) > 0 {
		r.slo(ticks, statusAt)
	}
	return r
}

// perTick sums the series of s matching any selector at each tick after
// the first: counters and histograms as the per-second rate over the
// interval ending there, gauges as sampled. Ticks that share a time are
// one instant, and each of them reads the instant's sum — the rate of
// the one interval into it, the gauges' samples added. Caller holds the
// lock.
func (s *Store) perTick(ticks []Tick, selectors []string) []Point {
	at := make([]float64, len(ticks))
	for _, name := range s.selectNames(selectors...) {
		kind := s.kinds[name]
		for i := range ticks {
			if kind == KindGauge {
				at[i] += ticks[i].value(name, kind)
			} else if i > 0 {
				v, _ := perSecond(ticks, i, name, kind)
				at[i] += v
			}
		}
	}
	out := make([]Point, 0, max(len(ticks)-1, 0))
	for a := 0; a < len(ticks); {
		b, sum := a, 0.0
		for ; b < len(ticks) && ticks[b].T.Equal(ticks[a].T); b++ {
			sum += at[b]
		}
		for i := max(a, 1); i < b; i++ {
			out = append(out, Point{T: ticks[i].T, V: sum})
		}
		a = b
	}
	return out
}

// countAtEnd sums the matching counters' values at the last tick: what
// the first tick already carried plus the reset-aware growth since, so
// ticks that hold only the tail of a run report the same total as ticks
// that hold all of it. Caller holds the lock.
func (s *Store) countAtEnd(ticks []Tick, selectors []string) float64 {
	var total float64
	for _, name := range s.selectNames(selectors...) {
		if kind := s.kinds[name]; kind != KindGauge {
			total += ticks[0].value(name, kind) + increase(ticks, name, kind)
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
func (r *HealthReport) slo(ticks []Tick, statusAt func(time.Time) []Status) {
	at := make([][]Status, len(ticks))
	for i := range ticks {
		at[i] = statusAt(ticks[i].T)
	}
	end := len(ticks) - 1
	for j, o := range r.Signals.Objectives {
		for _, run := range runs(len(ticks), func(i int) bool { return at[i][j].Violating }) {
			s := Span{Start: ticks[run[0]].T, End: ticks[run[1]].T, Name: o.Name}
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
