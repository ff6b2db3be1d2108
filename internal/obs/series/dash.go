package series

import (
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// liveTicks is how much history a live report spans (and each sparkline
// of the dashboard shows) unless the stall rule needs more: two minutes
// at the default cadence. Counted in ticks because the rows cost ticks x
// series, whatever the cadence.
const liveTicks = 120

// Watch is the live side of BuildReport: after every sample of c it
// builds the report over the store's last liveTicks intervals (and the
// baseline tick before them) and hands it to fn, to print a progress
// line from, fire a capture on StallOnset or PageOnset, or draw as a
// dashboard frame. fn runs on the sampling goroutine, one call at a time.
//
// Each objective is evaluated once per tick, at the tick, over the whole
// store — so its windows count what BuildReport over series.jsonl counts,
// however far past the report's ticks they reach — and the statuses are
// kept for as long as the report still shows their tick.
func Watch(c *Collector, sig Signals, fn func(*HealthReport)) { watch(c, sig, evaluate, fn) }

// watch is Watch with every objective evaluated through eval.
func watch(c *Collector, sig Signals, eval func(*Store, Objective, time.Time) Status, fn func(*HealthReport)) {
	type memo struct {
		t  time.Time
		at []Status
	}
	var kept []memo // oldest first
	statusAt := func(t time.Time) []Status {
		i := sort.Search(len(kept), func(i int) bool { return !kept[i].t.Before(t) })
		if i == len(kept) || !kept[i].t.Equal(t) {
			// The new tick — or one sampled before the watcher was attached.
			kept = slices.Insert(kept, i, memo{t, evaluateAll(c.Store, sig.Objectives, t, eval)})
		}
		return kept[i].at
	}
	window := time.Duration(max(liveTicks, sig.StallAfter+1)) * c.Interval()
	c.OnSample(func(t Tick, _ bool) {
		s := c.Store
		s.mu.RLock()
		r := buildReport(s, s.window(t.T.Add(-window), time.Time{}), sig, statusAt)
		s.mu.RUnlock()
		kept = slices.DeleteFunc(kept, func(m memo) bool { return m.t.Before(r.Start) })
		fn(r)
	})
}

const (
	ansiClear      = "\x1b[2J"
	ansiHome       = "\x1b[H"
	ansiEraseLine  = "\x1b[K"
	ansiEraseBelow = "\x1b[J"
)

// Dash draws health reports as frames of a live ANSI terminal
// dashboard: HealthReport.WriteText plus the progress line, each frame
// one Write that homes the cursor and erases as it goes, so frames
// replace each other without flicker. Feed it from Watch.
type Dash struct {
	w       io.Writer
	started bool
}

// NewDash builds a dashboard writing frames to w.
func NewDash(w io.Writer) *Dash { return &Dash{w: w} }

// Frame draws one report.
func (d *Dash) Frame(r *HealthReport) {
	var text strings.Builder
	r.WriteText(&text, 0)
	text.WriteString("\n" + r.ProgressLine() + "\n")
	frame := ansiHome + strings.ReplaceAll(text.String(), "\n", ansiEraseLine+"\n") + ansiEraseBelow
	if !d.started {
		d.started = true
		frame = ansiClear + frame
	}
	io.WriteString(d.w, frame) //nolint:errcheck — terminal write
}
