package series

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Panel is one sparkline row of the dashboard: a counter family drawn
// as per-interval rate, or a gauge drawn as its raw values.
type Panel struct {
	// Title labels the row (kept short; the row budget is one line).
	Title string
	// Selector picks the series (family name, optionally with label
	// constraints). Multiple matching series are summed per tick.
	Selector string
	// AsRate derives per-interval rates (counters); false plots raw
	// values (gauges).
	AsRate bool
	// Unit suffixes the current-value readout ("/s", "", ...).
	Unit string
}

// crawlPanels are the dashboard rows of a crawl: throughput, edge
// discovery, frontier backlog, and API errors.
var crawlPanels = []Panel{
	{Title: "profiles/s", Selector: "crawler_pages_fetched_total", AsRate: true, Unit: "/s"},
	{Title: "edges/s", Selector: "crawler_edges_observed_total", AsRate: true, Unit: "/s"},
	{Title: "frontier", Selector: "crawler_frontier_depth"},
	{Title: "errors/s", Selector: "gplusapi_responses_total{code=\"503\"}", AsRate: true, Unit: "/s"},
}

// DashOptions configures a Dash.
type DashOptions struct {
	// Width is the sparkline width in cells (default 60).
	Width int
	// Window is how much history each sparkline spans (default 2m).
	Window time.Duration
	// Extra, when non-nil, returns extra status lines appended under the
	// panels each frame (the crawler's progress/ETA line plugs in here).
	Extra func() []string
}

func (o DashOptions) width() int {
	if o.Width <= 0 {
		return 60
	}
	return o.Width
}

func (o DashOptions) window() time.Duration {
	if o.Window <= 0 {
		return 2 * time.Minute
	}
	return o.Window
}

// Dash renders a live ANSI terminal dashboard from a collector's rings:
// one sparkline panel per configured series, headline counters, SLO
// states, and recent alert transitions. Attach it to the collector with
// c.OnSample(d.Frame) — each sample redraws the screen. Rendering is a
// single Write of a frame that starts with cursor-home and erases each
// line as it goes, so frames replace each other without flicker.
type Dash struct {
	c    *Collector
	eng  *Engine
	w    io.Writer
	opts DashOptions

	mu    sync.Mutex
	start time.Time // of the first frame; zero until then
}

// NewDash builds a dashboard over a collector (and optional SLO
// engine) writing frames to w.
func NewDash(c *Collector, eng *Engine, w io.Writer, opts DashOptions) *Dash {
	return &Dash{c: c, eng: eng, w: w, opts: opts}
}

const (
	ansiClear     = "\x1b[2J"
	ansiHome      = "\x1b[H"
	ansiEraseLine = "\x1b[K"
)

// Frame renders one frame at now. Meant for Collector.OnSample.
func (d *Dash) Frame(now time.Time) {
	if d == nil || d.w == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var b strings.Builder
	if d.start.IsZero() {
		d.start = now
		b.WriteString(ansiClear)
	}
	b.WriteString(ansiHome)
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteString(ansiEraseLine + "\n")
	}
	line("gplus crawl  %s  elapsed %s  (tick %s)",
		now.Format("15:04:05"), now.Sub(d.start).Round(time.Second), d.c.Interval())
	line("%s", strings.Repeat("─", d.opts.width()+28))
	since := now.Add(-d.opts.window())
	for _, p := range crawlPanels {
		values, cur := d.panelValues(p, since)
		line("%-12s %s %s", p.Title, Sparkline(values, d.opts.width()), fmtValue(cur, p.Unit))
	}
	line("%s", strings.Repeat("─", d.opts.width()+28))
	line("totals       %s", d.headline())
	for _, st := range d.eng.Statuses() {
		line("slo %-12s %-5s burn=%.2f (short %.2f) sli=%.3g%%",
			st.Name, st.State, st.BurnLong, st.BurnShort, st.SLI*100)
	}
	if trs := d.eng.Transitions(); len(trs) > 0 {
		tr := trs[len(trs)-1]
		line("last alert   %s %s %s -> %s (burn %.2f)",
			tr.Time.Format("15:04:05"), tr.Name, tr.From, tr.To, tr.Burn)
	}
	if d.opts.Extra != nil {
		for _, s := range d.opts.Extra() {
			line("%s", s)
		}
	}
	b.WriteString(ansiEraseLine)
	io.WriteString(d.w, b.String()) //nolint:errcheck — terminal write
}

// panelValues returns a panel's plotted values (summed across matching
// series per tick) and the most recent value.
func (d *Dash) panelValues(p Panel, since time.Time) (values []float64, cur float64) {
	byTick := make(map[int64]float64)
	for _, name := range d.c.Names() {
		if !matchesSelector(p.Selector, name) {
			continue
		}
		pts := d.c.PointsSince(name, since)
		if p.AsRate {
			pts = RatePoints(pts)
		}
		for _, pt := range pts {
			byTick[pt.T.UnixNano()] += pt.V
		}
	}
	if len(byTick) == 0 {
		return nil, 0
	}
	ticks := make([]int64, 0, len(byTick))
	for t := range byTick {
		ticks = append(ticks, t)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	values = make([]float64, len(ticks))
	for i, t := range ticks {
		values[i] = byTick[t]
	}
	return values, values[len(values)-1]
}

// headline summarizes the crawl's cumulative counters.
func (d *Dash) headline() string {
	var profiles, edges, errs float64
	for _, name := range d.c.Names() {
		kind, _ := d.c.SeriesKind(name)
		if kind != KindCounter {
			continue
		}
		p, ok := d.c.Latest(name)
		if !ok {
			continue
		}
		switch familyOf(name) {
		case "crawler_pages_fetched_total":
			profiles += p.V
		case "crawler_edges_observed_total":
			edges += p.V
		case "crawler_profile_errors_total", "crawler_circle_errors_total":
			errs += p.V
		}
	}
	return fmt.Sprintf("profiles=%.0f edges=%.0f errors=%.0f", profiles, edges, errs)
}

func fmtValue(v float64, unit string) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%8.0f%s", v, unit)
	case v >= 10:
		return fmt.Sprintf("%8.1f%s", v, unit)
	default:
		return fmt.Sprintf("%8.2f%s", v, unit)
	}
}
