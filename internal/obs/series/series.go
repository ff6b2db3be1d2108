// Package series adds the time dimension to the obs metrics layer. A
// Collector goroutine samples a Registry.Snapshot() at a fixed interval
// into a Store: ticks on one shared time axis, each the snapshot taken
// at that instant, bounded by a retention rule. Counter rates and
// histogram quantiles are derived from successive ticks on demand. The
// store backs a JSON window-query endpoint (/debug/timeseries) and the
// tick log series.jsonl (WriteTicks, one line per tick, appended by a
// run directory as it is sampled); ReadTicks fills the same Store type
// from that log for offline analysis (`gplusanalyze metrics`). The
// health report both the live watcher (Watch) and the offline read
// build — throughput, stalls, and declarative objectives with
// multi-window burn-rate alerting — is what a live ANSI terminal
// dashboard draws.
//
// The paper's 45-day, 11-machine crawl was operable because its
// operators could watch throughput and error rates *over time*; a
// point-in-time /metrics scrape cannot show a stall, a decaying fetch
// rate, or a creeping error fraction. This package is the layer that
// makes those visible.
package series

import (
	"math"
	"slices"
	"strings"
	"time"

	"gplus/internal/obs"
)

// Kind classifies a series for derivation: counters accumulate (rates
// come from successive deltas, resets detected by decreases), gauges are
// instantaneous, histograms carry their full cumulative snapshot per
// point.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Point is one sample of one series. V holds the counter value, gauge
// value, or — for histogram series — the cumulative observation count;
// Hist is set only on histogram points.
type Point struct {
	T    time.Time              `json:"t"`
	V    float64                `json:"v"`
	Hist *obs.HistogramSnapshot `json:"hist,omitempty"`
}

// Source is what the health report and the analyzers read: a Store, or
// a view of one (the live watcher's trailing window).
type Source interface {
	// Names lists every series, sorted.
	Names() []string
	// SeriesKind reports a series' kind.
	SeriesKind(name string) (Kind, bool)
	// TimesSince returns the tick times at or after since (oldest first)
	// plus the closest retained one before since — the baseline a
	// windowed increase needs. A zero since returns every retained tick.
	TimesSince(since time.Time) []time.Time
	// PointsSince returns the series' points at the ticks TimesSince
	// returns.
	PointsSince(name string, since time.Time) []Point
}

// Increase sums a cumulative counter's growth across pts, applying the
// Prometheus reset rule: a decrease means the process restarted and the
// post-reset value counts as new growth in full.
func Increase(pts []Point) float64 {
	var inc float64
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		inc += d
	}
	return inc
}

// RatePoints derives a per-interval rate series from cumulative counter
// points: one point per consecutive pair, timestamped at the later
// sample, reset-aware. Zero-duration intervals are skipped.
func RatePoints(pts []Point) []Point {
	out := make([]Point, 0, len(pts))
	for i := 1; i < len(pts); i++ {
		dt := pts[i].T.Sub(pts[i-1].T).Seconds()
		if dt <= 0 {
			continue
		}
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		out = append(out, Point{T: pts[i].T, V: d / dt})
	}
	return out
}

// HistIncrease accumulates the histogram observations recorded across
// pts — the pairwise snapshot deltas, each reset-aware — into one
// window-scoped snapshot. ok is false when fewer than two histogram
// points exist (no interval to difference).
func HistIncrease(pts []Point) (obs.HistogramSnapshot, bool) {
	var acc obs.HistogramSnapshot
	started := false
	for i := 1; i < len(pts); i++ {
		if pts[i].Hist == nil || pts[i-1].Hist == nil {
			continue
		}
		d := pts[i].Hist.Sub(*pts[i-1].Hist)
		if len(d.Counts) == 0 {
			continue // the histogram is absent from both ticks
		}
		if !started {
			acc = obs.HistogramSnapshot{
				Bounds: d.Bounds,
				Counts: append([]int64(nil), d.Counts...),
				Count:  d.Count,
				Sum:    d.Sum,
			}
			started = true
			continue
		}
		if !addHist(&acc, d) {
			// Bucket layouts diverge (should not happen within one
			// series); keep what accumulated so far.
			break
		}
	}
	return acc, started
}

// addHist folds b into acc; false when the bucket layouts differ.
func addHist(acc *obs.HistogramSnapshot, b obs.HistogramSnapshot) bool {
	if len(acc.Counts) != len(b.Counts) {
		return false
	}
	for i := range b.Counts {
		acc.Counts[i] += b.Counts[i]
	}
	acc.Count += b.Count
	acc.Sum += b.Sum
	return true
}

// parseSelectors parses selectors — series names whose labels are the
// subset a matching series must carry; a bare family selects every
// series of it. It returns the ones that parse and the first error.
func parseSelectors(selectors []string) ([]obs.Series, error) {
	var first error
	out := make([]obs.Series, 0, len(selectors))
	for _, sel := range selectors {
		s, err := obs.ParseSeries(sel)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out = append(out, s)
	}
	return out, first
}

// matches reports whether series s satisfies selector sel: the same
// family, and every label of sel on s with the same value — compared as
// label sets, whatever order or bytes the values hold.
func matches(sel, s obs.Series) bool {
	if sel.Family != s.Family {
		return false
	}
	for _, want := range sel.Labels {
		if !slices.Contains(s.Labels, want) {
			return false
		}
	}
	return true
}

// selectNames returns the series names of src that match any selector,
// in src.Names order. A selector that does not parse selects nothing.
func selectNames(src Source, selectors ...string) []string {
	sels, _ := parseSelectors(selectors)
	var out []string
	for _, name := range src.Names() {
		// Most names belong to none of the selected families; a prefix
		// test spares them the parse.
		if !slices.ContainsFunc(sels, func(sel obs.Series) bool { return strings.HasPrefix(name, sel.Family) }) {
			continue
		}
		s, err := obs.ParseSeries(name)
		if err == nil && slices.ContainsFunc(sels, func(sel obs.Series) bool { return matches(sel, s) }) {
			out = append(out, name)
		}
	}
	return out
}

// clampUntil drops points after until (zero until keeps everything).
// Live sources never have future points, but offline replay evaluates
// at historical ticks and must not see past them.
func clampUntil(pts []Point, until time.Time) []Point {
	if until.IsZero() {
		return pts
	}
	n := len(pts)
	for n > 0 && pts[n-1].T.After(until) {
		n--
	}
	return pts[:n]
}

// sumIncrease sums Increase over every series of src matching any of
// the selectors, over their points in (since, until].
func sumIncrease(src Source, selectors []string, since, until time.Time) float64 {
	var total float64
	for _, name := range selectNames(src, selectors...) {
		if k, ok := src.SeriesKind(name); ok && k != KindGauge {
			total += Increase(clampUntil(src.PointsSince(name, since), until))
		}
	}
	return total
}

// sumHistIncrease accumulates HistIncrease over every histogram series
// matching the selector, over their points in (since, until].
func sumHistIncrease(src Source, selector string, since, until time.Time) (obs.HistogramSnapshot, bool) {
	var acc obs.HistogramSnapshot
	started := false
	for _, name := range selectNames(src, selector) {
		if k, ok := src.SeriesKind(name); !ok || k != KindHistogram {
			continue
		}
		d, ok := HistIncrease(clampUntil(src.PointsSince(name, since), until))
		if !ok {
			continue
		}
		if !started {
			acc = d
			started = true
			continue
		}
		addHist(&acc, d)
	}
	return acc, started
}

// Sparkline renders values as a fixed-width unicode sparkline, scaling
// to the maximum value (an all-zero series renders as baseline ticks).
// Values are downsampled into width buckets by taking each bucket's
// maximum, so short spikes survive.
func Sparkline(values []float64, width int) string {
	if width <= 0 || len(values) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	cells := bucketMax(values, width)
	var max float64
	for _, v := range cells {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range cells {
		if max <= 0 || math.IsNaN(v) {
			b.WriteRune(glyphs[0])
			continue
		}
		i := int(v / max * float64(len(glyphs)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(glyphs) {
			i = len(glyphs) - 1
		}
		b.WriteRune(glyphs[i])
	}
	return b.String()
}

// bucketMax downsamples values into at most width buckets, keeping each
// bucket's maximum. Fewer values than buckets pass through unchanged.
func bucketMax(values []float64, width int) []float64 {
	if len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := range out {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		m := values[lo]
		for _, v := range values[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}
