// Package series adds the time dimension to the obs metrics layer. A
// Collector goroutine samples a Registry.Snapshot() at a fixed interval
// into a Store: ticks on one shared time axis, each the snapshot taken
// at that instant, bounded by a retention rule. Every reader takes a run
// of those ticks by index — a window is the ticks from a binary search
// on their times to the end, plus the one baseline tick before it — and
// reads each series at each tick by name and kind, so counter increases
// and rates and histogram deltas are differences of neighbouring ticks.
// The store has one exposition, the tick log series.jsonl (WriteTicks,
// one line per tick): a run directory appends it as it is sampled, and
// /debug/timeseries serves the retained ticks in it. ReadTicks fills the
// same Store type from that log for offline analysis (`gplusanalyze
// metrics`). The
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
// tick.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Point is one value of a report row at a tick: a rate, a sum, or a
// gauge reading.
type Point struct {
	T time.Time
	V float64
}

// delta is series name's growth from ticks[i-1] to ticks[i], under the
// Prometheus reset rule: a decrease means the process restarted, and the
// post-reset value counts as new growth in full.
func delta(ticks []Tick, i int, name string, kind Kind) float64 {
	v := ticks[i].value(name, kind)
	d := v - ticks[i-1].value(name, kind)
	if d < 0 {
		d = v
	}
	return d
}

// perSecond is delta over the interval's duration; ok is false for an
// interval of none (a duplicated or out-of-order tick time).
func perSecond(ticks []Tick, i int, name string, kind Kind) (v float64, ok bool) {
	dt := ticks[i].T.Sub(ticks[i-1].T).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return delta(ticks, i, name, kind) / dt, true
}

// increase sums series name's growth across ticks.
func increase(ticks []Tick, name string, kind Kind) float64 {
	var inc float64
	for i := 1; i < len(ticks); i++ {
		inc += delta(ticks, i, name, kind)
	}
	return inc
}

// histIncrease accumulates the observations histogram name recorded
// across ticks — each interval's snapshot delta, reset-aware
// (obs.HistogramSnapshot.Sub) — into one window-scoped snapshot. ok is
// false when no interval holds the histogram.
func histIncrease(ticks []Tick, name string) (acc obs.HistogramSnapshot, ok bool) {
	for i := 1; i < len(ticks); i++ {
		d := ticks[i].Histograms[name].Sub(ticks[i-1].Histograms[name])
		if len(d.Counts) == 0 {
			continue // the histogram is absent from both ticks
		}
		if !ok {
			acc = obs.HistogramSnapshot{Bounds: d.Bounds, Counts: slices.Clone(d.Counts), Count: d.Count, Sum: d.Sum}
			ok = true
		} else if !addHist(&acc, d) {
			// Bucket layouts diverge (should not happen within one
			// series); keep what accumulated so far.
			break
		}
	}
	return acc, ok
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

// selectNames returns the names of the series of s that match any
// selector, sorted. A selector that does not parse selects nothing.
// Caller holds the lock.
func (s *Store) selectNames(selectors ...string) []string {
	sels, _ := parseSelectors(selectors)
	var out []string
	for _, name := range s.names {
		// Most names belong to none of the selected families; a prefix
		// test spares them the parse.
		if !slices.ContainsFunc(sels, func(sel obs.Series) bool { return strings.HasPrefix(name, sel.Family) }) {
			continue
		}
		ser, err := obs.ParseSeries(name)
		if err == nil && slices.ContainsFunc(sels, func(sel obs.Series) bool { return matches(sel, ser) }) {
			out = append(out, name)
		}
	}
	return out
}

// sumIncrease sums increase across ticks over every counter or histogram
// of s matching any selector. Caller holds the lock.
func (s *Store) sumIncrease(ticks []Tick, selectors []string) float64 {
	var total float64
	for _, name := range s.selectNames(selectors...) {
		if kind := s.kinds[name]; kind != KindGauge {
			total += increase(ticks, name, kind)
		}
	}
	return total
}

// sumHistIncrease accumulates histIncrease across ticks over every
// histogram of s matching the selector. Caller holds the lock.
func (s *Store) sumHistIncrease(ticks []Tick, selector string) (acc obs.HistogramSnapshot, started bool) {
	for _, name := range s.selectNames(selector) {
		if s.kinds[name] != KindHistogram {
			continue
		}
		d, ok := histIncrease(ticks, name)
		if !ok {
			continue
		}
		if !started {
			acc, started = d, true
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
