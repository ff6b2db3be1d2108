package series

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"gplus/internal/obs"
)

// ObjectiveKind names the shape of one SLO.
type ObjectiveKind string

const (
	// ErrorRatio bounds the fraction of bad events among total events,
	// e.g. "fewer than 1% of requests fail".
	ErrorRatio ObjectiveKind = "error_ratio"
	// Latency bounds a latency quantile, e.g. "p99 under 250ms". It
	// evaluates through the histogram's buckets as a good/bad ratio —
	// "at most 1-q of requests slower than Max" — so burn rates mean
	// the same thing for both kinds.
	Latency ObjectiveKind = "latency"
)

// Objective is one declarative service-level objective evaluated over
// rolling windows of the time-series store.
type Objective struct {
	// Name labels the objective in reports and in the slo-page:<name>
	// capture it fires.
	Name string
	// Kind selects the evaluation.
	Kind ObjectiveKind
	// Bad and Total select the counter series of an ErrorRatio
	// objective. Each selector is a family name, optionally with label
	// constraints (`responses_total{code="503"}`); matching
	// series are summed.
	Bad, Total []string
	// Hist selects the histogram family (label constraints allowed) and
	// Q the quantile of a Latency objective.
	Hist string
	Q    float64
	// Max is the threshold: the allowed bad fraction for ErrorRatio
	// (0.01 = 1%), the quantile's latency bound in seconds for Latency.
	Max float64
	// Window is the long burn-rate window (default 1m); Fast the short
	// confirmation window (default Window/12). Both alert rules require
	// the burn in *both* windows, the multi-window pattern that keeps a
	// stale long-window burn from alerting after recovery.
	Window, Fast time.Duration
	// PageFactor and WarnFactor are the burn-rate thresholds of the two
	// alert severities (defaults 14.4 and 6 — the SRE-workbook pages
	// scaled to the window).
	PageFactor, WarnFactor float64
}

func (o Objective) window() time.Duration {
	if o.Window <= 0 {
		return time.Minute
	}
	return o.Window
}

func (o Objective) fast() time.Duration {
	if o.Fast > 0 {
		return o.Fast
	}
	return o.window() / 12
}

func (o Objective) pageFactor() float64 {
	if o.PageFactor > 0 {
		return o.PageFactor
	}
	return 14.4
}

func (o Objective) warnFactor() float64 {
	if o.WarnFactor > 0 {
		return o.WarnFactor
	}
	return 6
}

// budget is the allowed bad fraction: Max for ErrorRatio, 1-Q for
// Latency.
func (o Objective) budget() float64 {
	if o.Kind == Latency {
		return 1 - o.Q
	}
	return o.Max
}

// String renders the objective the way the spec grammar spells it.
func (o Objective) String() string {
	switch o.Kind {
	case Latency:
		return fmt.Sprintf("p%g(%s) < %s @%s", o.Q*100, o.Hist,
			time.Duration(o.Max*float64(time.Second)).Round(time.Microsecond), o.window())
	default:
		return fmt.Sprintf("error_ratio(%s / %s) < %.3g%% @%s",
			strings.Join(o.Bad, "+"), strings.Join(o.Total, "+"), o.Max*100, o.window())
	}
}

// ParseObjectives parses the -slo flag grammar: objectives separated by
// ';', each `name,kind,key=value,...`:
//
//	availability,error_ratio,bad=responses_total{code="503"}+transport_errors_total,total=responses_total+transport_errors_total,max=1%,window=1m
//	latency,latency,hist=request_seconds,q=0.99,max=250ms,window=1m
//
// Selector lists join families with '+'; label constraints in a
// selector narrow it to matching series. max accepts a percentage
// ("1%"), a bare ratio ("0.01"), or — for latency objectives — a
// duration ("250ms"). The short window and the burn-rate factors keep
// their defaults; only a struct literal sets them.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		fields := splitTopLevel(raw)
		if len(fields) < 2 {
			return nil, fmt.Errorf("series: objective %q needs at least name,kind", raw)
		}
		o := Objective{Name: strings.TrimSpace(fields[0]), Kind: ObjectiveKind(strings.TrimSpace(fields[1]))}
		if o.Name == "" {
			return nil, fmt.Errorf("series: objective %q has an empty name", raw)
		}
		switch o.Kind {
		case ErrorRatio, Latency:
		default:
			return nil, fmt.Errorf("series: unknown objective kind %q in %q", fields[1], raw)
		}
		for _, f := range fields[2:] {
			key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("series: option %q is not key=value in %q", f, raw)
			}
			var err error
			switch key {
			case "bad":
				o.Bad = strings.Split(val, "+")
			case "total":
				o.Total = strings.Split(val, "+")
			case "hist":
				o.Hist = val
			case "q":
				if o.Q, err = strconv.ParseFloat(val, 64); err != nil || !finite(o.Q) || o.Q <= 0 || o.Q >= 1 {
					return nil, fmt.Errorf("series: quantile %q outside (0,1) in %q", val, raw)
				}
			case "max":
				if o.Max, err = parseThreshold(val); err != nil {
					return nil, fmt.Errorf("series: %v in %q", err, raw)
				}
			case "window":
				if o.Window, err = time.ParseDuration(val); err != nil || o.Window <= 0 {
					return nil, fmt.Errorf("series: bad window %q in %q", val, raw)
				}
			default:
				return nil, fmt.Errorf("series: unknown option %q in %q", key, raw)
			}
		}
		sels := append(append([]string{}, o.Bad...), o.Total...)
		if o.Hist != "" {
			sels = append(sels, o.Hist)
		}
		if _, err := parseSelectors(sels); err != nil {
			return nil, fmt.Errorf("series: objective %q: %w", raw, err)
		}
		switch o.Kind {
		case ErrorRatio:
			if len(o.Bad) == 0 || len(o.Total) == 0 || o.Max <= 0 || o.Max >= 1 {
				return nil, fmt.Errorf("series: error_ratio objective %q needs bad=, total=, and max= in (0,1)", raw)
			}
		case Latency:
			if o.Hist == "" || o.Q == 0 || o.Max <= 0 {
				return nil, fmt.Errorf("series: latency objective %q needs hist=, q=, and max=", raw)
			}
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("series: SLO spec %q contains no objectives", spec)
	}
	return out, nil
}

// splitTopLevel splits on commas that are not inside braces or quotes,
// so label selectors survive the option split.
func splitTopLevel(s string) []string {
	var out []string
	depth, quoted, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			quoted = !quoted
		case '{':
			if !quoted {
				depth++
			}
		case '}':
			if !quoted && depth > 0 {
				depth--
			}
		case ',':
			if !quoted && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// parseThreshold accepts "1%", "0.01", or a duration like "250ms"
// (returned in seconds). NaN and the infinities, which ParseFloat
// accepts, are not thresholds: every range check passes NaN.
func parseThreshold(val string) (float64, error) {
	if strings.HasSuffix(val, "%") {
		p, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
		if err != nil || !finite(p) {
			return 0, fmt.Errorf("bad percentage %q", val)
		}
		return p / 100, nil
	}
	if f, err := strconv.ParseFloat(val, 64); err == nil && finite(f) {
		return f, nil
	}
	if d, err := time.ParseDuration(val); err == nil && d > 0 {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("bad threshold %q", val)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ObjectivesFlag resolves the value of a -slo flag: "default" keeps def,
// "" selects no objectives (an empty, non-nil set), anything else is a
// ParseObjectives spec.
func ObjectivesFlag(value string, def []Objective) ([]Objective, error) {
	switch value {
	case "default":
		return def, nil
	case "":
		return []Objective{}, nil
	}
	return ParseObjectives(value)
}

// State is an objective's alert severity.
type State int

const (
	StateOK State = iota
	StateWarn
	StatePage
)

func (s State) String() string {
	switch s {
	case StateWarn:
		return "WARN"
	case StatePage:
		return "PAGE"
	default:
		return "OK"
	}
}

// Status is one objective's evaluation at an instant.
type Status struct {
	Name      string
	Kind      ObjectiveKind
	Objective string
	Time      time.Time
	// SLI is the bad fraction over the long window (0 when no events).
	SLI float64
	// Quantile is the measured latency quantile over the long window
	// (latency objectives only; 0 when the window observed nothing).
	Quantile float64
	// BurnLong and BurnShort are SLI/budget over the two windows: 1.0
	// burns the error budget exactly as fast as the objective allows.
	BurnLong  float64
	BurnShort float64
	// Bad and Total are the long-window event counts behind SLI.
	Bad   float64
	Total float64
	// Violating reports the SLI itself out of bounds over the long
	// window (burn > 1) — the violation-span criterion.
	Violating bool
	State     State
}

// evaluate computes one objective's Status at now from the ticks of s
// up to now. Caller holds the lock.
func evaluate(s *Store, o Objective, now time.Time) Status {
	st := Status{Name: o.Name, Kind: o.Kind, Objective: o.String(), Time: now}
	badL, totalL, hist := o.counts(s, s.window(now.Add(-o.window()), now))
	badS, totalS, _ := o.counts(s, s.window(now.Add(-o.fast()), now))
	st.Bad, st.Total = badL, totalL
	st.SLI = ratio(badL, totalL)
	st.BurnLong = st.SLI / o.budget()
	st.BurnShort = ratio(badS, totalS) / o.budget()
	if q := hist.Quantile(o.Q); !math.IsNaN(q) {
		st.Quantile = q
	}
	st.Violating = totalL > 0 && st.BurnLong > 1
	switch {
	case st.BurnLong >= o.pageFactor() && st.BurnShort >= o.pageFactor():
		st.State = StatePage
	case st.BurnLong >= o.warnFactor() && st.BurnShort >= o.warnFactor():
		st.State = StateWarn
	default:
		st.State = StateOK
	}
	return st
}

// counts returns the (bad, total) event counts of the objective across
// ticks, a window of the ticks of s, and, for a Latency objective, the
// histogram delta they were counted from (empty for ErrorRatio). Caller
// holds the lock.
func (o Objective) counts(s *Store, ticks []Tick) (bad, total float64, hist obs.HistogramSnapshot) {
	if o.Kind != Latency {
		return s.sumIncrease(ticks, o.Bad), s.sumIncrease(ticks, o.Total), hist
	}
	hist, _ = s.sumHistIncrease(ticks, o.Hist)
	total = float64(hist.Count)
	return max(total-hist.CountBelow(o.Max), 0), total, hist
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
