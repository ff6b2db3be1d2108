package series

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
// rolling windows of the time-series rings.
type Objective struct {
	// Name labels the objective in gauges and reports.
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
// duration ("250ms"). Optional keys: fast= (short burn window), page=
// and warn= (burn-rate factors).
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
				if o.Q, err = strconv.ParseFloat(val, 64); err != nil || o.Q <= 0 || o.Q >= 1 {
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
			case "fast":
				if o.Fast, err = time.ParseDuration(val); err != nil || o.Fast <= 0 {
					return nil, fmt.Errorf("series: bad fast window %q in %q", val, raw)
				}
			case "page":
				if o.PageFactor, err = strconv.ParseFloat(val, 64); err != nil || o.PageFactor <= 0 {
					return nil, fmt.Errorf("series: bad page factor %q in %q", val, raw)
				}
			case "warn":
				if o.WarnFactor, err = strconv.ParseFloat(val, 64); err != nil || o.WarnFactor <= 0 {
					return nil, fmt.Errorf("series: bad warn factor %q in %q", val, raw)
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
// (returned in seconds).
func parseThreshold(val string) (float64, error) {
	if strings.HasSuffix(val, "%") {
		p, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
		if err != nil {
			return 0, fmt.Errorf("bad percentage %q", val)
		}
		return p / 100, nil
	}
	if f, err := strconv.ParseFloat(val, 64); err == nil {
		return f, nil
	}
	if d, err := time.ParseDuration(val); err == nil && d > 0 {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("bad threshold %q", val)
}

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
	Name      string        `json:"name"`
	Kind      ObjectiveKind `json:"kind"`
	Objective string        `json:"objective"`
	Time      time.Time     `json:"time"`
	// SLI is the bad fraction over the long window (0 when no events).
	SLI float64 `json:"sli"`
	// Quantile is the measured latency quantile over the long window
	// (latency objectives only; NaN serialized as 0 when unobserved).
	Quantile float64 `json:"quantile,omitempty"`
	// BurnLong and BurnShort are SLI/budget over the two windows: 1.0
	// burns the error budget exactly as fast as the objective allows.
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	// Bad and Total are the long-window event counts behind SLI.
	Bad   float64 `json:"bad"`
	Total float64 `json:"total"`
	// Violating reports the SLI itself out of bounds over the long
	// window (burn > 1) — the offline violation-span criterion.
	Violating bool  `json:"violating"`
	State     State `json:"state"`
}

// Evaluate computes one objective's Status at now from any Source.
func Evaluate(src Source, o Objective, now time.Time) Status {
	st := Status{Name: o.Name, Kind: o.Kind, Objective: o.String(), Time: now}
	badL, totalL := o.counts(src, now.Add(-o.window()), now)
	badS, totalS := o.counts(src, now.Add(-o.fast()), now)
	st.Bad, st.Total = badL, totalL
	st.SLI = ratio(badL, totalL)
	st.BurnLong = st.SLI / o.budget()
	st.BurnShort = ratio(badS, totalS) / o.budget()
	if o.Kind == Latency {
		if delta, ok := sumHistIncrease(src, o.Hist, now.Add(-o.window()), now); ok && delta.Count > 0 {
			st.Quantile = delta.Quantile(o.Q)
		}
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

// counts returns the (bad, total) event counts of the objective over
// points in (since, until].
func (o Objective) counts(src Source, since, until time.Time) (bad, total float64) {
	switch o.Kind {
	case Latency:
		delta, ok := sumHistIncrease(src, o.Hist, since, until)
		if !ok || delta.Count == 0 {
			return 0, 0
		}
		total = float64(delta.Count)
		bad = total - delta.CountBelow(o.Max)
		if bad < 0 {
			bad = 0
		}
		return bad, total
	default:
		return sumIncrease(src, o.Bad, since, until), sumIncrease(src, o.Total, since, until)
	}
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// Transition is one recorded alert-state change.
type Transition struct {
	Time     time.Time `json:"time"`
	Name     string    `json:"name"`
	From, To State     `json:"-"`
	FromS    string    `json:"from"`
	ToS      string    `json:"to"`
	Burn     float64   `json:"burn"`
}

const maxTransitions = 256

// Engine evaluates a set of objectives against a Source on every
// collector tick, exports slo_* gauges, records state transitions, and
// serves the /debug/slo report. Attach it with
// collector.OnSample(engine.Eval). A nil Engine is a no-op.
type Engine struct {
	src  Source
	objs []Objective

	mu          sync.Mutex
	cur         []Status
	transitions []Transition
	onTrans     []func(Transition)

	gState []*obs.Gauge
	gBurn  []*obs.Gauge
	gSLI   []*obs.Gauge
}

// NewEngine builds an engine over src. When reg is non-nil the engine
// exports, per objective: slo_state (0 ok, 1 warn, 2 page),
// slo_burn_rate_milli (long-window burn rate x1000), and slo_sli_ppm
// (long-window bad fraction, parts per million) — sampled by the same
// collector on the next tick, so SLO health is itself a time series.
func NewEngine(src Source, objs []Objective, reg *obs.Registry) *Engine {
	e := &Engine{src: src, objs: objs, cur: make([]Status, len(objs))}
	reg.Help("slo_state", "Objective alert state: 0 ok, 1 warn, 2 page.")
	reg.Help("slo_burn_rate_milli", "Long-window error-budget burn rate, x1000.")
	reg.Help("slo_sli_ppm", "Long-window bad-event fraction, parts per million.")
	for _, o := range objs {
		label := obs.Label{Key: obs.KeySLO, Value: o.Name}
		e.gState = append(e.gState, reg.Gauge("slo_state", label))
		e.gBurn = append(e.gBurn, reg.Gauge("slo_burn_rate_milli", label))
		e.gSLI = append(e.gSLI, reg.Gauge("slo_sli_ppm", label))
	}
	return e
}

// OnTransition registers fn to run after every recorded state change —
// the hook the continuous profiler uses to fire an anomaly capture the
// moment an objective pages. Callbacks run outside the engine's lock,
// after the Eval pass that produced them, in registration order; they
// must not block for long (they run on the collector's sample tick).
// Nil engine or fn is a no-op.
func (e *Engine) OnTransition(fn func(Transition)) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.onTrans = append(e.onTrans, fn)
	e.mu.Unlock()
}

// Eval evaluates every objective at now. Meant to be registered via
// Collector.OnSample so evaluation follows each fresh sample.
func (e *Engine) Eval(now time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	var fired []Transition
	for i, o := range e.objs {
		st := Evaluate(e.src, o, now)
		if prev := e.cur[i]; prev.State != st.State && !prev.Time.IsZero() {
			tr := Transition{
				Time: now, Name: o.Name,
				From: prev.State, To: st.State,
				FromS: prev.State.String(), ToS: st.State.String(),
				Burn: st.BurnLong,
			}
			e.transitions = append(e.transitions, tr)
			if len(e.transitions) > maxTransitions {
				e.transitions = e.transitions[len(e.transitions)-maxTransitions:]
			}
			fired = append(fired, tr)
		}
		e.cur[i] = st
		e.gState[i].Set(int64(st.State))
		e.gBurn[i].Set(int64(math.Round(st.BurnLong * 1000)))
		e.gSLI[i].Set(int64(math.Round(st.SLI * 1e6)))
	}
	callbacks := e.onTrans
	e.mu.Unlock()
	// Outside the lock: a callback may call back into the engine (e.g.
	// Statuses from a capture trigger) without deadlocking.
	for _, tr := range fired {
		for _, fn := range callbacks {
			fn(tr)
		}
	}
}

// Statuses returns the most recent evaluation of every objective.
func (e *Engine) Statuses() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Status(nil), e.cur...)
}

// Transitions returns the recorded state changes, oldest first.
func (e *Engine) Transitions() []Transition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.transitions...)
}

// ServeHTTP serves the SLO report: a text summary by default, JSON with
// ?format=json. A nil engine serves an empty report.
func (e *Engine) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	statuses, transitions := e.Statuses(), e.Transitions()
	if req.URL.Query().Get("format") == "json" ||
		strings.Contains(req.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck — best effort to a dead client
			Objectives  []Status     `json:"objectives"`
			Transitions []Transition `json:"transitions"`
		}{statuses, transitions})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, st := range statuses {
		fmt.Fprintf(w, "%-20s %-50s state=%-4s burn=%.2f (short %.2f) sli=%.4g%%",
			st.Name, st.Objective, st.State, st.BurnLong, st.BurnShort, st.SLI*100)
		if st.Kind == Latency && st.Quantile > 0 && !math.IsNaN(st.Quantile) {
			fmt.Fprintf(w, " measured=%s",
				time.Duration(st.Quantile*float64(time.Second)).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	if len(transitions) > 0 {
		fmt.Fprintln(w, "\nrecent transitions:")
		for _, tr := range transitions {
			fmt.Fprintf(w, "  %s  %-20s %s -> %s (burn %.2f)\n",
				tr.Time.Format(time.RFC3339), tr.Name, tr.From, tr.To, tr.Burn)
		}
	}
}
