package gplusd

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gplus/internal/obs"
	"gplus/internal/obs/trace"
)

// Chaos mode: random 503s are only one failure shape. A crawl that is
// expected to run for 45 days (§2.2) meets every other shape too — slow
// responses, connections that hang past the client's timeout, mid-body
// resets, and whole-service outage windows. FaultSpec describes a suite of such
// faults, all drawn from seed-deterministic RNG streams, so the
// crawler's retry/backoff/resume machinery can be tested against a
// service that misbehaves the way real ones do.

// FaultKind names one shape of injected misbehavior.
type FaultKind string

const (
	// FaultUnavailable answers 503 with a short Retry-After hint.
	FaultUnavailable FaultKind = "unavailable"
	// FaultDelay sleeps before serving the request normally.
	FaultDelay FaultKind = "delay"
	// FaultHang holds the connection open (Delay long, default 30s —
	// configure it past the client's timeout) and then drops it without
	// a response.
	FaultHang FaultKind = "hang"
	// FaultReset serves the real response but cuts the connection after
	// a few bytes of body, leaving the client a torn read.
	FaultReset FaultKind = "reset"
	// FaultOutage takes the whole service down for scheduled windows:
	// down for Down at the start of every Every-long period, measured
	// from server start. Outage responses carry a Retry-After hint for
	// the remainder of the window.
	FaultOutage FaultKind = "outage"
	// FaultBrownout degrades the service over scheduled windows instead
	// of killing it: severity ramps 0→1→0 over the Down window at the
	// start of every Every-long period (a triangular ramp, so the squeeze
	// arrives and recedes gradually the way real overload does). At
	// severity s every matching request gains s×Delay extra latency, and
	// the admission limit is multiplied by 1−s×Squeeze.
	// The schedule is purely time-driven — no RNG — so a brownout crawl
	// is as reproducible as the fault-free one.
	FaultBrownout FaultKind = "brownout"
)

// FaultRule is one injection rule of a chaos spec.
type FaultRule struct {
	Kind FaultKind
	// Endpoint scopes the rule to "profile", "circles", "stats", or
	// "seed"; empty applies to every simulator endpoint. /metrics is
	// never faulted — monitoring must work exactly when the service
	// misbehaves.
	Endpoint string
	// Rate is the per-request injection probability in [0, 1]. Outage
	// rules ignore it (they are purely time-scheduled).
	Rate float64
	// Delay is the added latency of delay rules, the hold time of hang
	// rules (default 30s), and the peak added latency of brownout rules.
	Delay time.Duration
	// Every and Down schedule outage and brownout rules.
	Every, Down time.Duration
	// Squeeze is the peak capacity reduction of brownout rules in
	// [0, 1]: at full severity the admission concurrency limit is
	// multiplied by 1−Squeeze. It only takes effect when the server runs
	// with an admission limit (Options.Admission).
	Squeeze float64
}

// FaultSpec is a chaos-mode fault suite. All probabilistic rules draw
// from PCG streams derived from Seed, keeping injection reproducible.
type FaultSpec struct {
	Seed  uint64
	Rules []FaultRule
}

// ParseFaultSpec parses the -chaos flag grammar: rules separated by
// ';', each rule a kind followed by comma-separated key=value options:
//
//	unavailable,endpoint=profile,rate=0.2
//	delay,rate=0.1,delay=150ms
//	hang,rate=0.01,delay=90s
//	reset,endpoint=circles,rate=0.05
//	outage,every=10m,down=45s
//	brownout,every=60s,down=20s,delay=200ms,squeeze=0.75
//
// "503" is accepted as an alias for "unavailable". The returned spec has
// Seed zero; callers set it (gplusd uses its universe seed).
func ParseFaultSpec(s string) (*FaultSpec, error) {
	spec := &FaultSpec{}
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		fields := strings.Split(raw, ",")
		rule := FaultRule{Kind: FaultKind(strings.TrimSpace(fields[0]))}
		if rule.Kind == "503" {
			rule.Kind = FaultUnavailable
		}
		switch rule.Kind {
		case FaultUnavailable, FaultDelay, FaultHang, FaultReset, FaultOutage, FaultBrownout:
		default:
			return nil, fmt.Errorf("gplusd: unknown fault kind %q in rule %q", fields[0], raw)
		}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("gplusd: fault option %q is not key=value in rule %q", f, raw)
			}
			var err error
			switch key {
			case "endpoint":
				switch val {
				case "profile", "circles", "stats", "seed":
					rule.Endpoint = val
				default:
					return nil, fmt.Errorf("gplusd: unknown endpoint %q in rule %q", val, raw)
				}
			case "rate":
				if rule.Rate, err = strconv.ParseFloat(val, 64); err != nil || rule.Rate < 0 || rule.Rate > 1 {
					return nil, fmt.Errorf("gplusd: rate %q out of [0,1] in rule %q", val, raw)
				}
			case "delay":
				if rule.Delay, err = time.ParseDuration(val); err != nil || rule.Delay <= 0 {
					return nil, fmt.Errorf("gplusd: bad delay %q in rule %q", val, raw)
				}
			case "every":
				if rule.Every, err = time.ParseDuration(val); err != nil || rule.Every <= 0 {
					return nil, fmt.Errorf("gplusd: bad every %q in rule %q", val, raw)
				}
			case "down":
				if rule.Down, err = time.ParseDuration(val); err != nil || rule.Down <= 0 {
					return nil, fmt.Errorf("gplusd: bad down %q in rule %q", val, raw)
				}
			case "squeeze":
				if rule.Squeeze, err = strconv.ParseFloat(val, 64); err != nil || rule.Squeeze < 0 || rule.Squeeze > 1 {
					return nil, fmt.Errorf("gplusd: squeeze %q out of [0,1] in rule %q", val, raw)
				}
			default:
				return nil, fmt.Errorf("gplusd: unknown fault option %q in rule %q", key, raw)
			}
		}
		if err := rule.validate(); err != nil {
			return nil, fmt.Errorf("%w in rule %q", err, raw)
		}
		spec.Rules = append(spec.Rules, rule)
	}
	if len(spec.Rules) == 0 {
		return nil, fmt.Errorf("gplusd: chaos spec %q contains no rules", s)
	}
	return spec, nil
}

func (r FaultRule) validate() error {
	switch r.Kind {
	case FaultOutage:
		if r.Every <= 0 || r.Down <= 0 {
			return fmt.Errorf("gplusd: outage rules need every= and down=")
		}
		if r.Down > r.Every {
			return fmt.Errorf("gplusd: outage down %v exceeds its period %v", r.Down, r.Every)
		}
	case FaultBrownout:
		if r.Every <= 0 || r.Down <= 0 {
			return fmt.Errorf("gplusd: brownout rules need every= and down=")
		}
		if r.Down > r.Every {
			return fmt.Errorf("gplusd: brownout down %v exceeds its period %v", r.Down, r.Every)
		}
		if r.Delay <= 0 && r.Squeeze <= 0 {
			return fmt.Errorf("gplusd: brownout rules need delay= and/or squeeze=")
		}
	case FaultDelay:
		if r.Delay <= 0 {
			return fmt.Errorf("gplusd: delay rules need delay=")
		}
		fallthrough
	default:
		if r.Rate <= 0 {
			return fmt.Errorf("gplusd: %s rules need rate=", r.Kind)
		}
	}
	return nil
}

// chaos is the armed form of a FaultSpec inside a Server: per-rule RNG
// pools, the outage clock, and per-kind injection counters.
type chaos struct {
	rules []chaosRule
	start time.Time
}

type chaosRule struct {
	FaultRule
	src  *faultSource // nil for outage rules
	hits *obs.Counter
}

func newChaos(spec *FaultSpec, reg *obs.Registry) *chaos {
	if spec == nil || len(spec.Rules) == 0 {
		return nil
	}
	reg.Help("gplusd_chaos_faults_total", "Chaos faults injected, by kind.")
	c := &chaos{start: time.Now()}
	for i, r := range spec.Rules {
		cr := chaosRule{
			FaultRule: r,
			hits:      reg.Counter("gplusd_chaos_faults_total", obs.Label{Key: obs.KeyChaos, Value: string(r.Kind)}),
		}
		if r.Kind != FaultOutage {
			// Distinct derived seed per rule keeps the rules' streams
			// decorrelated while still reproducible from the spec seed.
			cr.src = newFaultSource(r.Rate, spec.Seed^(uint64(i+1)*0x9e3779b97f4a7c15))
		}
		c.rules = append(c.rules, cr)
	}
	return c
}

// outageRemaining reports whether the service is inside this rule's
// scheduled outage window and how long the window has left.
func (r *chaosRule) outageRemaining(since time.Duration) (time.Duration, bool) {
	phase := since % r.Every
	if phase < r.Down {
		return r.Down - phase, true
	}
	return 0, false
}

// brownoutSeverity is the triangular severity ramp of a brownout rule
// at the given offset from server start: 0 outside the Down window,
// rising linearly to 1 at the window's midpoint and back to 0 at its
// end. Purely a function of time, so identical across runs.
func (r *chaosRule) brownoutSeverity(since time.Duration) float64 {
	phase := since % r.Every
	if phase >= r.Down {
		return 0
	}
	x := float64(phase) / float64(r.Down) // in [0, 1)
	return 1 - absFloat(2*x-1)
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// admissionScale is the multiplier the admission limit should apply
// right now: the most severe squeeze across all active brownout rules
// (1 = full capacity). Nil-safe.
func (c *chaos) admissionScale() float64 {
	if c == nil {
		return 1
	}
	since := time.Since(c.start)
	scale := 1.0
	for i := range c.rules {
		rule := &c.rules[i]
		if rule.Kind != FaultBrownout || rule.Squeeze <= 0 {
			continue
		}
		if s := 1 - rule.Squeeze*rule.brownoutSeverity(since); s < scale {
			scale = s
		}
	}
	return scale
}

// stateLabel names the chaos regime the server is in right now —
// "outage", "brownout", or "none" — for the pprof label on request
// handling, so server CPU captures can be split into in-chaos and
// steady-state windows. Nil-safe.
func (c *chaos) stateLabel() string {
	if c == nil {
		return obs.ChaosNone
	}
	since := time.Since(c.start)
	label := obs.ChaosNone
	for i := range c.rules {
		rule := &c.rules[i]
		switch rule.Kind {
		case FaultOutage:
			if _, down := rule.outageRemaining(since); down {
				return string(FaultOutage) // a hard outage trumps any squeeze
			}
		case FaultBrownout:
			if rule.brownoutSeverity(since) > 0 {
				label = string(FaultBrownout)
			}
		}
	}
	return label
}

// hasBrownout reports whether any rule squeezes capacity, i.e. whether
// the admission limit needs the chaos clock as its scale.
func (c *chaos) hasBrownout() bool {
	if c == nil {
		return false
	}
	for i := range c.rules {
		if c.rules[i].Kind == FaultBrownout && c.rules[i].Squeeze > 0 {
			return true
		}
	}
	return false
}

// endpointOf classifies a request path into the endpoint vocabulary, for
// per-endpoint fault scoping, span names and pprof labels.
func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/people/") && strings.Contains(path, "/circles/"):
		return obs.EndpointCircles
	case strings.HasPrefix(path, "/people/"):
		return obs.EndpointProfile
	case path == "/stats":
		return obs.EndpointStats
	case path == "/seed":
		return obs.EndpointSeed
	}
	return obs.EndpointOther
}

// serveChaos evaluates the fault suite for one request of endpoint ep
// and then serves it. Terminal faults (outage, unavailable, hang) end
// the request here; delay falls through after sleeping; reset wraps the
// response writer so the real handler's body is cut mid-stream.
func (s *Server) serveChaos(w http.ResponseWriter, r *http.Request, ep string) {
	out := w
	for i := range s.chaos.rules {
		rule := &s.chaos.rules[i]
		if rule.Endpoint != "" && rule.Endpoint != ep {
			continue
		}
		switch rule.Kind {
		case FaultOutage:
			if remaining, down := rule.outageRemaining(time.Since(s.chaos.start)); down {
				rule.hits.Inc()
				trace.SpanFromContext(r.Context()).Fail("chaos: scheduled outage")
				refuse(w, http.StatusServiceUnavailable, remaining, "chaos: scheduled outage")
				return
			}
		case FaultUnavailable:
			if rule.src.hit() {
				rule.hits.Inc()
				trace.SpanFromContext(r.Context()).Fail("chaos: injected 503")
				refuse(w, http.StatusServiceUnavailable, 50*time.Millisecond, "chaos: transient backend error")
				return
			}
		case FaultDelay:
			if rule.src.hit() {
				rule.hits.Inc()
				_, dsp := s.tracer.StartSpan(r.Context(), "chaos.delay")
				dsp.Annotate("delay", rule.Delay.String())
				select {
				case <-r.Context().Done():
					dsp.Finish()
					return
				case <-time.After(rule.Delay):
				}
				dsp.Finish()
			}
		case FaultBrownout:
			sev := rule.brownoutSeverity(time.Since(s.chaos.start))
			if sev > 0 && rule.Delay > 0 {
				rule.hits.Inc()
				add := time.Duration(sev * float64(rule.Delay))
				_, bsp := s.tracer.StartSpan(r.Context(), "chaos.brownout")
				bsp.Annotate("severity", strconv.FormatFloat(sev, 'f', 3, 64))
				bsp.Annotate("delay", add.String())
				select {
				case <-r.Context().Done():
					bsp.Finish()
					return
				case <-time.After(add):
				}
				bsp.Finish()
			}
		case FaultHang:
			if rule.src.hit() {
				rule.hits.Inc()
				hold := rule.Delay
				if hold <= 0 {
					hold = 30 * time.Second
				}
				_, hsp := s.tracer.StartSpan(r.Context(), "chaos.hang")
				select {
				case <-r.Context().Done():
					// The client gave up first — exactly the point.
				case <-time.After(hold):
				}
				hsp.Fail("connection dropped after hang")
				hsp.Finish()
				panic(http.ErrAbortHandler)
			}
		case FaultReset:
			if rule.src.hit() {
				rule.hits.Inc()
				trace.SpanFromContext(r.Context()).Annotate(obs.KeyChaos, string(FaultReset))
				out = &cutoffWriter{ResponseWriter: out, remaining: 1 + int(rule.src.draw()*31)}
			}
		}
	}
	rctx, rsp := s.tracer.StartSpan(r.Context(), "render")
	defer rsp.Finish()
	s.mux.ServeHTTP(out, r.WithContext(rctx))
}

// cutoffWriter forwards a response until its byte allowance runs out,
// then flushes what was sent and destroys the connection — the client
// sees a well-formed header followed by a torn body.
type cutoffWriter struct {
	http.ResponseWriter
	remaining int
}

func (c *cutoffWriter) Write(p []byte) (int, error) {
	if len(p) < c.remaining {
		c.remaining -= len(p)
		return c.ResponseWriter.Write(p)
	}
	c.ResponseWriter.Write(p[:c.remaining]) //nolint:errcheck — the connection is being destroyed
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}
