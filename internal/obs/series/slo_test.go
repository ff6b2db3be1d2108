package series

import (
	"math"
	"testing"
	"time"

	"gplus/internal/obs"
)

func TestParseObjectives(t *testing.T) {
	spec := `availability,error_ratio,bad=api_responses_total{code="503"}+api_transport_errors_total,total=api_responses_total,max=1%,window=2m;` +
		`latency,latency,hist=svc_seconds,q=0.99,max=250ms`
	objs, err := ParseObjectives(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives", len(objs))
	}
	a := objs[0]
	if a.Name != "availability" || a.Kind != ErrorRatio {
		t.Errorf("first objective: %+v", a)
	}
	// The comma inside the label selector must not split the option.
	if len(a.Bad) != 2 || a.Bad[0] != `api_responses_total{code="503"}` {
		t.Errorf("bad selectors: %v", a.Bad)
	}
	if a.Max != 0.01 || a.Window != 2*time.Minute {
		t.Errorf("options: %+v", a)
	}
	l := objs[1]
	if l.Kind != Latency || l.Q != 0.99 || l.Max != 0.25 {
		t.Errorf("latency objective: %+v", l)
	}
	// Defaults.
	if a.fast() != a.window()/12 || a.pageFactor() != 14.4 || a.warnFactor() != 6 {
		t.Errorf("defaults: fast=%v page=%g warn=%g", a.fast(), a.pageFactor(), a.warnFactor())
	}
	// The short window and the burn-rate factors are set in Go only.
	set := Objective{Fast: 10 * time.Second, PageFactor: 10, WarnFactor: 5}
	if set.fast() != 10*time.Second || set.pageFactor() != 10 || set.warnFactor() != 5 {
		t.Errorf("set: fast=%v page=%g warn=%g", set.fast(), set.pageFactor(), set.warnFactor())
	}
	if b := l.budget(); math.Abs(b-0.01) > 1e-9 {
		t.Errorf("latency budget = %g, want 1-q", b)
	}

	bad := []string{
		"",
		"nameonly",
		"x,bogus_kind",
		"x,error_ratio,bad=b,total=t",          // missing max
		"x,error_ratio,bad=b,total=t,max=150%", // ratio out of range
		"x,latency,hist=h,q=1.5,max=250ms",     // q out of range
		"x,latency,q=0.99,max=250ms",           // missing hist
		"x,error_ratio,bad=b,total=t,max=1%,zz=1", // unknown option
		"x,error_ratio,bad=b,total=t,max=1%,window=-1s",
		`x,error_ratio,bad=b{code=503},total=t,max=1%`, // selector is not a series name
		`x,latency,hist=h{le="1"}x,q=0.99,max=250ms`,
		"x,error_ratio,bad=b,total=t,max=1%,fast=10s", // not in the grammar
		"x,latency,hist=h,q=0.99,max=250ms,page=10",
		"x,latency,hist=h,q=0.99,max=250ms,warn=5",
		// Non-finite numbers parse as floats, and NaN passes every range check.
		"x,latency,hist=h,q=NaN,max=250ms",
		"x,error_ratio,bad=b,total=t,max=NaN",
		"x,error_ratio,bad=b,total=t,max=NaN%",
		"x,latency,hist=h,q=0.99,max=+Inf",
		"x,latency,hist=h,q=0.99,max=Inf%",
	}
	for _, spec := range bad {
		if _, err := ParseObjectives(spec); err == nil {
			t.Errorf("ParseObjectives(%q) should fail", spec)
		}
	}
}

func TestParseThreshold(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1%", 0.01},
		{"0.05", 0.05},
		{"250ms", 0.25},
		{"2s", 2},
	}
	for _, c := range cases {
		got, err := parseThreshold(c.in)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("parseThreshold(%q) = %g, %v; want %g", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"wat", "NaN", "nan", "+Inf", "-Inf", "inf", "NaN%", "Inf%", "1e400"} {
		if got, err := parseThreshold(in); err == nil {
			t.Errorf("parseThreshold(%q) = %g, should fail", in, got)
		}
	}
}

// TestBurnRateStateTransitions drives an error-ratio objective through
// healthy traffic, an outage, and recovery under the live watcher,
// asserting the multi-window state machine pages during the outage and
// resolves after it, and that PageOnset names the objective at exactly
// the ticks its state became PAGE.
func TestBurnRateStateTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	bad := reg.Counter("errs_total")
	total := reg.Counter("reqs_total")
	c := NewCollector(reg, Options{Capacity: 128})
	o := Objective{
		Name: "avail", Kind: ErrorRatio,
		Bad: []string{"errs_total"}, Total: []string{"reqs_total"},
		Max: 0.01, Window: 20 * time.Second, Fast: 5 * time.Second,
	}
	var reports []*HealthReport
	Watch(c, Signals{Objectives: []Objective{o}}, func(r *HealthReport) { reports = append(reports, r) })
	now := func() Status { return reports[len(reports)-1].Statuses[0] }

	n := 0
	step := func(times int, errs, reqs int64) {
		for i := 0; i < times; i++ {
			bad.Add(errs)
			total.Add(reqs)
			c.Sample(tick(n))
			n++
		}
	}
	step(10, 0, 100) // healthy: 100 req/s, no errors
	if st := now(); st.State != StateOK {
		t.Fatalf("healthy traffic: state = %v", st.State)
	}
	step(10, 50, 100) // outage: 50% errors
	if st := now(); st.State != StatePage || !st.Violating {
		t.Fatalf("outage: state = %v violating=%v (burn long %.2f short %.2f)", st.State, st.Violating, st.BurnLong, st.BurnShort)
	}
	step(30, 0, 100) // recovery: long window drains
	if st := now(); st.State != StateOK {
		t.Fatalf("recovered: state = %v", st.State)
	}

	onsets := 0
	for i, r := range reports {
		paged := r.Statuses[0].State == StatePage && i > 0 && reports[i-1].Statuses[0].State != StatePage
		if got := len(r.PageOnset) > 0; got != paged || got && r.PageOnset[0] != "avail" {
			t.Errorf("tick %d: PageOnset = %v, want an onset iff the state became PAGE there", i, r.PageOnset)
		}
		if paged {
			onsets++
		}
	}
	if onsets == 0 {
		t.Error("the outage never paged")
	}
}

// TestLatencyObjective drives a latency SLO from fast to slow requests.
func TestLatencyObjective(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("svc_seconds", nil)
	c := NewCollector(reg, Options{Capacity: 128})
	o := Objective{
		Name: "lat", Kind: Latency,
		Hist: "svc_seconds", Q: 0.99, Max: 0.25,
		Window: 20 * time.Second, Fast: 5 * time.Second,
	}

	n := 0
	step := func(observe float64, count int) Status {
		for i := 0; i < count; i++ {
			h.Observe(observe)
		}
		c.Sample(tick(n))
		n++
		return evaluate(c.Store, o, tick(n-1))
	}

	step(0.01, 100) // baseline tick so increases exist
	var st Status
	for i := 0; i < 5; i++ {
		st = step(0.01, 100)
	}
	if st.State != StateOK || st.Violating {
		t.Fatalf("fast traffic: %+v", st)
	}
	if st.Quantile <= 0 || st.Quantile > 0.025 {
		t.Errorf("fast p99 = %g, want within the 10ms bucket's neighborhood", st.Quantile)
	}
	for i := 0; i < 8; i++ { // every request slower than the bound
		st = step(0.5, 100)
	}
	if st.State != StatePage || !st.Violating {
		t.Fatalf("slow traffic: %+v", st)
	}
	// With all requests above Max the bad fraction is ~1 and the burn is
	// ~1/budget = ~100.
	if st.BurnLong < 30 {
		t.Errorf("slow burn = %g, want near 1/budget", st.BurnLong)
	}
	if st.Quantile < 0.25 {
		t.Errorf("slow p99 = %g, want above the bound", st.Quantile)
	}
}

func TestDefaultObjectiveSets(t *testing.T) {
	for _, objs := range [][]Objective{DefaultCrawlObjectives(), DefaultGplusdObjectives()} {
		if len(objs) == 0 {
			t.Fatal("empty default objective set")
		}
		for _, o := range objs {
			if o.Name == "" || o.budget() <= 0 || o.budget() >= 1 {
				t.Errorf("objective %+v has a degenerate budget", o)
			}
			if o.String() == "" {
				t.Errorf("objective %q renders empty", o.Name)
			}
		}
	}
}
