package gplusd

import (
	"math"
	"testing"
	"time"

	"gplus/internal/obs"
)

func TestParseFaultSpecBrownout(t *testing.T) {
	spec, err := ParseFaultSpec("brownout,every=60s,down=20s,delay=200ms,squeeze=0.75")
	if err != nil {
		t.Fatalf("ParseFaultSpec: %v", err)
	}
	want := FaultRule{
		Kind:    FaultBrownout,
		Every:   time.Minute,
		Down:    20 * time.Second,
		Delay:   200 * time.Millisecond,
		Squeeze: 0.75,
	}
	if spec.Rules[0] != want {
		t.Fatalf("rule = %+v, want %+v", spec.Rules[0], want)
	}
	// Latency-only and squeeze-only brownouts are both legal.
	if _, err := ParseFaultSpec("brownout,every=10s,down=5s,delay=50ms"); err != nil {
		t.Errorf("latency-only brownout rejected: %v", err)
	}
	if _, err := ParseFaultSpec("brownout,every=10s,down=5s,squeeze=0.5"); err != nil {
		t.Errorf("squeeze-only brownout rejected: %v", err)
	}
}

func TestParseFaultSpecBrownoutRejectsGarbage(t *testing.T) {
	cases := []string{
		"brownout,every=60s,down=20s",              // neither delay nor squeeze
		"brownout,down=20s,delay=50ms",             // missing every
		"brownout,every=60s,delay=50ms",            // missing down
		"brownout,every=10s,down=20s,delay=50ms",   // down exceeds period
		"brownout,every=60s,down=20s,squeeze=1.5",  // squeeze out of range
		"brownout,every=60s,down=20s,squeeze=-0.1", // negative squeeze
		"brownout,every=60s,down=20s,squeeze=wat",  // non-numeric squeeze
	}
	for _, c := range cases {
		if _, err := ParseFaultSpec(c); err == nil {
			t.Errorf("spec %q accepted", c)
		}
	}
}

// TestBrownoutSeverityTriangle checks the deterministic severity ramp:
// 0 at the window edges, 1 at the midpoint, linear in between, and 0
// outside the Down window.
func TestBrownoutSeverityTriangle(t *testing.T) {
	r := chaosRule{FaultRule: FaultRule{Kind: FaultBrownout, Every: 60 * time.Second, Down: 20 * time.Second, Delay: 100 * time.Millisecond}}
	cases := []struct {
		since time.Duration
		want  float64
	}{
		{0, 0},
		{5 * time.Second, 0.5},
		{10 * time.Second, 1},
		{15 * time.Second, 0.5},
		{20 * time.Second, 0},   // window just closed
		{40 * time.Second, 0},   // quiet part of the period
		{65 * time.Second, 0.5}, // second period, ramping again
		{70 * time.Second, 1},
	}
	for _, c := range cases {
		if got := r.brownoutSeverity(c.since); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("severity(%v) = %v, want %v", c.since, got, c.want)
		}
	}
}

func TestBrownoutAdmissionScale(t *testing.T) {
	spec := &FaultSpec{Seed: 1, Rules: []FaultRule{
		{Kind: FaultBrownout, Every: 60 * time.Second, Down: 20 * time.Second, Squeeze: 0.8},
	}}
	c := newChaos(spec, obs.NewRegistry())
	if c == nil {
		t.Fatal("newChaos returned nil for a brownout spec")
	}
	if !c.hasBrownout() {
		t.Fatal("hasBrownout() = false")
	}
	// At peak severity the scale bottoms out at 1-Squeeze; we can't pin
	// the wall clock, so assert the envelope instead.
	scale := c.admissionScale()
	if scale < 1-0.8-1e-9 || scale > 1+1e-9 {
		t.Fatalf("admissionScale() = %v, want within [0.2, 1]", scale)
	}
}

func TestBrownoutScaleFloorsAtOne(t *testing.T) {
	// A chaos config without brownout rules always reports scale 1.
	spec := &FaultSpec{Seed: 1, Rules: []FaultRule{
		{Kind: FaultDelay, Rate: 0.5, Delay: time.Millisecond},
	}}
	c := newChaos(spec, obs.NewRegistry())
	if c.hasBrownout() {
		t.Fatal("hasBrownout() = true for a delay-only spec")
	}
	if got := c.admissionScale(); got != 1 {
		t.Fatalf("admissionScale() = %v, want 1", got)
	}
}
