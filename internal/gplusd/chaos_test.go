package gplusd

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec(
		"unavailable,endpoint=profile,rate=0.2; delay,rate=0.1,delay=150ms;" +
			"hang,rate=0.01,delay=90s;reset,endpoint=circles,rate=0.05;outage,every=10m,down=45s")
	if err != nil {
		t.Fatalf("ParseFaultSpec: %v", err)
	}
	if len(spec.Rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(spec.Rules))
	}
	want := []FaultRule{
		{Kind: FaultUnavailable, Endpoint: "profile", Rate: 0.2},
		{Kind: FaultDelay, Rate: 0.1, Delay: 150 * time.Millisecond},
		{Kind: FaultHang, Rate: 0.01, Delay: 90 * time.Second},
		{Kind: FaultReset, Endpoint: "circles", Rate: 0.05},
		{Kind: FaultOutage, Every: 10 * time.Minute, Down: 45 * time.Second},
	}
	for i, w := range want {
		if spec.Rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, spec.Rules[i], w)
		}
	}
	// "503" aliases unavailable.
	spec, err = ParseFaultSpec("503,rate=1")
	if err != nil || spec.Rules[0].Kind != FaultUnavailable {
		t.Errorf("503 alias: %+v, %v", spec, err)
	}
}

func TestParseFaultSpecRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                           // no rules
		"explode,rate=0.5",           // unknown kind
		"unavailable",                // missing rate
		"unavailable,rate=1.5",       // rate out of range
		"unavailable,rate=1,wat=1",   // unknown option
		"unavailable,rate",           // not key=value
		"delay,rate=0.5",             // delay without delay=
		"outage,every=1m",            // outage without down=
		"outage,every=1m,down=2m",    // down exceeds period
		"reset,endpoint=nope,rate=1", // unknown endpoint
		"hang,rate=1,delay=-5s",      // negative duration
	}
	for _, c := range cases {
		if _, err := ParseFaultSpec(c); err == nil {
			t.Errorf("spec %q accepted", c)
		}
	}
}

func TestChaosUnavailableScopedToEndpoint(t *testing.T) {
	srv, c := startServer(t, Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultUnavailable, Endpoint: "profile", Rate: 1},
		}},
	})
	c.MaxRetries = 1
	ctx := context.Background()
	if _, err := c.FetchProfile(ctx, srv.content.IDs[0]); err == nil {
		t.Fatal("profile fetch should fail under rate-1 unavailable chaos")
	}
	// Circle fetches are out of scope and must work.
	if _, err := c.FetchCircle(ctx, srv.content.IDs[0], "out", "", 5); err != nil {
		t.Fatalf("circle fetch faulted outside its endpoint scope: %v", err)
	}
	snap := srv.metrics.Snapshot()
	if snap.Counters[`gplusd_chaos_faults_total{chaos="unavailable"}`] == 0 {
		t.Error("chaos injection counter not incremented")
	}
}

func TestChaosDelaySlowsButServes(t *testing.T) {
	srv, c := startServer(t, Options{
		Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{
			{Kind: FaultDelay, Rate: 1, Delay: 60 * time.Millisecond},
		}},
	})
	start := time.Now()
	if _, err := c.FetchProfile(context.Background(), srv.content.IDs[0]); err != nil {
		t.Fatalf("delayed fetch failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("request took %v, under the injected 60ms delay", elapsed)
	}
}

func TestChaosOutageServes503WithHint(t *testing.T) {
	// A window as long as its period: permanently inside the outage.
	srv := New(serverUniverse(t), Options{
		Faults: &FaultSpec{Rules: []FaultRule{
			{Kind: FaultOutage, Every: time.Hour, Down: time.Hour},
		}},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/people/" + srv.content.IDs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d during outage, want 503", resp.StatusCode)
	}
	secs, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil || secs <= 0 || secs > 3600 {
		t.Errorf("Retry-After = %q, want remaining outage seconds", resp.Header.Get("Retry-After"))
	}
	// The monitoring path must keep working through the outage.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics during outage: %v, %+v", err, mresp)
	}
	mresp.Body.Close()
}

func TestChaosResetTearsBody(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		Faults: &FaultSpec{Seed: 3, Rules: []FaultRule{
			{Kind: FaultReset, Endpoint: "profile", Rate: 1},
		}},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/people/" + srv.content.IDs[0])
	if err != nil {
		// Torn before the header made it out — also a valid reset shape.
		return
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("body read succeeded; reset chaos should cut the connection mid-body")
	}
}

func TestChaosHangOutlastsClientTimeout(t *testing.T) {
	srv := New(serverUniverse(t), Options{
		Faults: &FaultSpec{Seed: 3, Rules: []FaultRule{
			{Kind: FaultHang, Rate: 1, Delay: 10 * time.Second},
		}},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := &http.Client{Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := client.Get(ts.URL + "/people/" + srv.content.IDs[0])
	if err == nil {
		t.Fatal("hung request returned a response")
	}
	var ue interface{ Timeout() bool }
	if !errors.As(err, &ue) || !ue.Timeout() {
		t.Fatalf("err = %v, want a client timeout", err)
	}
	// The handler must unblock via the request context, not sit out the
	// full 10s hold (which would leak goroutines across a chaos run).
	if time.Since(start) > 5*time.Second {
		t.Errorf("hang held past client disconnect")
	}
}

func TestChaosCrawlerRidesOutFaultSuite(t *testing.T) {
	// The client-facing proof: with retries, a crawler-grade client
	// gets every profile despite a mixed fault storm.
	srv, c := startServer(t, Options{
		Faults: &FaultSpec{Seed: 11, Rules: []FaultRule{
			{Kind: FaultUnavailable, Rate: 0.3},
			{Kind: FaultReset, Rate: 0.2},
			{Kind: FaultDelay, Rate: 0.2, Delay: time.Millisecond},
		}},
	})
	c.MaxRetries = 20
	c.MaxBackoff = 20 * time.Millisecond
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.FetchProfile(ctx, srv.content.IDs[i]); err != nil {
			t.Fatalf("profile %d lost under chaos: %v", i, err)
		}
	}
	snap := srv.metrics.Snapshot()
	total := int64(0)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "gplusd_chaos_faults_total") {
			total += v
		}
	}
	if total == 0 {
		t.Error("fault suite injected nothing at these rates")
	}
}

func TestChaosEndpointOf(t *testing.T) {
	cases := map[string]string{
		"/people/u123":             "profile",
		"/people/u123/circles/in":  "circles",
		"/people/u123/circles/out": "circles",
		"/stats":                   "stats",
		"/seed":                    "seed",
		"/debug/pprof/":            "other",
		"/people":                  "other",
	}
	for path, want := range cases {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", path, got, want)
		}
	}
}
