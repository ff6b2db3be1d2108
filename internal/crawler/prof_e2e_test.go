package crawler

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/resilience"
)

// TestContinuousProfilingE2E is the profiling tentpole's end-to-end
// proof, and the core of `make prof-demo`: a crawl rides through a
// server brownout with the continuous profiler armed, and afterwards
// the on-disk ring must tell the story on its own —
//
//  1. the manifest holds steady-state interval captures AND an
//     anomaly capture fired by the SLO engine paging mid-brownout;
//  2. every capture decodes with the dependency-free pprof reader;
//  3. aggregating the CPU captures by the "phase" pprof label pins the
//     dominant labelled cost to a real crawl phase — the attribution
//     a 3am operator needs to see where a wedged crawl's cycles went.
//
// Set PROF_DEMO_DIR to keep the run directory on disk so `gplusanalyze
// profiles` can be demonstrated against it (the Makefile's prof-demo
// target does exactly that).
func TestContinuousProfilingE2E(t *testing.T) {
	u := crawlUniverse(t)
	seed := seedID(u)
	ctx := context.Background()

	// The brownout service: one triangular latency ramp + admission
	// squeeze window covering the crawl's early life, as in
	// TestBrownoutConvergence.
	sreg := obs.NewRegistry()
	brownURL := startService(t, u, gplusd.Options{
		Metrics: sreg,
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultBrownout, Every: 10 * time.Minute, Down: 700 * time.Millisecond,
				Delay: 20 * time.Millisecond, Squeeze: 0.9},
		}},
		Admission: &resilience.AdmissionOptions{
			MaxConcurrent: 4,
			MaxQueue:      16,
			MaxWait:       50 * time.Millisecond,
		},
	})

	// Background probes deepen the admission squeeze through the
	// brownout's worst stretch, so the crawl sees a solid burst of
	// shed 503s rather than a lucky trickle.
	var probeWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			deadline := time.Now().Add(600 * time.Millisecond)
			for time.Now().Before(deadline) {
				resp, err := http.Get(brownURL + "/stats")
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// The whole crawl-side stack in one wiring call, as gpluscrawl makes
	// it. Burn-rate engine over a short, twitchy availability objective so
	// the brownout's shed burst reliably pages within the test's runtime
	// (a 1% budget burning at 2x pages on a few-percent 503 ratio).
	// The profiler runs at test-speed cadence: a capture cycle every
	// 250ms with a 200ms CPU window, and a short trigger burst. Retention
	// sits far above what even a race-detector-slowed crawl can produce:
	// the brownout's page-triggered captures land in the ring's first
	// seconds and must survive to the end-of-test assertions.
	dir := os.Getenv("PROF_DEMO_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	run := startRun(t, rundir.Config{
		Dir:    dir,
		Series: series.Options{Interval: 25 * time.Millisecond, Capacity: 8192},
		Objectives: []series.Objective{{
			Name: "availability", Kind: series.ErrorRatio,
			Bad:        []string{`gplusapi_responses_total{code="503"}`},
			Total:      []string{"gplusapi_responses_total"},
			Max:        0.01,
			Window:     500 * time.Millisecond,
			Fast:       100 * time.Millisecond,
			WarnFactor: 1, PageFactor: 2,
		}},
		Prof: prof.Options{
			Interval:           250 * time.Millisecond,
			CPUDuration:        200 * time.Millisecond,
			TriggerCPUDuration: 150 * time.Millisecond,
			TriggerCooldown:    50 * time.Millisecond,
		},
		ProfStore: prof.StoreOptions{MaxCaptures: 4096},
	})
	creg, eng := run.Registry, run.Engine
	ring := filepath.Join(dir, rundir.ProfilesDir)

	res, err := Crawl(ctx, Config{
		BaseURL: brownURL, Seeds: []string{seed}, Workers: 8,
		FetchIn: true, FetchOut: true,
		AttemptTimeout:   500 * time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
		Metrics:          creg,
		Breaker:          resilience.BreakerOptions{Cooldown: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("brownout crawl: %v", err)
	}
	probeWG.Wait()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	if res.Stats.ProfilesCrawled == 0 {
		t.Fatal("crawl fetched nothing; the fixture is broken")
	}

	// (1) The manifest tells the story: interval captures plus at least
	// one capture the SLO page triggered, stamped with the paging state.
	entries, err := prof.ReadManifest(ring)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	var cpuInterval, pageTriggered int
	for _, e := range entries {
		if e.Kind == "cpu" && e.Trigger == "interval" {
			cpuInterval++
		}
		if strings.HasPrefix(e.Trigger, "slo-page:") {
			pageTriggered++
			// The stamp records the engine's state at append time — which
			// may already read OK again if the objective recovered during
			// the trigger's CPU burst — so assert only that the SLOState
			// hook was wired, not which state it caught.
			if e.SLO == "" {
				t.Errorf("slo-page capture %s-%06d has no SLO stamp", e.Kind, e.Seq)
			}
		}
	}
	if cpuInterval == 0 {
		t.Errorf("no interval CPU captures in %d manifest entries", len(entries))
	}
	if pageTriggered == 0 {
		t.Errorf("no slo-page-triggered captures in %d manifest entries; engine transitions: %d", len(entries), len(eng.Transitions()))
	}

	// (2) Every capture decodes.
	var cpuProfiles []*prof.Profile
	for _, e := range entries {
		p, err := prof.ReadFile(e.Path(ring))
		if err != nil {
			t.Fatalf("decoding %s-%06d (%s): %v", e.Kind, e.Seq, e.Trigger, err)
		}
		if e.Kind == "cpu" {
			cpuProfiles = append(cpuProfiles, p)
		}
	}

	// (3) Label attribution: across all CPU windows, the dominant
	// labelled phase must be a crawl phase — the circle-page fetch/decode
	// loop dominates a full crawl's CPU, with profile fetches next.
	rows := prof.ByLabel(cpuProfiles, "phase")
	var topPhase string
	var labeled int64
	for _, r := range rows {
		if r.Value == prof.Unlabeled {
			continue
		}
		labeled += r.Cost
		if topPhase == "" {
			topPhase = r.Value // rows are sorted by cost descending
		}
	}
	if labeled == 0 {
		t.Fatal("no CPU samples carry a phase label; pprof.Do attribution is not reaching the profiler")
	}
	if topPhase != obs.PhaseCirclePage && topPhase != obs.PhaseFetchProfile {
		t.Errorf("dominant labelled phase = %q, want a crawl fetch phase (circle.page or fetch.profile); rows: %+v", topPhase, rows)
	}

	// (4) One endpoint spelling: the client's attempts and the server's
	// handlers both run in this process, so the captures are the merged
	// profile of the two sides, and `-by label -label endpoint` must
	// split it into the vocabulary's values only — a request is
	// "circles" on both sides of the wire, never "circle" on one.
	byEndpoint := map[string]int64{}
	for _, r := range prof.ByLabel(cpuProfiles, obs.KeyEndpoint) {
		byEndpoint[r.Value] = r.Cost
	}
	delete(byEndpoint, prof.Unlabeled)
	if len(byEndpoint) == 0 {
		t.Error("no CPU sample carries an endpoint label")
	}
	for v := range byEndpoint {
		switch v {
		case obs.EndpointProfile, obs.EndpointCircles, obs.EndpointStats, obs.EndpointSeed:
		default:
			t.Errorf("endpoint label value %q is not in the vocabulary; rows: %v", v, byEndpoint)
		}
	}
}
