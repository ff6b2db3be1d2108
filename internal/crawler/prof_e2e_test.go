package crawler

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
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
)

// TestContinuousProfilingE2E is the profiling tentpole's end-to-end
// proof, and the core of `make prof-demo`: a crawl rides through a
// server brownout with the continuous profiler armed, and afterwards
// the on-disk ring must tell the story on its own —
//
//  1. the ring's file names show steady-state interval captures AND an
//     anomaly capture fired by an SLO objective paging mid-brownout;
//  2. every CPU capture decodes with `go tool pprof`, the toolchain's
//     reader and the ring's only one;
//  3. aggregating the CPU captures by the "phase" pprof label pins the
//     dominant labelled cost to a real crawl phase — the attribution
//     a 3am operator needs to see where a wedged crawl's cycles went;
//  4. the endpoint label holds only the vocabulary's spellings, and
//     both fetch endpoints and the worker identity reach the samples:
//     labels set once per worker and per server endpoint still tag
//     both sides of the wire.
//
// Set PROF_DEMO_DIR to keep the run directory on disk so `go tool pprof`
// can be demonstrated against it (the Makefile's prof-demo target does
// exactly that).
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
		Admission: 4,
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
	// it. The watcher reads a short, twitchy availability objective so
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
		Signals: series.Signals{Objectives: []series.Objective{{
			Name: "availability", Kind: series.ErrorRatio,
			Bad:        []string{`gplusapi_responses_total{code="503"}`},
			Total:      []string{"gplusapi_responses_total"},
			Max:        0.01,
			Window:     500 * time.Millisecond,
			Fast:       100 * time.Millisecond,
			WarnFactor: 1, PageFactor: 2,
		}}},
		Prof: prof.Options{
			Interval:           250 * time.Millisecond,
			CPUDuration:        200 * time.Millisecond,
			TriggerCPUDuration: 150 * time.Millisecond,
			TriggerCooldown:    50 * time.Millisecond,
		},
		ProfStore: prof.StoreOptions{MaxCaptures: 4096},
	})
	creg := run.Registry
	ring := filepath.Join(dir, rundir.ProfilesDir)
	pages := 0 // PAGE onsets the reports carried; read once run.Close has stopped the sampling
	run.Watch(func(r *series.HealthReport) { pages += len(r.PageOnset) })

	res, err := crawlInRAM(ctx, Config{
		BaseURL: brownURL, Seeds: []string{seed}, Workers: 8,
		FetchIn: true, FetchOut: true,
		AttemptTimeout:   500 * time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
		Metrics:          creg,
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

	// (1) The file names tell the story: interval captures plus at least
	// one capture the SLO page triggered.
	glob := func(pattern string) []string {
		names, err := filepath.Glob(filepath.Join(ring, pattern))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if len(glob("cpu-*-interval.pb.gz")) == 0 {
		t.Errorf("no interval CPU captures in %s", ring)
	}
	if len(glob("*-slo-page_*.pb.gz")) == 0 {
		t.Errorf("no slo-page-triggered captures in %s; PAGE onsets reported: %d", ring, pages)
	}

	// (2) Every CPU capture decodes: one `go tool pprof -tags` over all of
	// them, which names any source it cannot parse ("parsing profile")
	// and then fetches fewer than it was given ("... out of N").
	cpu := glob("cpu-*.pb.gz")
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-tags"}, cpu...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -tags over %d CPU captures: %v\n%s", len(cpu), err, out)
	}
	if bytes.Contains(out, []byte("out of")) || bytes.Contains(out, []byte("parsing profile")) {
		t.Fatalf("a CPU capture does not decode:\n%s", out)
	}
	tags := pprofTags(string(out))

	// (3) Label attribution: across all CPU windows, the dominant
	// labelled phase must be a crawl phase — the circle-page fetch/decode
	// loop dominates a full crawl's CPU, with profile fetches next.
	phases := tags[obs.KeyPhase]
	if len(phases) == 0 {
		t.Fatalf("no CPU samples carry a phase label; the fetch label sets are not reaching the profiler:\n%s", out)
	}
	if top := phases[0]; top != obs.PhaseCirclePage && top != obs.PhaseFetchProfile {
		t.Errorf("dominant labelled phase = %q, want a crawl fetch phase (circle.page or fetch.profile):\n%s", top, out)
	}

	// (4) One endpoint spelling: the client's attempts and the server's
	// handlers both run in this process, so the captures are the merged
	// profile of the two sides, and their endpoint tag must split it into
	// the vocabulary's values only — a request is "circles" on both sides
	// of the wire, never "circle" on one.
	endpoints := map[string]bool{}
	for _, v := range tags[obs.KeyEndpoint] {
		switch v {
		case obs.EndpointProfile, obs.EndpointCircles, obs.EndpointStats, obs.EndpointSeed, obs.EndpointOther:
			endpoints[v] = true
		default:
			t.Errorf("endpoint label value %q is not in the vocabulary:\n%s", v, out)
		}
	}
	for _, want := range []string{obs.EndpointProfile, obs.EndpointCircles} {
		if !endpoints[want] {
			t.Errorf("no CPU sample carries endpoint %q:\n%s", want, out)
		}
	}
	if len(tags[obs.KeyWorker]) == 0 {
		t.Errorf("no CPU sample carries a worker label:\n%s", out)
	}
}

// pprofTags parses `go tool pprof -tags` output into each label key's
// values, heaviest first as pprof prints them:
//
//	phase: Total 610.0ms
//	       320.0ms (52.46%): circle.page
func pprofTags(out string) map[string][]string {
	tags := map[string][]string{}
	key := ""
	for _, line := range strings.Split(out, "\n") {
		if k, _, ok := strings.Cut(strings.TrimSpace(line), ": Total "); ok {
			key = k
		} else if _, v, ok := strings.Cut(line, "%): "); ok && key != "" {
			tags[key] = append(tags[key], v)
		}
	}
	return tags
}
