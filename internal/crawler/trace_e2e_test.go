package crawler

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/trace"
)

// traceChaosOptions is the fault suite used by the tracing e2e tests:
// enough misbehavior to exercise retries, errors, and slow requests, not
// enough to keep the crawl from finishing.
func traceChaosOptions(tracer *trace.Tracer) gplusd.Options {
	return gplusd.Options{
		Tracer: tracer,
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultUnavailable, Rate: 0.05},
			{Kind: gplusd.FaultDelay, Rate: 0.05, Delay: 10 * time.Millisecond},
			{Kind: gplusd.FaultReset, Rate: 0.03},
			{Kind: gplusd.FaultHang, Rate: 0.005, Delay: 300 * time.Millisecond},
		}},
	}
}

// TestTraceSpanPropagationUnderChaos is the tentpole's end-to-end proof:
// a chaos crawl with tracing on both sides of the wire produces gplusd
// server spans carrying the crawler's trace ids, parented under the
// exact client attempt spans that caused them.
func TestTraceSpanPropagationUnderChaos(t *testing.T) {
	u := crawlUniverse(t)

	clientRec := trace.NewRecorder(100_000, trace.Rules{Errors: true, MinRetries: 3})
	clientTr := trace.New(trace.Config{Recorder: clientRec})
	serverRec := trace.NewRecorder(100_000, trace.Rules{})
	serverTr := trace.New(trace.Config{Recorder: serverRec})

	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: startService(t, u, traceChaosOptions(serverTr)),
		Seeds:   []string{seedID(u)}, Workers: 8,
		FetchIn: true, FetchOut: true,
		MaxProfiles:      300,
		AttemptTimeout:   150 * time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
		Tracer:           clientTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfilesCrawled == 0 {
		t.Fatal("chaos crawl collected nothing")
	}

	clientTraces := clientRec.Traces()
	if len(clientTraces) < res.Stats.ProfilesCrawled {
		t.Fatalf("client recorded %d traces for %d crawled profiles", len(clientTraces), res.Stats.ProfilesCrawled)
	}
	clientIDs := map[string]bool{}
	attemptSpans := map[string]bool{}
	sawAttempt := false
	// Both sides name a request's span after one endpoint vocabulary.
	apiEndpoints, serverEndpoints := map[string]bool{}, map[string]bool{}
	for _, tr := range clientTraces {
		clientIDs[tr.TraceID] = true
		if root := tr.Root(); root == nil || root.Name != "crawl.profile" {
			t.Fatalf("client trace root = %+v, want crawl.profile", tr.Root())
		}
		for _, sp := range tr.Spans {
			if sp.Name == "attempt" {
				attemptSpans[sp.SpanID] = true
				sawAttempt = true
			}
			if ep, ok := strings.CutPrefix(sp.Name, "api."); ok {
				apiEndpoints[ep] = true
			}
		}
	}
	if !sawAttempt {
		t.Fatal("client traces carry no per-attempt spans")
	}

	serverTraces := serverRec.Traces()
	if len(serverTraces) == 0 {
		t.Fatal("server recorded no traces despite propagated headers")
	}
	for _, tr := range serverTraces {
		if !clientIDs[tr.TraceID] {
			t.Fatalf("server trace id %s unknown to the client: propagation failed", tr.TraceID)
		}
		root := tr.Root()
		if root == nil {
			t.Fatal("server trace without root")
		}
		if !root.Remote {
			t.Fatalf("server root %s/%s not marked as joined", tr.TraceID, root.Name)
		}
		if !attemptSpans[root.Parent] {
			t.Fatalf("server root parent %s is not a client attempt span", root.Parent)
		}
		ep, ok := strings.CutPrefix(root.Name, "server.")
		if !ok {
			t.Fatalf("server root named %q", root.Name)
		}
		serverEndpoints[ep] = true
	}
	if want := map[string]bool{obs.EndpointProfile: true, obs.EndpointCircles: true}; !reflect.DeepEqual(apiEndpoints, want) || !reflect.DeepEqual(serverEndpoints, want) {
		t.Errorf("span endpoints: client api.%v, server server.%v; both want %v", apiEndpoints, serverEndpoints, want)
	}

	// Merging both dumps must nest the server spans into the client trees.
	merged := trace.MergeByTraceID(append(clientTraces, serverTraces...))
	nested := false
	for _, tr := range merged {
		local, remote := 0, 0
		for _, sp := range tr.Spans {
			if sp.Remote {
				remote++
			} else {
				local++
			}
		}
		if local > 0 && remote > 0 {
			nested = true
			var buf bytes.Buffer
			if err := trace.WriteSpanTree(&buf, tr); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "(joined)") {
				t.Fatalf("merged tree does not show the joined server span:\n%s", buf.String())
			}
			break
		}
	}
	if !nested {
		t.Fatal("no merged trace contains both client and server spans")
	}
}

// TestHungRequestCapturedAsExemplar points the crawler at a service that
// hangs every profile request past the client timeout: the exemplar
// rules must retain the resulting trace (error + retries), even though
// the ring is churning.
func TestHungRequestCapturedAsExemplar(t *testing.T) {
	u := crawlUniverse(t)
	rec := trace.NewRecorder(4, trace.Rules{
		SlowerThan: 50 * time.Millisecond,
		Errors:     true,
		MinRetries: 2,
	})
	tracer := trace.New(trace.Config{Recorder: rec})

	url := startService(t, u, gplusd.Options{
		Faults: &gplusd.FaultSpec{Seed: 7, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultHang, Rate: 1, Endpoint: "profile", Delay: 2 * time.Second},
		}},
	})
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url,
		Seeds:   []string{seedID(u)}, Workers: 1,
		FetchIn: true, FetchOut: true,
		AttemptTimeout:   100 * time.Millisecond,
		MaxRetries:       2,
		RetryBackoffBase: time.Millisecond,
		Tracer:           tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProfileErrors == 0 {
		t.Fatal("hung profile endpoint did not produce a profile error")
	}

	ex := rec.Exemplars()
	if len(ex) == 0 {
		t.Fatal("hung request left no exemplar trace")
	}
	got := ex[0]
	for _, rule := range []string{"latency", "error", "retries"} {
		if !strings.Contains(got.Exemplar, rule) {
			t.Errorf("exemplar tagged %q, missing rule %q", got.Exemplar, rule)
		}
	}
	if got.Errors() == 0 {
		t.Error("exemplar trace has no failed span")
	}
	if got.MaxRetries() < 2 {
		t.Errorf("exemplar records %d retries, want >= 2", got.MaxRetries())
	}
	// The exemplar must survive ring churn by construction (it is held
	// outside the ring), and serialize cleanly.
	var buf bytes.Buffer
	if err := trace.WriteTraceJSONL(&buf, got); err != nil {
		t.Fatal(err)
	}
	back, _, err := trace.ReadTraces(&buf)
	if err != nil || len(back) != 1 {
		t.Fatalf("exemplar did not survive a JSONL round trip: %v", err)
	}
}

// TestTraceDemo is the `make trace-demo` entrypoint: a short chaos crawl
// with tracing on both sides that must produce a non-empty exemplar dump
// and a critical-path analysis mentioning the crawl pipeline.
func TestTraceDemo(t *testing.T) {
	u := crawlUniverse(t)

	// The client side is wired as gpluscrawl -trace-sample 1 -obs-dir
	// wires it: exemplars stream into the run directory as they trip.
	dir := t.TempDir()
	clientRec := trace.NewRecorder(0, trace.Rules{
		SlowerThan: 200 * time.Millisecond,
		Errors:     true,
		MinRetries: 3,
	})
	run := startRun(t, rundir.Config{Dir: dir, Trace: trace.Config{SampleRate: 1, Recorder: clientRec}})
	serverRec := trace.NewRecorder(100_000, trace.Rules{})
	serverTr := trace.New(trace.Config{Recorder: serverRec})

	if _, err := crawlInRAM(context.Background(), Config{
		BaseURL: startService(t, u, traceChaosOptions(serverTr)),
		Seeds:   []string{seedID(u)}, Workers: 8,
		FetchIn: true, FetchOut: true,
		MaxProfiles:      200,
		AttemptTimeout:   150 * time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
		Tracer:           run.Tracer,
	}); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, rundir.TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	dumped, _, err := trace.ReadTraces(f)
	f.Close()
	if err != nil {
		t.Fatalf("trace log unreadable: %v", err)
	}
	exemplars := 0
	for _, tr := range dumped {
		if tr.Exemplar != "" {
			exemplars++
		}
	}
	if exemplars == 0 {
		t.Fatal("chaos crawl streamed no exemplar into the trace log")
	}
	t.Logf("trace log: %d traces, %d exemplars", len(dumped), exemplars)

	// The analysis over client + server dumps must attribute wall-clock
	// to the instrumented pipeline stages.
	all := append(clientRec.Traces(), serverRec.Traces()...)
	a := trace.Analyze(all, 3)
	var report bytes.Buffer
	if err := a.WriteText(&report); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{"critical-path breakdown", "crawl.profile", "retry amplification"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis missing %q:\n%s", want, out)
		}
	}
	t.Logf("trace analysis over %d traces:\n%s", a.Traces, out)
}
