// Command gplusd runs the Google+ service simulator: it generates a
// synthetic universe and serves profile pages, paginated circle lists
// (with the 10,000-entry cap), a /stats ground-truth endpoint, and a
// /seed endpoint naming a popular user to start crawls from.
//
// Operational endpoints ride on the same listener: /metrics (Prometheus
// text), the /debug/pprof/ suite for go tool pprof, /debug/timeseries
// (the in-process metric history, sampled every -sample-interval, as the
// series.jsonl lines `gplusanalyze metrics` reads), and /debug/slo (the
// server's health report, rebuilt every sample with the burn-rate state
// and violation spans of the -slo objectives).
//
// The hot path holds no global locks: fault injection draws from
// per-goroutine RNG streams and the per-crawler rate limiter is striped
// across independently locked shards, with idle buckets evicted (watch
// gplusd_rate_limiter_buckets on /metrics).
//
// -chaos arms a seed-deterministic fault suite: random 503s
// ("unavailable,rate=0.02"), optionally per endpoint, response delays,
// connection hangs past the client timeout, mid-body connection resets,
// scheduled outage windows, and brownouts (triangular latency ramps plus
// admission capacity squeezes). Injections are counted per kind in
// gplusd_chaos_faults_total; /metrics itself is never faulted.
//
// -admission N caps the requests the simulator serves at once: an
// arrival beyond the cap is refused at once (503 + Retry-After 0.05),
// never queued. A -chaos brownout rule squeezes the cap during its
// windows. Its state is the gplusd_admission_* series on /metrics,
// which bypasses admission.
//
// -trace-sample > 0 records server-side request spans — the request root
// plus chaos delays/hangs and page rendering — joining crawler traces
// propagated via the X-Gplus-Trace header so both sides of the wire
// share one trace id; the rate itself applies to requests arriving
// without a header. The flight recorder serves /debug/traces
// (?format=jsonl for a dump that `gplusanalyze traces` reads).
//
// -obs-dir names the run directory (layout in package rundir): metric
// ticks, the profile ring and exemplar traces are written while serving,
// the rest of the trace ring on SIGINT/SIGTERM, when the server drains
// and exits. `gplusanalyze metrics|traces <dir>` read it back, and
// `go tool pprof <dir>/profiles/*.pb.gz` the profile captures.
//
// Usage:
//
//	gplusd -nodes 100000 -seed 2011 -addr :8041 -rate 500
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/synth"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 50_000, "users in the synthetic universe")
		seed      = flag.Uint64("seed", 2011, "generation seed")
		addr      = flag.String("addr", "127.0.0.1:8041", "listen address")
		circleCap = flag.Int("cap", 10_000, "circle list cap (-1 disables)")
		rate      = flag.Float64("rate", 0, "per-crawler rate limit (req/s, 0 disables)")
		chaosSpec = flag.String("chaos", "", `chaos-mode fault suite, rules separated by ';', e.g. "unavailable,endpoint=profile,rate=0.2;delay,rate=0.1,delay=150ms;hang,rate=0.01,delay=90s;reset,rate=0.05;outage,every=10m,down=45s;brownout,every=10m,down=45s,delay=100ms,squeeze=0.8"`)
		admitMax  = flag.Int("admission", 0, "admission control: max concurrent requests (0 disables; sheds carry Retry-After, state in the gplusd_admission_* series on /metrics)")
	)
	obsCfg := rundir.Config{Signals: series.GplusdSignals()}
	obsCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var faults *gplusd.FaultSpec
	if *chaosSpec != "" {
		var err error
		if faults, err = gplusd.ParseFaultSpec(*chaosSpec); err != nil {
			log.Fatalf("parsing -chaos: %v", err)
		}
		faults.Seed = *seed
		log.Printf("chaos mode: %d fault rule(s) armed, seed %d (injections counted in gplusd_chaos_faults_total)", len(faults.Rules), *seed)
	}

	log.Printf("generating universe: %d nodes (seed %d)...", *nodes, *seed)
	start := time.Now()
	cfg := synth.DefaultConfig(*nodes)
	cfg.Seed = *seed
	u, err := synth.Generate(cfg)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	log.Printf("generated %d users, %d edges in %v", u.NumUsers(), u.Graph.NumEdges(), time.Since(start))

	// The observability stack. Under -obs-dir its profile ring's captures
	// carry endpoint and chaos-state pprof labels, and an anomaly capture
	// fires the moment any server objective pages.
	run, err := rundir.Start(obsCfg)
	if err != nil {
		log.Fatalf("starting observability: %v", err)
	}
	if *admitMax > 0 {
		log.Printf("admission control armed: %d concurrent (state in gplusd_admission_* on /metrics)", *admitMax)
	}
	srv := gplusd.New(u, gplusd.Options{
		CircleCap:     *circleCap,
		RatePerSecond: *rate,
		Faults:        faults,
		Metrics:       run.Registry,
		Tracer:        run.Tracer,
		Admission:     *admitMax,
	})

	// The run's mux takes /metrics and the /debug/ endpoints; every other
	// path falls through to the simulator.
	root := run.Mux()
	root.Handle("/", srv)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("serving %s on http://%s (metrics at /metrics, pprof at /debug/pprof/)", srv, ln.Addr())

	// Serve until SIGINT/SIGTERM, then drain; run.Close completes the run
	// directory (final captures, last sample, the trace ring's rest).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: root}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err = <-served:
	case <-ctx.Done():
		log.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if hs.Shutdown(shutCtx) != nil {
			hs.Close() //nolint:errcheck — a connection parked in a chaos hang never drains
		}
		cancel()
	}
	if cerr := run.Close(); cerr != nil {
		log.Printf("completing -obs-dir: %v", cerr)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}
