// Command gpluscrawl runs the paper's bidirectional BFS crawler against
// a gplusd instance and writes the collected dataset to disk.
//
// With -metrics-addr it serves live crawler telemetry (/metrics in
// Prometheus text, /debug/vars, /debug/pprof/, and /debug/timeseries —
// in-process metric history sampled every -sample-interval) while the
// crawl runs, and -progress emits a periodic structured progress line
// with a frontier-drain ETA — the operational view the paper's 45-day
// crawl depended on.
//
// -dash replaces the progress lines with a live ANSI dashboard on
// stdout: sparkline panels for throughput, edge discovery, frontier
// depth, and API errors, plus headline counters and the burn-rate state
// of the -slo objectives (logs keep flowing to stderr). -series-dir
// spools the sampled series to <dir>/series.jsonl at exit; `gplusanalyze
// metrics` replays that dump into a crawl health report offline.
//
// With -journal the crawl streams every profile, edge, and discovered id
// into an append-only journal as it runs, flushed and fsynced every
// -flush-interval: a crawl killed mid-flight (SIGKILL, OOM, reboot)
// loses at most one flush interval of records plus one torn final line,
// and rerunning with the same -journal resumes from it automatically.
//
// When resuming (-resume or an existing -journal), the summary counts
// only profiles fetched this session; checkpointed profiles carried over
// from earlier sessions are reported separately as "+N resumed".
//
// With -trace-sample the crawler records request-scoped span traces: one
// root per crawled profile with children for the profile fetch, each
// circle page, per-attempt API calls (with backoff and status), scheduler
// offers, and journal appends, propagated to gplusd via X-Gplus-Trace so
// server-side spans join the same trace. The flight recorder keeps the
// last traces plus every slow/errored/retry-heavy exemplar; browse it at
// /debug/traces on -metrics-addr, or stream dumps to -trace-dir and feed
// them to `gplusanalyze traces`.
//
// -resilience arms the adaptive overload path: an AIMD gate adapts
// effective worker concurrency to 429/503/deadline feedback, a shared
// retry budget caps fleet-wide retry amplification near 10%,
// per-endpoint circuit breakers fail fast through dead endpoints, and
// server sheds requeue the id to the frontier tail instead of counting
// as failures — a crawl rides out a server brownout with an identical
// final dataset.
//
// Usage:
//
//	gpluscrawl -url http://127.0.0.1:8041 -out ./data -workers 11 -max 30000 \
//	    -journal ./crawl.journal -metrics-addr 127.0.0.1:8042 -progress 10s \
//	    -trace-sample 0.05 -trace-dir ./traces -resilience
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusapi"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/obs"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
)

// writeSeries spools the collector's retained time series to path.
func writeSeries(c *series.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote metric time series -> %s (analyze with: gplusanalyze metrics %s)", path, path)
	return nil
}

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8041", "gplusd base URL")
		out         = flag.String("out", "data", "output dataset directory")
		seeds       = flag.String("seeds", "", "comma-separated seed ids (default: ask /seed)")
		workers     = flag.Int("workers", 11, "concurrent crawl machines")
		max         = flag.Int("max", 0, "profile budget (0 = crawl everything reachable)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		checkpoint  = flag.String("checkpoint", "", "write the raw crawl state to this file")
		resume      = flag.String("resume", "", "resume from a checkpoint written by -checkpoint")
		journal     = flag.String("journal", "", "stream live crawl state to this append-only journal; an existing journal resumes automatically")
		flushEvery  = flag.Duration("flush-interval", time.Second, "journal flush+fsync interval (bounds what a crash can lose)")
		scrapeHTML  = flag.Bool("html", false, "scrape HTML profile pages instead of the JSON API")
		compress    = flag.Bool("compress", false, "gzip the dataset's profile column")
		segmentDir  = flag.String("segment-dir", "", "stream observed edges to sorted on-disk segments in this directory instead of RAM, then compact them into a memory-mapped v2 graph at save time — bounds crawl RSS by the frontier, not the edge count (the dir must be fresh; resume replays the journal through it)")
		abortErrs   = flag.Int("abort-errors", 0, "stop after this many permanent fetch failures (0 = never)")
		politeness  = flag.Duration("politeness", 0, "pause between requests per worker (e.g. 50ms)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ and /debug/traces on this address while crawling (empty disables)")
		progress    = flag.Duration("progress", 10*time.Second, "interval between progress lines (0 emits only the final summary)")
		traceSample = flag.Float64("trace-sample", 0, "head-sample this fraction of crawled profiles for request tracing (0 disables, 1 traces everything)")
		traceDir    = flag.String("trace-dir", "", "stream exemplar traces to <dir>/exemplars.jsonl as they trip and dump every retained trace to <dir>/traces.jsonl at exit (requires -trace-sample)")
		traceSlow   = flag.Duration("trace-slow", 500*time.Millisecond, "exemplar rule: retain traces whose root exceeds this duration")
		traceRetry  = flag.Int("trace-retries", 3, "exemplar rule: retain traces where any span burned at least this many retries")
		seriesDir   = flag.String("series-dir", "", "write the sampled metric time series to <dir>/series.jsonl at exit (feed it to `gplusanalyze metrics`)")
		dashOn      = flag.Bool("dash", false, "render a live terminal dashboard on stdout (sparkline throughput/frontier/error panels, SLO state) instead of periodic progress lines")
		sampleInt   = flag.Duration("sample-interval", time.Second, "time-series sampling cadence for -series-dir/-dash/-metrics-addr (0 disables the collector)")
		sloSpec     = flag.String("slo", "default", `SLO objectives evaluated over the crawl's metric time series ("default" = API availability <1% + p99 latency <1s, "" disables)`)
		resilient   = flag.Bool("resilience", false, "arm adaptive overload handling: AIMD worker-concurrency adaptation, a shared retry budget, per-endpoint circuit breakers, and requeue-on-overload instead of counting sheds as failures")
		attemptTO   = flag.Duration("attempt-timeout", 0, "per-attempt request deadline, propagated to gplusd via X-Gplus-Deadline (0 disables; requires -resilience)")
		maxRequeues = flag.Int("max-requeues", 0, "cap on how many times one id may return to the frontier on overload (0 = default 32; requires -resilience)")
		profileDir  = flag.String("profile-dir", "", "continuously capture CPU/heap/goroutine/mutex/block profiles into this bounded on-disk ring (manifest.jsonl + <kind>-<seq>.pb.gz; analyze with `gplusanalyze profiles <dir>`)")
		profileInt  = flag.Duration("profile-interval", 30*time.Second, "capture cycle period for -profile-dir")
		profileCPU  = flag.Duration("profile-cpu", 10*time.Second, "CPU-profile window per cycle for -profile-dir (clamped to -profile-interval)")
		profileKeep = flag.Int("profile-retain", 64, "capture files retained in the -profile-dir ring before oldest-first eviction")
		mutexProf   = flag.Int("mutex-profile", 0, "runtime.SetMutexProfileFraction: sample 1/N of mutex contention events so mutex captures have data (0 = off)")
		blockProf   = flag.Int("block-profile", 0, "runtime.SetBlockProfileRate: sample blocking events >= N ns so block captures have data (0 = off)")
	)
	flag.Parse()

	// Arm the blocking profilers before any crawl goroutine exists, so
	// the ring's mutex/block captures (and /debug/pprof) see every event.
	if *mutexProf > 0 {
		runtime.SetMutexProfileFraction(*mutexProf)
	}
	if *blockProf > 0 {
		runtime.SetBlockProfileRate(*blockProf)
	}

	if (*attemptTO > 0 || *maxRequeues > 0) && !*resilient {
		log.Fatalf("-attempt-timeout and -max-requeues require -resilience")
	}

	wantSeries := *sampleInt > 0 && (*seriesDir != "" || *dashOn || *metricsAddr != "")
	if *dashOn && !wantSeries {
		log.Fatalf("-dash requires -sample-interval > 0")
	}
	var reg *obs.Registry
	if *metricsAddr != "" || wantSeries {
		reg = obs.NewRegistry()
		obs.PublishExpvar("gpluscrawl", reg)
		obs.RegisterRuntimeMetrics(reg)
	}

	// Time-series collector over the crawl registry: backs the live
	// dashboard, the /debug/timeseries endpoint, and the series.jsonl
	// spool that `gplusanalyze metrics` replays offline.
	var collector *series.Collector
	var eng *series.Engine
	if wantSeries {
		collector = series.NewCollector(reg, series.Options{Interval: *sampleInt})
		if *sloSpec != "" {
			objs := series.DefaultCrawlObjectives()
			if *sloSpec != "default" {
				var err error
				if objs, err = series.ParseObjectives(*sloSpec); err != nil {
					log.Fatalf("parsing -slo: %v", err)
				}
			}
			eng = series.NewEngine(collector, objs, reg)
			collector.OnSample(eng.Eval)
		}
	}

	if *traceDir != "" && *traceSample <= 0 {
		log.Fatalf("-trace-dir requires -trace-sample > 0")
	}
	var tracer *trace.Tracer
	var traceDump func()
	if *traceSample > 0 {
		rec := trace.NewRecorder(0, trace.Rules{
			SlowerThan: *traceSlow,
			Errors:     true,
			MinRetries: *traceRetry,
		})
		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				log.Fatalf("creating -trace-dir: %v", err)
			}
			exPath := filepath.Join(*traceDir, "exemplars.jsonl")
			exf, err := os.Create(exPath)
			if err != nil {
				log.Fatalf("creating exemplar stream: %v", err)
			}
			var exMu sync.Mutex
			rec.SetSink(func(tr *trace.Trace) {
				exMu.Lock()
				defer exMu.Unlock()
				trace.WriteTraceJSONL(exf, tr) //nolint:errcheck — best-effort diagnostics stream
			})
			traceDump = func() {
				exMu.Lock()
				exf.Close()
				exMu.Unlock()
				allPath := filepath.Join(*traceDir, "traces.jsonl")
				f, err := os.Create(allPath)
				if err != nil {
					log.Printf("writing trace dump: %v", err)
					return
				}
				if err := rec.WriteJSONL(f); err != nil {
					log.Printf("writing trace dump: %v", err)
				}
				f.Close()
				st := rec.Stats()
				log.Printf("traces: %d completed, %d exemplars (%d dropped) -> %s (analyze with: gplusanalyze traces %s %s)",
					st.Completed, st.Exemplars, st.Dropped, *traceDir, allPath, exPath)
			}
		}
		tracer = trace.New(trace.Config{SampleRate: *traceSample, Recorder: rec, Metrics: reg})
		log.Printf("tracing %.1f%% of crawled profiles (slow>%v, errors, retries>=%d retained as exemplars)",
			100**traceSample, *traceSlow, *traceRetry)
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		mux := obs.NewDebugMux(reg)
		mux.Handle("/debug/traces", tracer.Recorder())
		series.Mount(mux, collector, eng)
		log.Printf("serving crawl metrics on http://%s/metrics (traces at /debug/traces)", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	// The continuous profiler: interval captures into the on-disk ring,
	// plus anomaly-triggered dumps the SLO engine, the stall detector,
	// and the AIMD gate fire below. Nil when -profile-dir is unset —
	// every hook on it is then a no-op.
	var profC *prof.Collector
	if *profileDir != "" {
		store, err := prof.OpenStore(*profileDir, prof.StoreOptions{
			MaxCaptures: *profileKeep,
			Metrics:     reg,
		})
		if err != nil {
			log.Fatalf("opening -profile-dir: %v", err)
		}
		profC = prof.NewCollector(store, prof.Options{
			Interval:    *profileInt,
			CPUDuration: *profileCPU,
			SLOState:    eng.StateSummary,
			Metrics:     reg,
		})
		log.Printf("continuous profiling -> %s (every %v, cpu window %v, retain %d; analyze with: gplusanalyze profiles %s)",
			*profileDir, *profileInt, *profileCPU, *profileKeep, *profileDir)
	}
	// A PAGE transition on any objective fires an immediate capture
	// tagged with the objective, so the profile ring holds a CPU burst
	// and goroutine dump from inside every paged incident.
	eng.OnTransition(func(tr series.Transition) {
		if tr.To == series.StatePage {
			profC.Trigger("slo-page:" + tr.Name)
		}
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Sampling starts before the seed fetch: a service that is down when
	// the crawl launches shows up as 503/retry series from the very
	// first request, instead of as invisible pre-collection history.
	collector.Start()
	profC.Start()

	var seedList []string
	if *seeds != "" {
		// Trim and drop empties: a trailing comma or stray whitespace
		// must not enqueue profile "" for crawling.
		for _, s := range strings.Split(*seeds, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seedList = append(seedList, s)
			}
		}
		if len(seedList) == 0 {
			log.Fatalf("-seeds %q contains no usable ids", *seeds)
		}
	} else {
		// The seed fetch deserves the same timeout and instrumentation
		// as every crawl worker's client.
		client := &gplusapi.Client{
			BaseURL:    *url,
			HTTPClient: &http.Client{Timeout: *timeout},
			Metrics:    reg,
		}
		id, err := client.FetchSeed(ctx)
		if err != nil {
			log.Fatalf("fetching seed from %s: %v", *url, err)
		}
		seedList = []string{id}
		log.Printf("seeding crawl at most popular user %s", id)
	}

	load := func(path string) *crawler.Result {
		prev, err := crawler.LoadCheckpoint(path)
		if err != nil {
			log.Fatalf("loading checkpoint: %v", err)
		}
		if n := prev.Stats.TornRecords; n > 0 {
			// A mid-append crash tore the final line; at most that one
			// record is lost and the rest of the journal is intact.
			log.Printf("warning: dropped %d torn trailing record(s) from %s", n, path)
			reg.Counter("crawler_journal_torn_records_total").Add(int64(n))
		}
		log.Printf("resuming: %d profiles, %d discovered from %s",
			len(prev.Profiles), len(prev.Discovered), path)
		return prev
	}

	journalExists := false
	if *journal != "" {
		if fi, err := os.Stat(*journal); err == nil && fi.Size() > 0 {
			journalExists = true
		}
	}
	if *resume != "" && journalExists {
		log.Fatalf("-resume with an existing non-empty -journal %s is ambiguous: resume from the journal alone, or point -journal at a fresh file", *journal)
	}

	var prev *crawler.Result
	switch {
	case *resume != "":
		prev = load(*resume)
	case journalExists:
		prev = load(*journal)
	}

	var jrnl *crawler.Journal
	if *journal != "" {
		j, err := crawler.OpenJournal(*journal, crawler.JournalOptions{
			FlushInterval: *flushEvery,
			Metrics:       reg,
		})
		if err != nil {
			log.Fatalf("opening journal: %v", err)
		}
		jrnl = j
		if prev != nil && *resume != "" {
			// The resume state came from a separate checkpoint and the
			// journal is fresh: copy it in so the journal alone can
			// reconstruct the whole crawl.
			if err := j.Bootstrap(prev); err != nil {
				log.Fatalf("bootstrapping journal: %v", err)
			}
		}
		log.Printf("journaling live crawl state -> %s (flush+fsync every %v)", *journal, *flushEvery)
	}

	// With -dash the periodic progress line would scribble over the
	// dashboard: capture it instead and render it inside the dash frame
	// (the final summary still goes to the log, which writes to stderr
	// while the dashboard owns stdout).
	var onProgress func(crawler.Progress)
	if *dashOn {
		var progMu sync.Mutex
		var lastProgress crawler.Progress
		onProgress = func(p crawler.Progress) {
			progMu.Lock()
			lastProgress = p
			progMu.Unlock()
			if p.Final {
				log.Print(p)
			}
		}
		dash := series.NewDash(collector, eng, os.Stdout, series.DashOptions{Extra: func() []string {
			progMu.Lock()
			defer progMu.Unlock()
			if lastProgress.Elapsed == 0 {
				return nil
			}
			return []string{lastProgress.String()}
		}})
		collector.OnSample(dash.Frame)
	}

	// Out-of-core edge collection: workers stream every observed edge
	// into sorted disk segments; the in-RAM edge list is never built.
	var sink *dataset.SegmentSink
	var diskMet *diskcsr.Metrics
	if *segmentDir != "" {
		if reg != nil {
			diskMet = diskcsr.NewMetrics(reg)
		}
		var serr error
		sink, serr = dataset.NewSegmentSink(*segmentDir, 0, diskMet)
		if serr != nil {
			log.Fatalf("opening -segment-dir: %v", serr)
		}
		log.Printf("streaming edges to segments -> %s (compacted into %s at save)", *segmentDir, filepath.Join(*out, "graph.v2"))
	}
	// A typed-nil *SegmentSink must not become a non-nil interface.
	var edgeSink crawler.EdgeSink
	if sink != nil {
		edgeSink = sink
	}

	var resCfg *crawler.ResilienceConfig
	if *resilient {
		resCfg = &crawler.ResilienceConfig{
			AttemptTimeout: *attemptTO,
			MaxRequeues:    *maxRequeues,
		}
		// An AIMD collapse — the fleet cut all the way to one concurrent
		// fetch — is the crawl-side signature of a struggling service;
		// capture it as it happens.
		resCfg.AIMD.OnDecrease = func(limit int) {
			if limit <= 1 {
				profC.Trigger("aimd-collapse")
			}
		}
		log.Printf("resilience armed: AIMD concurrency gate, shared retry budget, per-endpoint breakers, requeue-on-overload (watch crawler_aimd_limit, crawler_retry_budget_tokens_milli, crawler_requeues_total)")
	}

	res, err := crawler.Crawl(ctx, crawler.Config{
		BaseURL:          *url,
		Seeds:            seedList,
		Workers:          *workers,
		MaxProfiles:      *max,
		FetchIn:          true,
		FetchOut:         true,
		HTTPTimeout:      *timeout,
		ScrapeHTML:       *scrapeHTML,
		AbortAfterErrors: *abortErrs,
		Politeness:       *politeness,
		Resume:           prev,
		Journal:          jrnl,
		Metrics:          reg,
		ProgressInterval: *progress,
		OnProgress:       onProgress,
		// Three intervals of zero throughput with a non-empty frontier is
		// a stall; the goroutine dump it triggers shows where every
		// worker is wedged.
		StallAfter: 3,
		OnStall: func(p crawler.Progress) {
			log.Printf("crawl stalled (frontier=%d, no profiles for 3 intervals); capturing profile dump", p.Frontier)
			profC.Trigger("stall")
		},
		Tracer:     tracer,
		Resilience: resCfg,
		EdgeSink:   edgeSink,
	})
	profC.Stop()
	if cerr := jrnl.Close(); cerr != nil {
		log.Printf("journal error (crawl state may be incomplete on disk): %v", cerr)
	}
	if traceDump != nil {
		traceDump()
	}
	if collector != nil {
		collector.Stop()
		if *seriesDir != "" {
			if err := os.MkdirAll(*seriesDir, 0o755); err != nil {
				log.Printf("creating -series-dir: %v", err)
			} else if err := writeSeries(collector, filepath.Join(*seriesDir, "series.jsonl")); err != nil {
				log.Printf("writing series dump: %v", err)
			}
		}
	}
	if err != nil && res == nil {
		log.Fatalf("crawl: %v", err)
	}
	if err != nil {
		log.Printf("crawl interrupted (%v); saving partial results", err)
	}
	resumed := ""
	if res.Stats.ProfilesResumed > 0 {
		resumed = fmt.Sprintf(" (+%d resumed)", res.Stats.ProfilesResumed)
	}
	requeued := ""
	if res.Stats.Requeued > 0 {
		requeued = fmt.Sprintf(", %d overload requeues", res.Stats.Requeued)
	}
	log.Printf("crawled %d profiles%s (%d discovered), %d edge observations, %d pages, %d profile errors, %d circle errors%s in %v",
		res.Stats.ProfilesCrawled, resumed, res.Stats.Discovered, res.Stats.EdgesObserved,
		res.Stats.PagesFetched, res.Stats.ProfileErrors, res.Stats.CircleErrors, requeued, res.Stats.Duration)

	if *checkpoint != "" {
		if err := crawler.SaveCheckpoint(*checkpoint, res); err != nil {
			log.Fatalf("saving checkpoint: %v", err)
		}
		log.Printf("wrote checkpoint -> %s", *checkpoint)
	}

	var ds *dataset.Dataset
	if sink != nil {
		// Compact the on-disk segments straight into <out>/graph.v2 and
		// open the result memory-mapped: the full edge list never exists
		// in this process's RAM.
		build := dataset.FromCrawlSegments
		if *compress {
			build = dataset.FromCrawlSegmentsCompressed
		}
		if ds, err = build(res, sink, *out, diskMet); err != nil {
			log.Fatalf("compacting segment dataset: %v", err)
		}
		defer ds.Close()
	} else {
		ds = dataset.FromCrawl(res)
		save := ds.SaveV2
		if *compress {
			save = ds.SaveV2Compressed
		}
		if err := save(*out); err != nil {
			log.Fatalf("saving dataset: %v", err)
		}
	}
	log.Printf("wrote dataset: %d users, %d edges -> %s", ds.NumUsers(), ds.View().NumEdges(), *out)
}
