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
// of the -slo objectives (logs keep flowing to stderr).
//
// -obs-dir names the run directory every signal is spooled into (layout
// in package rundir): exemplar traces and the profile ring as the crawl
// runs, the metric series and every retained trace at exit.
// `gplusanalyze metrics|traces|profiles <dir>` read it back.
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
// last traces plus every slow (>500ms), errored or retry-heavy (3+)
// exemplar; browse it at /debug/traces on -metrics-addr.
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
//	    -trace-sample 0.05 -obs-dir ./run -resilience
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
	"strings"
	"sync"
	"syscall"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusapi"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
)

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
		dashOn      = flag.Bool("dash", false, "render a live terminal dashboard on stdout (sparkline throughput/frontier/error panels, SLO state) instead of periodic progress lines")
		resilient   = flag.Bool("resilience", false, "arm adaptive overload handling: AIMD worker-concurrency adaptation, a shared retry budget, per-endpoint circuit breakers, and requeue-on-overload instead of counting sheds as failures")
		attemptTO   = flag.Duration("attempt-timeout", 0, "per-attempt request deadline, propagated to gplusd via X-Gplus-Deadline (0 disables; requires -resilience)")
	)
	obsCfg := rundir.Config{Name: "gpluscrawl", Objectives: series.DefaultCrawlObjectives()}
	obsCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *attemptTO > 0 && !*resilient {
		log.Fatalf("-attempt-timeout requires -resilience")
	}

	// The whole observability stack and its spool into -obs-dir. Sampling
	// starts here, before the seed fetch: a service that is down when the
	// crawl launches shows up as 503/retry series from the first request.
	if obsCfg.Dir == "" && *metricsAddr == "" && !*dashOn {
		obsCfg.Series.Interval = 0 // nothing would read the series: no collector, no SLO engine
	}
	run, err := rundir.Start(obsCfg)
	if err != nil {
		log.Fatalf("starting observability: %v", err)
	}
	reg, collector, eng := run.Registry, run.Collector, run.Engine
	if *dashOn && collector == nil {
		log.Fatalf("-dash requires -sample-interval > 0")
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		log.Printf("serving crawl metrics on http://%s/metrics (traces at /debug/traces)", ln.Addr())
		go func() {
			if err := http.Serve(ln, run.Mux()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

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
		diskMet = diskcsr.NewMetrics(reg)
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
		resCfg = &crawler.ResilienceConfig{AttemptTimeout: *attemptTO}
		// An AIMD collapse — the fleet cut all the way to one concurrent
		// fetch — is the crawl-side signature of a struggling service;
		// capture it as it happens.
		resCfg.AIMD.OnDecrease = func(limit int) {
			if limit <= 1 {
				run.Profiler.Trigger("aimd-collapse")
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
			run.Profiler.Trigger("stall")
		},
		Tracer:     run.Tracer,
		Resilience: resCfg,
		EdgeSink:   edgeSink,
	})
	if cerr := jrnl.Close(); cerr != nil {
		log.Printf("journal error (crawl state may be incomplete on disk): %v", cerr)
	}
	if cerr := run.Close(); cerr != nil {
		log.Printf("completing -obs-dir: %v", cerr)
	} else if dir := obsCfg.Dir; dir != "" {
		log.Printf("run directory complete -> %s (read it with: gplusanalyze metrics|traces|profiles %s)", dir, dir)
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
