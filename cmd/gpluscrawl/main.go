// Command gpluscrawl runs the paper's bidirectional BFS crawler against
// a gplusd instance and writes the collected dataset to disk.
//
// Every crawl has the same shape. Profiles, edges and discovered ids
// stream into an append-only journal (-journal, default
// <out>/crawl.journal), flushed and fsynced every -flush-interval: a
// crawl killed mid-flight (SIGKILL, OOM, reboot) loses at most one flush
// interval of records plus one torn final line. Observed edges also
// stream into segments under <out>/.segments, raw logs of 8 bytes per
// observation that only compaction sorts, so resident memory
// follows the node count, not the edge count; when the crawl ends the
// segments are compacted into <out>/graph.v2 and removed. Running the
// same command again resumes: one pass over the journal restores the
// profiles and the frontier and replays its edges into fresh segments
// (stale ones are cleared — they are unreadable without the id table
// of the process that wrote them), and the crawl continues. -max bounds
// the profiles fetched per session; the summary reports those carried
// over from earlier sessions separately as "+N resumed". A journal is a
// checkpoint file and a checkpoint file is a journal: to seed a crawl
// from an old one, copy it to <out>/crawl.journal.
//
// With -metrics-addr it serves live crawler telemetry (/metrics in
// Prometheus text, /debug/vars, /debug/pprof/, /debug/timeseries —
// in-process metric history sampled every -sample-interval — and
// /debug/slo) while the crawl runs. Every sample, the run's watcher
// (package rundir) builds one health report over the trailing window of
// that history, evaluating each -slo objective once; -progress logs its
// last tick as a structured line with a frontier-drain ETA — the
// operational view the paper's 45-day crawl depended on — and a report
// that shows a stall beginning or an objective paging fires a profile
// capture.
//
// -dash draws the same report on stdout as a live ANSI dashboard
// instead: what `gplusanalyze metrics` prints of the run afterwards
// (sparkline rows, error spikes, stalls, the burn-rate state of the -slo
// objectives), as it happens (logs keep flowing to stderr).
//
// -obs-dir names the run directory every signal is spooled into (layout
// in package rundir): each metric tick, exemplar trace and profile
// capture as the crawl runs — so a killed crawl keeps them — and the
// rest of the trace ring at exit. `gplusanalyze metrics|traces <dir>`
// read it back, during the crawl too, and `go tool pprof
// <dir>/profiles/*.pb.gz` the profile captures.
//
// With -trace-sample the crawler records request-scoped span traces: one
// root per crawled profile with children for the profile fetch, each
// circle page, per-attempt API calls (with backoff and status), scheduler
// offers, and journal appends, propagated to gplusd via X-Gplus-Trace so
// server-side spans join the same trace. The flight recorder keeps the
// last traces plus every slow (>500ms), errored or retry-heavy (3+)
// exemplar; browse it at /debug/traces on -metrics-addr.
//
// Every crawl adapts to overload: an AIMD gate adapts effective worker
// concurrency to 429/503/deadline feedback, a shared retry budget caps
// fleet-wide retry amplification near 10%, per-endpoint circuit breakers
// fail fast through dead endpoints, and server sheds requeue the id to
// the frontier tail instead of counting as failures — a crawl rides out
// a server brownout with an identical final dataset. -attempt-timeout is
// the one request deadline, per wire attempt and propagated to gplusd.
// -abort-errors counts ids that stayed failed (retries exhausted, or out
// of requeues): the crawl then saves what it has and exits non-zero.
//
// Usage:
//
//	gpluscrawl -url http://127.0.0.1:8041 -out ./data -workers 11 -max 30000 \
//	    -metrics-addr 127.0.0.1:8042 -progress 10s \
//	    -trace-sample 0.05 -obs-dir ./run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusapi"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/resilience"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is one crawl session: everything main does but the signal wiring.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gpluscrawl", flag.ExitOnError)
	var (
		url         = fs.String("url", "http://127.0.0.1:8041", "gplusd base URL")
		out         = fs.String("out", "data", "output dataset directory")
		seeds       = fs.String("seeds", "", "comma-separated seed ids (default: ask /seed)")
		workers     = fs.Int("workers", 11, "concurrent crawl machines")
		max         = fs.Int("max", 0, "profile budget of this session (0 = crawl everything reachable)")
		journal     = fs.String("journal", "", "append-only journal of the live crawl state (default <out>/crawl.journal); a non-empty one is resumed from, so a checkpoint copied here seeds the crawl")
		flushEvery  = fs.Duration("flush-interval", time.Second, "journal flush+fsync interval (bounds what a crash can lose)")
		abortErrs   = fs.Int("abort-errors", 0, "stop, save the partial dataset and exit non-zero after this many permanent fetch failures — retries exhausted or requeues spent, not sheds (0 = never)")
		politeness  = fs.Duration("politeness", 0, "pause between requests per worker (e.g. 50ms)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ and /debug/traces on this address while crawling (empty disables)")
		progress    = fs.Duration("progress", 10*time.Second, "interval between progress lines (0 logs only the closing summary); three intervals without a page fetched while ids stay queued is a stall and fires a profile capture")
		dashOn      = fs.Bool("dash", false, "draw the live health report on stdout as a terminal dashboard (sparkline throughput/frontier/error rows, stalls, SLO state) instead of periodic progress lines")
		attemptTO   = fs.Duration("attempt-timeout", 30*time.Second, "request deadline of each wire attempt, propagated to gplusd via X-Gplus-Deadline; an expired attempt is retried and counts as an overload signal")
	)
	obsCfg := rundir.Config{Signals: series.CrawlSignals()}
	obsCfg.RegisterFlags(fs)
	fs.Parse(args) //nolint:errcheck — ExitOnError

	watch := *progress > 0 || *dashOn
	if watch && obsCfg.Series.Interval <= 0 {
		return errors.New("-progress and -dash read the sampled series: they require -sample-interval > 0")
	}
	if *progress > 0 {
		// The stall rule counts ticks: as many as three progress intervals span.
		if n := int(3 * *progress / obsCfg.Series.Interval); n > obsCfg.Signals.StallAfter {
			obsCfg.Signals.StallAfter = n
		}
	}
	if *metricsAddr != "" {
		obsCfg.Name = "gpluscrawl" // the expvar name: /debug/vars is served on -metrics-addr only
	}

	// The whole observability stack and its spool into -obs-dir. Sampling
	// starts here, before the seed fetch: a service that is down when the
	// crawl launches shows up as 503/retry series from the first request.
	obsRun, err := rundir.Start(obsCfg)
	if err != nil {
		return fmt.Errorf("starting observability: %w", err)
	}
	reg := obsRun.Registry

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		log.Printf("serving crawl metrics on http://%s/metrics (traces at /debug/traces)", ln.Addr())
		go func() {
			if err := http.Serve(ln, obsRun.Mux()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

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
			return fmt.Errorf("-seeds %q contains no usable ids", *seeds)
		}
	} else {
		// The seed fetch deserves the same instrumentation as every
		// crawl worker's client.
		client := &gplusapi.Client{BaseURL: *url, Metrics: reg}
		id, err := client.FetchSeed(ctx)
		if err != nil {
			return fmt.Errorf("fetching seed from %s: %w", *url, err)
		}
		seedList = []string{id}
		log.Printf("seeding crawl at most popular user %s", id)
	}

	// Observed edges stream into sorted disk segments; the edge list never
	// exists in this process's RAM. Segments left by a killed session are
	// unusable — their ids index an interning table that died with it.
	segDir := filepath.Join(*out, ".segments")
	if stale, err := diskcsr.ListSegments(segDir); err != nil {
		return err
	} else if len(stale) > 0 {
		log.Printf("clearing %d stale segment file(s) from %s (the journal replays their edges)", len(stale), segDir)
	}
	if err := os.RemoveAll(segDir); err != nil {
		return err
	}
	diskMet := diskcsr.NewMetrics(reg)
	sink, err := dataset.NewSegmentSink(segDir, 0, diskMet)
	if err != nil {
		return fmt.Errorf("opening segment dir: %w", err)
	}

	// A non-empty journal is an earlier session of this crawl: one pass
	// restores its profiles and frontier and replays its edges into the sink.
	if *journal == "" {
		*journal = filepath.Join(*out, "crawl.journal")
	}
	var prev *crawler.Result
	if fi, err := os.Stat(*journal); err == nil && fi.Size() > 0 {
		if prev, err = crawler.ReplayJournal(*journal, sink); err != nil {
			return fmt.Errorf("replaying journal: %w", err)
		}
		if n := prev.Stats.TornRecords; n > 0 {
			// A mid-append crash tore the final line; at most that one
			// record is lost and the rest of the journal is intact.
			log.Printf("warning: dropped %d torn trailing record(s) from %s", n, *journal)
			reg.Counter("crawler_journal_torn_records_total").Add(int64(n))
		}
		log.Printf("resuming: %d profiles, %d discovered, %d edge observations from %s",
			len(prev.Profiles), len(prev.Discovered), prev.Stats.EdgesObserved, *journal)
	}
	jrnl, err := crawler.OpenJournal(*journal, crawler.JournalOptions{
		FlushInterval: *flushEvery,
		Metrics:       reg,
	})
	if err != nil {
		return fmt.Errorf("opening journal: %w", err)
	}
	log.Printf("journaling live crawl state -> %s (flush+fsync every %v), edges -> %s", *journal, *flushEvery, segDir)

	// The live view: the run's report of each sample, rendered as a
	// progress line every -progress or as a dashboard frame (which would be
	// scribbled over by progress lines; the log goes to stderr, the frame
	// to stdout). The run fires the stall capture itself.
	var health *series.HealthReport // the latest; main reads it once sampling has stopped
	printed := time.Now()           // the tick of the last progress line logged
	if watch {
		dash := series.NewDash(os.Stdout)
		obsRun.Watch(func(r *series.HealthReport) {
			health = r
			if r.StallOnset {
				log.Printf("crawl stalled (no page fetched for %d ticks with ids queued); capturing profile dump", obsCfg.Signals.StallAfter)
			}
			switch {
			case *dashOn:
				dash.Frame(r)
			case r.End.Sub(printed) >= *progress:
				log.Print(r.ProgressLine())
				printed = r.End
			}
		})
	}

	res, crawlErr := crawler.Crawl(ctx, crawler.Config{
		BaseURL:          *url,
		Seeds:            seedList,
		Workers:          *workers,
		MaxProfiles:      *max,
		FetchIn:          true,
		FetchOut:         true,
		AttemptTimeout:   *attemptTO,
		AbortAfterErrors: *abortErrs,
		Politeness:       *politeness,
		Resume:           prev,
		Journal:          jrnl,
		Metrics:          reg,
		Tracer:           obsRun.Tracer,
		EdgeSink:         sink,
		// An AIMD collapse — the fleet cut all the way to one concurrent
		// fetch — is the crawl-side signature of a struggling service;
		// capture it as it happens.
		AIMD: resilience.AIMDOptions{OnDecrease: func(limit int) {
			if limit <= 1 {
				obsRun.Profiler.Trigger("aimd-collapse")
			}
		}},
	})
	if cerr := jrnl.Close(); cerr != nil {
		log.Printf("journal error (crawl state may be incomplete on disk): %v", cerr)
	}
	obsErr := obsRun.Close() // takes the last sample: health is now where the crawl ended
	if health != nil && !health.End.Equal(printed) {
		log.Print(health.ProgressLine())
	}
	if obsErr != nil {
		log.Printf("completing -obs-dir: %v", obsErr)
	} else if dir := obsCfg.Dir; dir != "" {
		log.Printf("run directory complete -> %s (read it with: gplusanalyze metrics|traces %s; profile captures: go tool pprof %s/profiles/*.pb.gz)", dir, dir, dir)
	}
	if res == nil {
		return fmt.Errorf("crawl: %w", crawlErr)
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
	var gaveUp error // returned once the partial dataset is saved
	switch {
	case crawlErr == nil:
	case ctx.Err() != nil:
		log.Printf("crawl interrupted (%v); saving partial results", crawlErr)
	case errors.Is(crawlErr, crawler.ErrTooManyErrors):
		log.Printf("crawl gave up (%v); saving partial results", crawlErr)
		gaveUp = fmt.Errorf("crawl: %w", crawlErr)
	default:
		// The edge sink lost part of the stream: a dataset compacted from
		// it would have holes. The journal took every edge; a rerun
		// replays it into fresh segments.
		return fmt.Errorf("crawl: %w; nothing published, rerun to resume from %s", crawlErr, *journal)
	}

	// Compact the segments straight into <out>/graph.v2 and open the
	// result memory-mapped.
	ds, err := dataset.FromCrawlSegments(res, sink, *out, diskMet)
	if err != nil {
		return fmt.Errorf("compacting segment dataset: %w", err)
	}
	defer ds.Close()
	if err := os.RemoveAll(segDir); err != nil {
		log.Printf("removing compacted segments: %v", err)
	}
	log.Printf("wrote dataset: %d users, %d edges -> %s", ds.NumUsers(), ds.View().NumEdges(), *out)
	return gaveUp
}
