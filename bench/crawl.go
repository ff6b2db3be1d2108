package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusapi"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/obs"
	"gplus/internal/obs/trace"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

// generate builds the workload's universe and records the synth layer.
func generate(users int, rec *recorder, layer map[string]float64) (*synth.Universe, error) {
	cfg := synth.DefaultConfig(users)
	cfg.Seed = universeSeed
	var (
		u   *synth.Universe
		err error
	)
	layer["synth.generate_s"] = rec.do("synth.Generate", 0, func() { u, err = synth.Generate(cfg) })
	if err != nil {
		return nil, fmt.Errorf("generating universe: %w", err)
	}
	layer["synth.edges"] = float64(u.Graph.NumEdges())
	return u, nil
}

// service is an http.Handler listening on loopback.
type service struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *service) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tracedHandler records one span per request, caused by the span in
// parent, and counts the bytes written.
type tracedHandler struct {
	next   http.Handler
	rec    *recorder
	name   string
	parent atomic.Int64
	bytes  atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.rec.start(h.name, int(h.parent.Load()))
	cw := countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(&cw, r)
	h.rec.end(id)
	h.bytes.Add(cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tracedSink times every ObserveEdge, lock wait included.
type tracedSink struct {
	next crawler.EdgeSink
	t    *tally
}

func (s *tracedSink) ObserveEdge(from, to string) error {
	start := time.Now()
	err := s.next.ObserveEdge(from, to)
	s.t.add(start)
	return err
}

// crawlRun is one crawl → dataset pass and what it left on disk.
type crawlRun struct {
	res     *crawler.Result
	ds      *dataset.Dataset
	crawlS  float64 // wall of crawler.Crawl
	tailS   float64 // wall of dataset.FromCrawlSegments
	journal string
	outDir  string
}

// crawlToDataset is the timed region of crawl_e2e: a bidirectional
// crawl from start with the journal open and edges streamed into a
// segment sink, then the journal's closing flush, then
// dataset.FromCrawlSegments (segment flush, remap-compact, profile
// column, verified open, Validate). withObs additionally hands the
// crawl a metrics registry and a tracer, the repo's own instrumentation.
func crawlToDataset(ctx context.Context, dir, url, start string, withObs bool, rec *recorder, parent int, sinkTally *tally) (*crawlRun, error) {
	run := &crawlRun{journal: filepath.Join(dir, "journal.log"), outDir: filepath.Join(dir, "data")}
	jr, err := crawler.OpenJournal(run.journal, crawler.JournalOptions{})
	if err != nil {
		return nil, err
	}
	sink, err := dataset.NewSegmentSink(filepath.Join(dir, "segments"), 0, nil)
	if err != nil {
		jr.Close() //nolint:errcheck — unwinding
		return nil, err
	}
	cfg := crawler.Config{
		BaseURL:  url,
		Seeds:    []string{start},
		Workers:  parallelism(),
		FetchIn:  true,
		FetchOut: true,
		Journal:  jr,
		EdgeSink: sink,
	}
	if sinkTally != nil {
		cfg.EdgeSink = &tracedSink{next: sink, t: sinkTally}
	}
	if withObs {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = trace.New(trace.Config{})
	}
	var crawlErr error
	run.crawlS = rec.do("crawler.Crawl", parent, func() { run.res, crawlErr = crawler.Crawl(ctx, cfg) })
	var closeErr error
	rec.do("crawler.Journal.Close", parent, func() { closeErr = jr.Close() })
	if crawlErr != nil {
		return nil, fmt.Errorf("crawl: %w", crawlErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("closing journal: %w", closeErr)
	}
	run.tailS = rec.do("dataset.FromCrawlSegments", parent, func() {
		run.ds, err = dataset.FromCrawlSegments(run.res, sink, run.outDir, nil)
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

func measureCrawl(env *childEnv) (res *childResult, err error) {
	ctx := context.Background()
	rec := env.rec
	res = newChildResult()

	setup := time.Now()
	u, err := generate(env.users, rec, res.Layer)
	if err != nil {
		return nil, err
	}
	var handler http.Handler = gplusd.New(u, gplusd.Options{})
	var traced *tracedHandler
	if rec != nil {
		traced = &tracedHandler{next: handler, rec: rec, name: "gplusd.ServeHTTP"}
		handler = traced
	}
	svc, err := serve(handler)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := svc.stop(); err == nil {
			err = serr
		}
	}()
	// The paper seeded its crawl at one popular profile; the universe is
	// one weakly connected component, so any start reaches all of it and
	// -seed only changes the order the frontier is drained in.
	start := u.IDs[rand.New(rand.NewPCG(env.seed, 1)).IntN(len(u.IDs))]
	res.SetupS = time.Since(setup).Seconds()

	var sinkTally *tally
	if rec != nil {
		sinkTally = rec.tally("dataset.SegmentSink.ObserveEdge")
	}
	root := rec.start("crawl_e2e", 0)
	if traced != nil {
		traced.parent.Store(int64(root))
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	run, err := crawlToDataset(ctx, env.dir, svc.url, start, false, rec, root, sinkTally)
	res.WallS, res.CPUS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	rec.end(root)
	if err != nil {
		return nil, err
	}
	defer run.ds.Close()

	st := run.res.Stats
	res.Work, res.WorkS = float64(st.ProfilesCrawled), run.crawlS
	res.Attempted = int64(st.ProfilesCrawled+st.ProfileErrors+st.CircleErrors) + st.PagesFetched
	res.Failed = int64(st.ProfileErrors + st.CircleErrors)
	if res.Failed > 0 {
		res.problem("%d profile and %d circle fetches failed permanently", st.ProfileErrors, st.CircleErrors)
	}
	res.Edges = run.ds.View().NumEdges()
	if res.V2Bytes, err = fileSize(filepath.Join(run.outDir, "graph.v2")); err != nil {
		return nil, err
	}
	if msg := sameAsUniverse(run.ds, u); msg != "" {
		res.Failed++
		res.problem("crawled dataset differs from ground truth: %s", msg)
	}
	if rec == nil {
		return res, nil
	}

	served := rec.durations(traced.name)
	res.Layer["gplusd.requests"] = float64(len(served))
	res.Layer["gplusd.busy_s"] = sum(served)
	res.Layer["gplusd.busy_share"] = sum(served) / (run.crawlS * float64(runtime.GOMAXPROCS(0)))
	res.Layer["gplusd.serve_p50_us"] = stats.Quantile(served, 0.50) * 1e6
	res.Layer["gplusd.serve_p99_us"] = stats.Quantile(served, 0.99) * 1e6
	res.Layer["gplusd.bytes_out"] = float64(traced.bytes.Load())
	res.Layer["crawler.crawl_s"] = run.crawlS
	res.Layer["crawler.pages"] = float64(st.PagesFetched)
	res.Layer["crawler.edges_observed"] = float64(st.EdgesObserved)
	res.Layer["crawler.requests_per_profile"] = float64(len(served)) / float64(st.ProfilesCrawled)
	res.Layer["crawler.errors"] = float64(st.ProfileErrors + st.CircleErrors)
	res.Layer["crawler.requeued"] = float64(st.Requeued)
	res.Layer["dataset.sink_busy_s"] = sinkTally.busy().Seconds()
	res.Layer["dataset.sink_edges"] = float64(sinkTally.n.Load())
	res.Layer["dataset.from_crawl_segments_s"] = run.tailS
	for name, path := range map[string]string{
		"crawler.journal_bytes":  run.journal,
		"dataset.profiles_bytes": filepath.Join(run.outDir, "profiles.jsonl"),
	} {
		n, err := fileSize(path)
		if err != nil {
			return nil, err
		}
		res.Layer[name] = float64(n)
	}

	if err := replay(ctx, u, rec, res); err != nil {
		return nil, err
	}
	res.Layer["crawler.overhead_ratio"] = run.crawlS / res.Layer["gplusapi.replay_s"]
	if err := journalRoundTrip(env.dir, run.journal, rec, res); err != nil {
		return nil, err
	}
	if res.ObsCrawlS, err = instrumentedCrawl(ctx, env.dir, u, start); err != nil {
		return nil, fmt.Errorf("instrumented crawl: %w", err)
	}
	return res, nil
}

// instrumentedCrawl measures the repo's own instrumentation from
// outside: the same crawl once more, against an unwrapped server, with a
// metrics registry and a tracer attached. It returns the wall of
// crawler.Crawl, which the parent divides by the untraced runs' median.
func instrumentedCrawl(ctx context.Context, dir string, u *synth.Universe, start string) (crawlS float64, err error) {
	svc, err := serve(gplusd.New(u, gplusd.Options{}))
	if err != nil {
		return 0, err
	}
	defer func() {
		if serr := svc.stop(); err == nil {
			err = serr
		}
	}()
	obsDir := filepath.Join(dir, "obs")
	if err := os.Mkdir(obsDir, 0o755); err != nil {
		return 0, err
	}
	run, err := crawlToDataset(ctx, obsDir, svc.url, start, true, nil, 0, nil)
	if err != nil {
		return 0, err
	}
	return run.crawlS, run.ds.Close()
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// sameAsUniverse checks a crawled dataset against dataset.FromUniverse
// ground truth: the same ids, every profile crawled, every out-row equal.
// Crawled node ids follow sorted service-id order, the universe's follow
// generation order, so rows are compared through the id strings.
func sameAsUniverse(ds *dataset.Dataset, u *synth.Universe) string {
	truth := dataset.FromUniverse(u)
	if ds.NumUsers() != truth.NumUsers() {
		return fmt.Sprintf("%d users discovered, %d exist", ds.NumUsers(), truth.NumUsers())
	}
	if c := ds.NumCrawled(); c != truth.NumUsers() {
		return fmt.Sprintf("%d of %d profiles crawled", c, truth.NumUsers())
	}
	g, tg := ds.View(), truth.View()
	if g.NumEdges() != tg.NumEdges() {
		return fmt.Sprintf("%d edges collected, %d exist", g.NumEdges(), tg.NumEdges())
	}
	toTruth := make([]graph.NodeID, ds.NumUsers())
	for i, id := range ds.IDs {
		t, ok := truth.NodeOf(id)
		if !ok {
			return fmt.Sprintf("crawled id %q does not exist", id)
		}
		toTruth[i] = t
	}
	var row []graph.NodeID
	for i := range ds.IDs {
		row = row[:0]
		for _, v := range g.Out(graph.NodeID(i)) {
			row = append(row, toTruth[v])
		}
		slices.Sort(row)
		if !slices.Equal(row, tg.Out(toTruth[i])) {
			return fmt.Sprintf("out-row of %s differs", ds.IDs[i])
		}
	}
	return ""
}

// replay re-fetches every profile and every circle page with bare
// gplusapi clients — no scheduler, journal or sink — one closed loop per
// core, against a fresh traced server. What the crawl costs beyond this
// is the crawler's own overhead.
func replay(ctx context.Context, u *synth.Universe, rec *recorder, res *childResult) error {
	h := &tracedHandler{next: gplusd.New(u, gplusd.Options{}), rec: rec, name: "gplusd.ServeHTTP.replay"}
	svc, err := serve(h)
	if err != nil {
		return err
	}
	clients := parallelism()
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
		before   runtime.MemStats
		after    runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	root := rec.start("gplusapi.replay", 0)
	h.parent.Store(int64(root))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &gplusapi.Client{BaseURL: svc.url, CrawlerID: fmt.Sprintf("replay-%02d", c)}
			fetch := func(fn func() error) bool {
				id := rec.start("gplusapi.Fetch", root)
				err := fn()
				rec.end(id)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
				return err == nil
			}
			for i := c; i < len(u.IDs); i += clients {
				id := u.IDs[i]
				if !fetch(func() error { _, err := cl.FetchProfile(ctx, id); return err }) {
					return
				}
				for _, dir := range []gplusapi.CircleDir{gplusapi.CircleOut, gplusapi.CircleIn} {
					for token, more := "", true; more; {
						if !fetch(func() error {
							page, err := cl.FetchCircle(ctx, id, dir, token, 0)
							if err == nil {
								token, more = page.NextPageToken, page.NextPageToken != ""
							}
							return err
						}) {
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	res.Layer["gplusapi.replay_s"] = time.Since(start).Seconds()
	rec.end(root)
	runtime.ReadMemStats(&after)
	if err := svc.stop(); err != nil {
		return err
	}
	if firstErr != nil {
		return fmt.Errorf("replay fetch: %w", firstErr)
	}
	fetches, serves := rec.durations("gplusapi.Fetch"), rec.durations(h.name)
	res.Layer["gplusapi.fetch_p50_us"] = stats.Quantile(fetches, 0.50) * 1e6
	res.Layer["gplusapi.fetch_p99_us"] = stats.Quantile(fetches, 0.99) * 1e6
	res.Layer["gplusapi.client_self_us"] = (sum(fetches)/float64(len(fetches)) - sum(serves)/float64(len(serves))) * 1e6
	res.Layer["gplusapi.allocs_per_fetch"] = float64(after.Mallocs-before.Mallocs) / float64(len(fetches))
	return nil
}

// journalRoundTrip measures the journal's resume path beside its write
// path: the crawl's journal is read back, bootstrapped into a fresh
// journal (Bootstrap + Sync + Close), and that file is loaded again.
func journalRoundTrip(dir, journal string, rec *recorder, res *childResult) error {
	full, err := crawler.LoadCheckpoint(journal)
	if err != nil {
		return fmt.Errorf("loading crawl journal: %w", err)
	}
	fresh := filepath.Join(dir, "bootstrap.log")
	jr, err := crawler.OpenJournal(fresh, crawler.JournalOptions{})
	if err != nil {
		return err
	}
	res.Layer["crawler.journal_bootstrap_s"] = rec.do("crawler.Journal.Bootstrap", 0, func() {
		if err = jr.Bootstrap(full); err == nil {
			err = jr.Sync()
		}
		if cerr := jr.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return fmt.Errorf("bootstrapping journal: %w", err)
	}
	var back *crawler.Result
	res.Layer["crawler.journal_load_s"] = rec.do("crawler.LoadCheckpoint", 0, func() { back, err = crawler.LoadCheckpoint(fresh) })
	if err != nil {
		return fmt.Errorf("loading bootstrapped journal: %w", err)
	}
	res.Attempted++
	if len(back.Profiles) != len(full.Profiles) || len(back.Edges) != len(full.Edges) || len(back.Discovered) != len(full.Discovered) {
		res.Failed++
		res.problem("journal round trip lost records: %d/%d profiles, %d/%d edges, %d/%d discovered",
			len(back.Profiles), len(full.Profiles), len(back.Edges), len(full.Edges), len(back.Discovered), len(full.Discovered))
	}
	return nil
}
