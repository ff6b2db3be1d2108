// Package rundir assembles the observability stack of one run — metrics
// registry, time-series collector and its health watcher, request
// tracer, profile ring — in one call, and spools what it gathers into
// one run directory as it goes:
//
//	<dir>/series.jsonl  one line per collector tick, appended as it is
//	                    sampled; rewritten to the store's newest
//	                    Capacity ticks whenever the store drops back to
//	                    them, and fsynced at Close
//	<dir>/traces.jsonl  exemplar traces appended as they trip; at Close the
//	                    ring's other traces, then an fsync
//	<dir>/profiles/     the continuous-profiling ring: <kind>-<seq>-<trigger>.pb.gz
//
// The watcher builds one series.HealthReport per collector tick, and
// every live surface reads that report: /debug/slo, the stall and
// slo-page:<objective> profile captures, and whatever subscribes through
// Run.Watch (gpluscrawl's progress line and -dash). /debug/timeseries
// serves the collector's retained ticks as series.jsonl lines.
//
// gpluscrawl, gplusd and the crawler's end-to-end tests all build their
// stack here, so the wiring that ships is the wiring that is tested.
// `gplusanalyze metrics|traces <dir>` read the directory back, and `go
// tool pprof` the captures under profiles/ — during the run as well as
// after it, and after a SIGKILL. A resumed run appends to series.jsonl
// (its counters restart from zero, which the series reset rule
// absorbs) and to traces.jsonl.
package rundir

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gplus/internal/durable"
	"gplus/internal/obs"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
)

// The files of a run directory.
const (
	SeriesFile  = "series.jsonl"
	TracesFile  = "traces.jsonl"
	ProfilesDir = "profiles"
)

// Config is the option structs of the signals side by side. Unlike in
// those structs, a zero interval or rate here switches the signal off
// rather than selecting its default; Start fills in the Metrics and
// (unless set) Recorder fields inside them, and under Dir takes over
// the Recorder's sink.
type Config struct {
	// Dir is the run directory; empty keeps everything in memory (no
	// series log, no exemplar stream, no profile ring).
	Dir string

	// Series configures the collector; Interval 0 leaves it — and with
	// it the watcher, /debug/slo and series.jsonl — off.
	Series series.Options
	// Signals are what the watcher reads the run's health from on every
	// collector tick: the stall rule, and the objectives behind
	// /debug/slo and the slo-page captures.
	Signals series.Signals
	// Trace configures the tracer; SampleRate 0 leaves tracing off. A
	// nil Recorder gets a 64-trace ring with the production exemplar
	// rules (root slower than 500ms, any failed span, 3+ retries).
	Trace trace.Config
	// Prof and ProfStore configure the profile ring under Dir;
	// Prof.Interval 0 leaves it off.
	Prof      prof.Options
	ProfStore prof.StoreOptions
}

// RegisterFlags declares the observability flags gpluscrawl and gplusd
// share, bound to c. -slo "default" keeps the Signals.Objectives the
// caller set beforehand. The mutex profiler rate is applied as it is
// parsed, which is before any goroutine of the run exists.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "obs-dir", "", "run directory: every metric sample is appended to <dir>/series.jsonl, exemplar traces stream to <dir>/traces.jsonl and profiles to <dir>/profiles/ during the run, and the rest of the trace ring is appended at exit (read it back, mid-run too, with `gplusanalyze metrics|traces <dir>` and `go tool pprof <dir>/profiles/cpu-*.pb.gz`); the profile ring keeps the CPU profiler on for a third of the run at the default -profile-interval — pass -profile-interval 0 for series and traces only")
	fs.DurationVar(&c.Series.Interval, "sample-interval", time.Second, "metric time-series sampling cadence for /debug/timeseries, the ticks appended to series.jsonl and the health report read off them once per tick (progress, /debug/slo, stall and SLO-page captures); 0 disables all of them")
	fs.Func("slo", `SLO objectives evaluated over the metric time series: "default" (the binary's availability + latency pair), "" for none, or a spec like "avail,error_ratio,bad=gplusd_chaos_faults_total,total=gplusd_requests_total,max=1%,window=1m"; report at /debug/slo`, func(v string) (err error) {
		c.Signals.Objectives, err = series.ObjectivesFlag(v, c.Signals.Objectives)
		return err
	})
	fs.Float64Var(&c.Trace.SampleRate, "trace-sample", 0, "head-sample this fraction of new request traces (0 disables tracing, 1 traces everything; traces propagated via X-Gplus-Trace are always joined); browse at /debug/traces")
	fs.DurationVar(&c.Prof.Interval, "profile-interval", 30*time.Second, "capture cycle of the CPU/heap/goroutine/mutex profile ring under -obs-dir, with a CPU window of min(10s, interval/2) per cycle (0 disables the ring)")
	fs.Func("mutex-profile", "runtime.SetMutexProfileFraction: sample 1/N of mutex contention events so mutex captures have data (0 = off)", func(v string) error {
		n, err := strconv.Atoi(v)
		if err == nil {
			runtime.SetMutexProfileFraction(n)
		}
		return err
	})
}

// Run is a started observability stack. Every field but Registry is nil
// when its signal is off, and every type is nil-safe, so callers wire
// them unconditionally.
type Run struct {
	Registry  *obs.Registry
	Collector *series.Collector
	Tracer    *trace.Tracer
	Profiler  *prof.Collector

	dir string

	// mu guards what the trace sink (on whichever worker finished the
	// trace), the sampling goroutine and callers share.
	mu       sync.Mutex
	traces   *durable.Log         // nil when not spooling traces, and after Close
	ticks    *durable.Log         // nil when not spooling ticks, after a failed write, and after Close
	ticksErr error                // the failed write that ended the series log
	latest   *series.HealthReport // the watcher's newest report
	watchers []func(*series.HealthReport)
}

// Start builds and starts the stack cfg describes; sampling and
// profiling begin before it returns.
func Start(cfg Config) (*Run, error) {
	r := &Run{Registry: obs.NewRegistry(), dir: cfg.Dir}
	obs.RegisterRuntimeMetrics(r.Registry)
	// fail unwinds the logs opened so far; nothing was written to them.
	fail := func(err error) (*Run, error) {
		for _, l := range []*durable.Log{r.ticks, r.traces} {
			if l != nil {
				l.Close() //nolint:errcheck — unwinding
			}
		}
		return nil, fmt.Errorf("rundir: %w", err)
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return fail(err)
		}
	}

	if cfg.Series.Interval > 0 {
		r.Collector = series.NewCollector(r.Registry, cfg.Series)
		if cfg.Dir != "" {
			log, err := durable.OpenLog(filepath.Join(cfg.Dir, SeriesFile))
			if err != nil {
				return fail(fmt.Errorf("series log: %w", err))
			}
			r.ticks = log
			r.Collector.OnSample(r.appendTick)
		}
		series.Watch(r.Collector, cfg.Signals, r.observe)
	}

	if cfg.Trace.SampleRate > 0 {
		if cfg.Trace.Recorder == nil {
			cfg.Trace.Recorder = trace.NewRecorder(0, trace.Rules{
				SlowerThan: 500 * time.Millisecond,
				Errors:     true,
				MinRetries: 3,
			})
		}
		if cfg.Dir != "" {
			log, err := durable.OpenLog(filepath.Join(cfg.Dir, TracesFile))
			if err != nil {
				return fail(fmt.Errorf("trace log: %w", err))
			}
			r.traces = log
			cfg.Trace.Recorder.SetSink(r.streamExemplar)
		}
		cfg.Trace.Metrics = r.Registry
		r.Tracer = trace.New(cfg.Trace)
	}

	if cfg.Dir != "" && cfg.Prof.Interval > 0 {
		cfg.ProfStore.Metrics = r.Registry
		store, err := prof.OpenStore(filepath.Join(cfg.Dir, ProfilesDir), cfg.ProfStore)
		if err != nil {
			return fail(err)
		}
		cfg.Prof.Metrics = r.Registry
		r.Profiler = prof.NewCollector(store, cfg.Prof)
	}

	r.Collector.Start()
	r.Profiler.Start()
	return r, nil
}

// observe is what the watcher hands each report to. It fires a capture
// when a stall begins or an objective pages — a CPU burst and goroutine
// dump from inside the incident — then makes the report the latest, the
// one /debug/slo serves, and hands it to every subscriber.
func (r *Run) observe(rep *series.HealthReport) {
	if rep.StallOnset {
		r.Profiler.Trigger("stall")
	}
	for _, name := range rep.PageOnset {
		r.Profiler.Trigger("slo-page:" + name)
	}
	r.mu.Lock()
	r.latest = rep
	watchers := r.watchers
	r.mu.Unlock()
	for _, fn := range watchers {
		fn(rep)
	}
}

// Watch hands fn every health report the run's watcher builds — one per
// collector tick, on the sampling goroutine, one call at a time, after
// the run's own captures have read it. Without a collector there are
// none.
func (r *Run) Watch(fn func(*series.HealthReport)) {
	r.mu.Lock()
	r.watchers = append(r.watchers, fn)
	r.mu.Unlock()
}

// appendTick appends the collector's new tick to series.jsonl and hands
// it to the kernel, so the run's metric history outlives a SIGKILL. When
// the tick made the store drop back to its newest Capacity ticks, the
// file is rewritten to exactly those instead (durable.WriteFile: a crash
// leaves the whole old list or the whole new one) and reopened, so
// within a session the file holds the ticks the live watcher reads. A
// failed write ends the log for the rest of the session; Close reports
// it.
func (r *Run) appendTick(t series.Tick, dropped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ticks == nil {
		return
	}
	var err error
	if dropped {
		err = r.rewriteSeries()
	} else if err = series.WriteTicks(r.ticks, []series.Tick{t}); err == nil {
		err = r.ticks.Flush()
	}
	if err != nil {
		if r.ticks != nil {
			r.ticks.Close() //nolint:errcheck — err is the one reported
		}
		r.ticks, r.ticksErr = nil, fmt.Errorf("series log: %w", err)
	}
}

// rewriteSeries replaces series.jsonl with the store's ticks and reopens
// it for appending. Caller holds r.mu.
func (r *Run) rewriteSeries() error {
	path := filepath.Join(r.dir, SeriesFile)
	err := r.ticks.Close()
	r.ticks = nil
	if err == nil {
		err = durable.WriteFile(path, func(f *os.File) error { return series.WriteTicks(f, r.Collector.Ticks()) })
	}
	if err == nil {
		r.ticks, err = durable.OpenLog(path)
	}
	return err
}

// streamExemplar appends one exemplar trace to traces.jsonl and hands it
// to the kernel, so it outlives a SIGKILL — exemplars exist to explain
// the run that was killed. No fsync: this runs on the crawl worker that
// finished the trace, and in a brownout every failed request is one.
// Best effort — a failed diagnostics write must not fail that request.
func (r *Run) streamExemplar(tr *trace.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		return
	}
	if trace.WriteTraceJSONL(r.traces, tr) == nil {
		r.traces.Flush() //nolint:errcheck — best effort, see above
	}
}

// Mux returns the operational endpoints of the run: /metrics
// (Prometheus text), the net/http/pprof suite under /debug/pprof/, the
// flight recorder at /debug/traces, and — with a collector — the tick
// log at /debug/timeseries and the health report at /debug/slo.
func (r *Run) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Registry)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", r.Tracer.Recorder())
	if r.Collector != nil {
		mux.Handle("/debug/timeseries", series.Handler{C: r.Collector})
		mux.HandleFunc("/debug/slo", r.serveSLO)
	}
	return mux
}

// serveSLO serves the watcher's latest report as the text
// `gplusanalyze metrics` prints.
func (r *Run) serveSLO(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	rep := r.latest
	r.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep.WriteText(w, 0)
}

// Close stops the stack and completes the run directory: the profile
// ring takes its final captures and the collector a last sample (and the
// watcher its last report), series.jsonl is fsynced and closed, and the
// ring's traces the exemplar stream did not carry are appended to
// traces.jsonl before it is fsynced and closed. The Run's fields stay
// readable afterwards.
func (r *Run) Close() error {
	r.Profiler.Stop()
	r.Collector.Stop()

	var errs []error
	r.mu.Lock()
	if r.traces != nil {
		// The sink was handed exactly the retained exemplars, so those are
		// the streamed ones; an exemplar dropped past trace.MaxExemplars is
		// tagged but was never streamed.
		rec := r.Tracer.Recorder()
		streamed := make(map[*trace.Trace]bool)
		for _, tr := range rec.Exemplars() {
			streamed[tr] = true
		}
		for _, tr := range rec.Completed() {
			if !streamed[tr] {
				errs = append(errs, trace.WriteTraceJSONL(r.traces, tr))
			}
		}
		errs = append(errs, r.traces.Close())
		r.traces = nil
	}
	if r.ticks != nil {
		errs = append(errs, r.ticks.Close())
		r.ticks = nil
	}
	errs = append(errs, r.ticksErr)
	r.mu.Unlock()
	return errors.Join(errs...)
}
