// Package rundir assembles the observability stack of one run — metrics
// registry, time-series collector, SLO engine, request tracer, profile
// ring — in one call, and spools what it gathered into one run
// directory:
//
//	<dir>/series.jsonl     every retained metric point, written at Close
//	<dir>/traces.jsonl     every retained trace, written at Close
//	<dir>/exemplars.jsonl  exemplar traces, appended as they trip, fsynced at Close
//	<dir>/profiles/        the continuous-profiling ring: <kind>-<seq>-<trigger>.pb.gz
//
// gpluscrawl, gplusd and the crawler's end-to-end tests all build their
// stack here, so the wiring that ships is the wiring that is tested.
// `gplusanalyze metrics|traces <dir>` read the directory back, and `go
// tool pprof` the captures under profiles/.
package rundir

import (
	"errors"
	"expvar"
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
	SeriesFile    = "series.jsonl"
	TracesFile    = "traces.jsonl"
	ExemplarsFile = "exemplars.jsonl"
	ProfilesDir   = "profiles"
)

// Config is the option structs of the signals side by side. Unlike in
// those structs, a zero interval or rate here switches the signal off
// rather than selecting its default; Start fills in the Metrics and
// (unless set) Recorder fields inside them, and under Dir takes over
// the Recorder's sink.
type Config struct {
	// Name is the expvar variable the registry is published under; like
	// expvar.Publish, at most one Start per name per process. Empty
	// publishes nothing.
	Name string
	// Dir is the run directory; empty keeps everything in memory (no
	// spool, no exemplar stream, no profile ring).
	Dir string

	// Series configures the collector; Interval 0 leaves it — and with
	// it the SLO engine and series.jsonl — off.
	Series series.Options
	// Objectives are evaluated on every collector tick; none, no engine.
	Objectives []series.Objective
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
// share, bound to c. -slo "default" keeps the Objectives the caller set
// beforehand. The mutex profiler rate is applied as it is parsed, which
// is before any goroutine of the run exists.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "obs-dir", "", "run directory: exemplar traces stream to <dir>/exemplars.jsonl and profiles to <dir>/profiles/ during the run, series.jsonl and traces.jsonl are written at exit (read it back with `gplusanalyze metrics|traces <dir>` and `go tool pprof <dir>/profiles/cpu-*.pb.gz`); the profile ring keeps the CPU profiler on for a third of the run at the default -profile-interval — pass -profile-interval 0 for series and traces only")
	fs.DurationVar(&c.Series.Interval, "sample-interval", time.Second, "metric time-series sampling cadence for /debug/timeseries, the SLO engine and series.jsonl (0 disables all three)")
	fs.Func("slo", `SLO objectives evaluated over the metric time series: "default" (the binary's availability + latency pair), "" for none, or a spec like "avail,error_ratio,bad=gplusd_chaos_faults_total,total=gplusd_requests_total,max=1%,window=1m"; report at /debug/slo`, func(v string) (err error) {
		c.Objectives, err = series.ObjectivesFlag(v, c.Objectives)
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
	Engine    *series.Engine
	Tracer    *trace.Tracer
	Profiler  *prof.Collector

	dir string

	mu        sync.Mutex   // the exemplar sink runs on whichever worker finished the trace
	exemplars *durable.Log // nil when not streaming, and after Close
}

// Start builds and starts the stack cfg describes; sampling and
// profiling begin before it returns.
func Start(cfg Config) (*Run, error) {
	r := &Run{Registry: obs.NewRegistry(), dir: cfg.Dir}
	if cfg.Name != "" {
		expvar.Publish(cfg.Name, expvar.Func(func() any { return r.Registry.Snapshot() }))
	}
	obs.RegisterRuntimeMetrics(r.Registry)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rundir: %w", err)
		}
	}

	if cfg.Series.Interval > 0 {
		r.Collector = series.NewCollector(r.Registry, cfg.Series)
		if len(cfg.Objectives) > 0 {
			r.Engine = series.NewEngine(r.Collector, cfg.Objectives, r.Registry)
			r.Collector.OnSample(r.Engine.Eval)
		}
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
			log, err := durable.OpenLog(filepath.Join(cfg.Dir, ExemplarsFile))
			if err != nil {
				return nil, fmt.Errorf("rundir: exemplar stream: %w", err)
			}
			r.exemplars = log
			cfg.Trace.Recorder.SetSink(r.streamExemplar)
		}
		cfg.Trace.Metrics = r.Registry
		r.Tracer = trace.New(cfg.Trace)
	}

	if cfg.Dir != "" && cfg.Prof.Interval > 0 {
		cfg.ProfStore.Metrics = r.Registry
		store, err := prof.OpenStore(filepath.Join(cfg.Dir, ProfilesDir), cfg.ProfStore)
		if err != nil {
			if r.exemplars != nil {
				r.exemplars.Close() //nolint:errcheck — unwinding; nothing was written
			}
			return nil, fmt.Errorf("rundir: %w", err)
		}
		cfg.Prof.Metrics = r.Registry
		r.Profiler = prof.NewCollector(store, cfg.Prof)
		// A PAGE transition fires an immediate capture tagged with the
		// objective: a CPU burst and goroutine dump from inside the incident.
		r.Engine.OnTransition(func(tr series.Transition) {
			if tr.To == series.StatePage {
				r.Profiler.Trigger("slo-page:" + tr.Name)
			}
		})
	}

	r.Collector.Start()
	r.Profiler.Start()
	return r, nil
}

// streamExemplar appends one exemplar trace to exemplars.jsonl and hands
// it to the kernel, so it outlives a SIGKILL — exemplars exist to explain
// the run that was killed. No fsync: this runs on the crawl worker that
// finished the trace, and in a brownout every failed request is one.
// Best effort — a failed diagnostics write must not fail that request.
func (r *Run) streamExemplar(tr *trace.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.exemplars == nil {
		return
	}
	if trace.WriteTraceJSONL(r.exemplars, tr) == nil {
		r.exemplars.Flush() //nolint:errcheck — best effort, see above
	}
}

// Mux returns the operational endpoints of the run: /metrics,
// /debug/vars (expvar), the net/http/pprof suite under /debug/pprof/,
// the flight recorder at /debug/traces, and — with a collector —
// /debug/timeseries and /debug/slo.
func (r *Run) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Registry)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", r.Tracer.Recorder())
	if r.Collector != nil {
		mux.Handle("/debug/timeseries", series.Handler{C: r.Collector})
	}
	if r.Engine != nil {
		mux.Handle("/debug/slo", r.Engine)
	}
	return mux
}

// Close stops the stack and completes the run directory: the profile
// ring takes its final captures and the collector a last sample, the
// exemplar stream is closed, and traces.jsonl and series.jsonl are
// written atomically. The Run's fields stay readable afterwards.
func (r *Run) Close() error {
	r.Profiler.Stop()
	r.Collector.Stop()

	r.mu.Lock()
	var errs []error
	if r.exemplars != nil {
		errs = append(errs, r.exemplars.Close())
		r.exemplars = nil
	}
	r.mu.Unlock()
	if r.dir == "" {
		return nil
	}
	if rec := r.Tracer.Recorder(); rec != nil {
		errs = append(errs, durable.WriteFile(filepath.Join(r.dir, TracesFile), func(f *os.File) error { return rec.WriteJSONL(f) }))
	}
	if r.Collector != nil {
		errs = append(errs, durable.WriteFile(filepath.Join(r.dir, SeriesFile), func(f *os.File) error { return r.Collector.WriteJSONL(f) }))
	}
	return errors.Join(errs...)
}
