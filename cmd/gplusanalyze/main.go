// Command gplusanalyze runs the full study over a saved dataset and
// prints every table and figure of the paper, after the audit of the
// paper's published claims.
//
// Usage:
//
//	gplusanalyze -data ./data                  # the audit, then all experiments
//	gplusanalyze -data ./data -only audit      # the paper-claim audit alone
//	gplusanalyze -data ./data -only table4,fig5
//	gplusanalyze -data ./data -only motifs     # exact triangle + triad census
//	gplusanalyze -data ./data -baselines       # include Table 4 baselines
//	gplusanalyze -data ./data -format md       # each experiment as a Markdown section
//
// The audit experiment prints one PASS/FAIL row per published claim;
// when a row says FAIL the whole report is still printed, and then the
// exit status is 1. -format md prints what text prints, one "## <id>"
// section and fenced block per experiment, under a title and the dataset
// line; `make experiments` writes its output into EXPERIMENTS.md.
//
// Two subcommands read the run directory gpluscrawl/gplusd write under
// -obs-dir (series.jsonl, traces.jsonl) — during the run too, since both
// files are appended as the run goes; each also accepts the individual
// files, e.g. dumps saved from /debug/traces?format=jsonl or
// /debug/timeseries. The directory's profiles/ ring is
// plain pprof files, read with `go tool pprof` (README "Continuous
// profiling").
//
// traces merges client- and server-side spans sharing a trace id and
// prints the critical-path breakdown of where request wall-clock went,
// the retry amplification per operation, and the slowest requests as
// span trees.
//
//	gplusanalyze traces [-top N] run-dir [server-run-dir | dump.jsonl ...]
//
// metrics replays the metric time series of a gpluscrawl or gplusd run
// into the health report its live surfaces (gpluscrawl's progress line
// and -dash, /debug/slo) rendered: throughput curve, error-rate timeline
// with spike spans, stalls, and the SLO objectives' violation spans
// evaluated at every tick. It reads one run: the same counters of two
// processes would interleave in time, and every drop between them would
// read as a restart.
//
//	gplusanalyze metrics [-width N] [-slo spec] run-dir
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
	"gplus/internal/report"
)

// readEach hands every source to read, opened. A source that is a
// directory is a run directory and stands for its file name. A source
// that ends in an unterminated record (a cut dump) is analyzed without
// it, with a warning.
func readEach(sources []string, name string, read func(io.Reader) (torn int, err error)) error {
	for _, path := range sources {
		if isDir(path) {
			path = filepath.Join(path, name)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		torn, err := read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		if torn > 0 {
			log.Printf("warning: dropped %d unterminated trailing record from %s (cut mid-write, or saved without a final newline)", torn, path)
		}
	}
	return nil
}

// sources parses a subcommand's arguments and returns the positional
// ones, of which there must be at least one — exactly one when one is
// set. A rejected command line is a usageError carrying what flag would
// have printed: the complaint, then the usage.
func sources(fs *flag.FlagSet, usage string, args []string, one bool) ([]string, error) {
	var msg strings.Builder
	fs.SetOutput(&msg)
	fs.Usage = func() {
		fmt.Fprintf(&msg, "usage: gplusanalyze %s %s\n", fs.Name(), usage)
		fs.PrintDefaults()
	}
	err := fs.Parse(args)
	switch {
	case err != nil: // flag has written the complaint and the usage
	case fs.NArg() == 0:
		fmt.Fprintln(&msg, "no source given")
		fs.Usage()
	case one && fs.NArg() > 1:
		fmt.Fprintf(&msg, "%d sources given; %s reads one run\n", fs.NArg(), fs.Name())
		fs.Usage()
	}
	if msg.Len() > 0 {
		return nil, usageError{errors.New(strings.TrimSpace(msg.String()))}
	}
	return fs.Args(), nil
}

// runTraces is the `gplusanalyze traces` subcommand: offline analysis of
// trace dumps.
func runTraces(w io.Writer, args []string) error {
	sub := flag.NewFlagSet("traces", flag.ContinueOnError)
	top := sub.Int("top", 10, "slowest traces to print with full span trees")
	srcs, err := sources(sub, `[-top N] run-dir-or-dump.jsonl [more ...]
a run directory (-obs-dir) stands for its traces.jsonl; dumps also
come from /debug/traces?format=jsonl; client and server sides of one crawl merge by trace id`, args, false)
	if err != nil {
		return err
	}
	var all []*trace.Trace
	err = readEach(srcs, rundir.TracesFile, func(r io.Reader) (int, error) {
		trs, torn, err := trace.ReadTraces(r)
		all = append(all, trs...)
		return torn, err
	})
	if err != nil {
		return err
	}
	return trace.Analyze(all, *top).WriteText(w)
}

// runMetrics is the `gplusanalyze metrics` subcommand: replay a run's
// time-series dump into its health report.
func runMetrics(w io.Writer, args []string) error {
	sub := flag.NewFlagSet("metrics", flag.ContinueOnError)
	width := sub.Int("width", 60, "sparkline width")
	sloSpec := sub.String("slo", "default", `SLO objectives to replay over the dump ("default" = those of the binary that wrote it, "" skips SLO replay)`)
	stallAfter := sub.Int("stall-after", 3, "consecutive ticks without a page fetched (with work queued) that count as a stall")
	srcs, err := sources(sub, `[-width N] [-slo spec] run-dir-or-series.jsonl
a run directory (-obs-dir) stands for its series.jsonl; a dump also comes from
/debug/timeseries; one run only: the same series of two processes
(crawl shards, a crawler and its gplusd) would interleave in time`, args, true)
	if err != nil {
		return err
	}
	var dump *series.Store
	err = readEach(srcs, rundir.SeriesFile, func(r io.Reader) (torn int, err error) {
		dump, torn, err = series.ReadTicks(r)
		return torn, err
	})
	if err != nil {
		return err
	}
	sig := series.SignalsFor(dump) // a crawl's or a gplusd's, by the families in the dump: rows and default objectives follow
	sig.StallAfter = *stallAfter
	if sig.Objectives, err = series.ObjectivesFlag(*sloSpec, sig.Objectives); err != nil {
		return fmt.Errorf("parsing -slo: %w", err)
	}
	series.BuildReport(dump, sig).WriteText(w, *width)
	return nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:]); errors.As(err, new(usageError)) {
		fmt.Fprintf(os.Stderr, "gplusanalyze: %v\n", err)
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

// usageError is a rejected command line: main exits 2 on it, as flag does.
type usageError struct{ error }

// run is everything main does but exit: a subcommand when the first
// argument names one, the study otherwise.
func run(stdout, stderr io.Writer, args []string) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub := map[string]func(io.Writer, []string) error{
			"traces": runTraces, "metrics": runMetrics,
		}[args[0]]
		if sub == nil {
			// A mistyped verb is not a request to analyze the default dataset.
			return usageError{fmt.Errorf("unknown subcommand %q (available: traces, metrics)", args[0])}
		}
		if err := sub(stdout, args[1:]); err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
		return nil
	}
	fs := flag.NewFlagSet("gplusanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataDir   = fs.String("data", "data", "dataset directory (from gpluscrawl or gplusgen)")
		baselines = fs.Bool("baselines", false, "regenerate Twitter/Facebook/Orkut-like baselines for Table 4")
		seed      = fs.Uint64("analysis-seed", 2012, "seed for sampled analyses")
		circleCap = fs.Int("cap", 10_000, "assumed circle cap for the lost-edge estimate")
		format    = fs.String("format", "text", "output format: text, or md (the text report as Markdown sections)")
		plotDir   = fs.String("plotdir", "", "also write gnuplot-ready figure data + plots.gp here")
		par       = fs.Int("parallelism", 0, "worker goroutines per graph analysis; results are identical for any value (0 = auto: GOMAXPROCS capped at 8)")
		mmapGraph = fs.Bool("mmap", false, "serve the graph from the memory-mapped v2 file instead of loading it into RAM; results are byte-identical")
	)
	ids := report.ExperimentIDs()
	only := fs.String("only", "", "comma-separated experiment ids ("+strings.Join(ids, ", ")+"); empty = all")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h: flag has printed the usage
	} else if err != nil {
		return usageError{err} // flag has printed the complaint and the usage
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !slices.Contains(ids, id) {
				return usageError{fmt.Errorf("unknown experiment id %q in -only (available: %s)", id, strings.Join(ids, ", "))}
			}
			want[id] = true
		}
	}
	if *format != "text" && *format != "md" {
		return usageError{fmt.Errorf("unknown -format %q (available: text, md)", *format)}
	}
	var experiments []report.Experiment
	for _, e := range report.Experiments(*baselines, *seed, *circleCap) {
		if len(want) == 0 || want[e.ID] {
			experiments = append(experiments, e)
		}
	}

	logger := log.New(stderr, "", log.LstdFlags)
	ds, err := dataset.LoadWith(*dataDir, dataset.Options{Mapped: *mmapGraph})
	if err != nil {
		return fmt.Errorf("loading dataset: %w", err)
	}
	defer ds.Close()
	backend := "in-RAM"
	if *mmapGraph {
		backend = "mmap"
	}
	logger.Printf("dataset: %d users (%d crawled), %d edges (%s graph)",
		ds.NumUsers(), ds.NumCrawled(), ds.View().NumEdges(), backend)

	// The study wraps each stage computation in an analyze.<stage> span;
	// the recorder collects them so the per-stage wall-clock breakdown can
	// be printed after the experiments run.
	rec := trace.NewRecorder(0, trace.Rules{})
	study := core.New(ds, core.Options{Seed: *seed, Parallelism: *par, Tracer: trace.New(trace.Config{Recorder: rec})})
	defer printStageBreakdown(stderr, rec)

	ctx := context.Background()
	if *plotDir != "" {
		if err := report.WritePlotData(*plotDir, study); err != nil {
			return fmt.Errorf("plot data: %w", err)
		}
		logger.Printf("wrote figure data + plots.gp -> %s", *plotDir)
	}
	if len(want) == 0 {
		// Every stage is wanted, and Structure is what overlaps them.
		if _, err := study.Structure(ctx); err != nil {
			return fmt.Errorf("structural analyses: %w", err)
		}
	}
	return report.Print(ctx, stdout, study, experiments, *format == "md")
}

// printStageBreakdown prints where the analysis wall-clock went, slowest
// stage first: the analyze.<stage> spans the study recorded, of which a
// Study leaves at most one per stage.
func printStageBreakdown(w io.Writer, rec *trace.Recorder) {
	var stages []*trace.Span
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			// structure is the parent span; its children carry the detail.
			if strings.HasPrefix(sp.Name, "analyze.") && sp.Name != "analyze.structure" {
				stages = append(stages, sp)
			}
		}
	}
	if len(stages) == 0 {
		return
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].Dur != stages[j].Dur {
			return stages[i].Dur > stages[j].Dur
		}
		return stages[i].Name < stages[j].Name
	})
	fmt.Fprintln(w, "analysis stage wall-clock:")
	for _, sp := range stages {
		fmt.Fprintf(w, "  %-12s %12s\n", strings.TrimPrefix(sp.Name, "analyze."), sp.Dur.Round(time.Microsecond))
	}
}
