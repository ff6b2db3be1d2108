// Command gplusanalyze runs the full study over a saved dataset and
// prints every table and figure of the paper.
//
// Usage:
//
//	gplusanalyze -data ./data                  # all experiments
//	gplusanalyze -data ./data -only table4,fig5
//	gplusanalyze -data ./data -only motifs     # exact triangle + triad census
//	gplusanalyze -data ./data -baselines       # include Table 4 baselines
//
// Three subcommands read the run directory gpluscrawl/gplusd write
// under -obs-dir (series.jsonl, traces.jsonl, exemplars.jsonl,
// profiles/); each also accepts the individual files, e.g. dumps saved
// from /debug/traces?format=jsonl or /debug/timeseries?format=jsonl.
//
// traces merges client- and server-side spans sharing a trace id and
// prints the critical-path breakdown of where request wall-clock went,
// the retry amplification per operation, and the slowest requests as
// span trees.
//
//	gplusanalyze traces [-top N] run-dir [server-run-dir | dump.jsonl ...]
//
// metrics replays the metric time series into a crawl health report:
// the throughput curve, the error-rate timeline with spike spans, stall
// detection, and the violation spans of the SLO objectives re-evaluated
// at every recorded tick.
//
//	gplusanalyze metrics [-width N] [-slo spec] run-dir [shard2-run-dir ...]
//
// profiles analyzes the continuous-profiling ring (or loose pprof .pb.gz
// files): top-N functions by flat or cumulative cost, aggregation by
// pprof label (phase, endpoint, chaos, ...), and A-vs-B diffs — e.g.
// steady-state interval captures against the anomaly captures an SLO
// page triggered.
//
//	gplusanalyze profiles [-kind cpu] [-top N] [-by flat|cum|label] run-dir
//	gplusanalyze profiles -by label -label phase run-dir
//	gplusanalyze profiles -trigger interval -diff run-dir -diff-trigger slo-page run-dir
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
	"gplus/internal/report"
	"gplus/internal/synth"
)

// readEach hands every source to read, opened. A source that is a
// directory is a run directory and stands for those of names that exist
// in it, of which there must be at least one. A source that ends in an
// unterminated record (a cut dump) is analyzed without it, with a warning.
func readEach(sources, names []string, read func(io.Reader) (torn int, err error)) error {
	for _, src := range sources {
		paths := []string{src}
		if isDir(src) {
			paths = nil
			for _, name := range names {
				path := filepath.Join(src, name)
				if _, err := os.Stat(path); err == nil {
					paths = append(paths, path)
				}
			}
			if paths == nil {
				return fmt.Errorf("%s holds none of %s", src, strings.Join(names, ", "))
			}
		}
		for _, path := range paths {
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
	}
	return nil
}

// sources parses a subcommand's arguments and returns the positional
// ones, of which there must be at least one.
func sources(fs *flag.FlagSet, usage string, args []string) []string {
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gplusanalyze %s %s\n", fs.Name(), usage)
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck — ExitOnError
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	return fs.Args()
}

// runTraces is the `gplusanalyze traces` subcommand: offline analysis of
// trace dumps.
func runTraces(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	top := fs.Int("top", 10, "slowest traces to print with full span trees")
	srcs := sources(fs, `[-top N] run-dir-or-dump.jsonl [more ...]
a run directory (-obs-dir) stands for its traces.jsonl and exemplars.jsonl; dumps also
come from /debug/traces?format=jsonl; client and server sides of one crawl merge by trace id`, args)
	var all []*trace.Trace
	err := readEach(srcs, []string{rundir.TracesFile, rundir.ExemplarsFile}, func(r io.Reader) (int, error) {
		trs, torn, err := trace.ReadTraces(r)
		all = append(all, trs...)
		return torn, err
	})
	if err != nil {
		return err
	}
	return trace.Analyze(all, *top).WriteText(w)
}

// runMetrics is the `gplusanalyze metrics` subcommand: replay a crawl's
// time-series dump into a crawl health report.
func runMetrics(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	width := fs.Int("width", 60, "sparkline width")
	sloSpec := fs.String("slo", "default", `SLO objectives to replay over the dump ("default" = the crawl defaults, "" skips SLO replay)`)
	stallAfter := fs.Int("stall-after", 3, "consecutive zero-throughput ticks (with work queued) that count as a stall")
	srcs := sources(fs, `[-width N] [-slo spec] run-dir-or-series.jsonl [more ...]
a run directory (-obs-dir) stands for its series.jsonl; dumps also come from
/debug/timeseries?format=jsonl; multiple dumps (crawl shards) merge into one report`, args)
	dump := series.NewDump()
	if err := readEach(srcs, []string{rundir.SeriesFile}, dump.ReadJSONL); err != nil {
		return err
	}
	// A nil objective set replays the crawl defaults, an empty one none.
	objs, err := series.ObjectivesFlag(*sloSpec, nil)
	if err != nil {
		return fmt.Errorf("parsing -slo: %w", err)
	}
	opts := series.ReportOptions{Width: *width, StallAfter: *stallAfter, Objectives: objs}
	series.BuildReport(dump, opts).WriteText(w, *width)
	return nil
}

// runProfiles is the `gplusanalyze profiles` subcommand: offline analysis
// of the continuous-profiling ring of a run directory, or of loose pprof
// .pb.gz files.
func runProfiles(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("profiles", flag.ExitOnError)
	kind := fs.String("kind", "cpu", "capture kind to load from rings: cpu, heap, goroutine, mutex, or block")
	trigger := fs.String("trigger", "", `only ring captures whose trigger starts with this prefix (e.g. "interval", "slo-page", "stall"); "" = all`)
	top := fs.Int("top", 20, "rows to print (0 = all)")
	by := fs.String("by", "flat", "ranking: flat (cost at the leaf), cum (cost anywhere on the stack), or label (aggregate by -label)")
	label := fs.String("label", "phase", `pprof label key for -by label and labelled diffs (e.g. "phase", "endpoint", "chaos", "worker")`)
	diffSrc := fs.String("diff", "", "diff mode: comma-separated B-side sources (run directories or .pb.gz files); the positional args are the A side")
	diffTrig := fs.String("diff-trigger", "", "trigger prefix filter for the -diff B side (default: same as -trigger, so the same ring can be split by trigger)")
	srcs := sources(fs, `[-kind K] [-trigger T] [-top N] [-by flat|cum|label] [-label key] [-diff sources [-diff-trigger T]] run-dir-or-file [more ...]
sources are run directories (-obs-dir; the ring under profiles/, filtered via its manifest), bare ring
directories, or single pprof .pb.gz files; e.g. diff steady state against the captures an SLO page triggered, by crawl phase:
  gplusanalyze profiles -by label -trigger interval -diff ./run -diff-trigger slo-page ./run`, args)
	a, aDesc, err := loadProfileSet(srcs, *kind, *trigger)
	if err != nil {
		return err
	}
	if *diffSrc != "" {
		bTrig := *diffTrig
		if bTrig == "" {
			bTrig = *trigger
		}
		b, bDesc, err := loadProfileSet(strings.Split(*diffSrc, ","), *kind, bTrig)
		if err != nil {
			return err
		}
		key, name := "", "function (flat)"
		if *by == "label" {
			key, name = *label, "label "+*label
		}
		fmt.Fprintf(w, "profile diff (%s): A = %s; B = %s\n", *kind, aDesc, bDesc)
		fmt.Fprint(w, prof.FormatDiff(prof.Diff(a, b, key, *top), name))
		return nil
	}
	unit := prof.SampleUnit(a)
	fmt.Fprintf(w, "profiles (%s): %s\n", *kind, aDesc)
	if *by == "label" {
		fmt.Fprint(w, prof.FormatByLabel(prof.ByLabel(a, *label), *label, unit))
		return nil
	}
	fmt.Fprint(w, prof.FormatTop(prof.TopFuncs(a, *by, *top), unit))
	return nil
}

// loadProfileSet decodes every source into profiles: a directory is a
// run directory (its profiles/ ring) or a bare ring, whose manifest is
// filtered by kind and trigger prefix; anything else is read as a single
// pprof .pb.gz file.
func loadProfileSet(sources []string, kind, trigger string) ([]*prof.Profile, string, error) {
	var ps []*prof.Profile
	for _, src := range sources {
		src = strings.TrimSpace(src)
		if src == "" {
			continue
		}
		st, err := os.Stat(src)
		if err != nil {
			return nil, "", err
		}
		if !st.IsDir() {
			p, err := prof.ReadFile(src)
			if err != nil {
				return nil, "", fmt.Errorf("decoding %s: %w", src, err)
			}
			ps = append(ps, p)
			continue
		}
		ring := src
		if sub := filepath.Join(src, rundir.ProfilesDir); isDir(sub) {
			ring = sub
		}
		entries, err := prof.ReadManifest(ring)
		if err != nil {
			return nil, "", fmt.Errorf("reading capture manifest in %s: %w", ring, err)
		}
		for _, e := range entries {
			if e.Kind != kind {
				continue
			}
			if trigger != "" && !strings.HasPrefix(e.Trigger, trigger) {
				continue
			}
			p, err := prof.ReadFile(e.Path(ring))
			if err != nil {
				return nil, "", fmt.Errorf("decoding %s: %w", e.Path(ring), err)
			}
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		filter := kind
		if trigger != "" {
			filter += ", trigger " + trigger + "*"
		}
		return nil, "", fmt.Errorf("profiles: no captures matched (%s) in %s", filter, strings.Join(sources, ", "))
	}
	desc := fmt.Sprintf("%d capture(s) from %s", len(ps), strings.Join(sources, ", "))
	if trigger != "" {
		desc += fmt.Sprintf(", trigger %s*", trigger)
	}
	return ps, desc, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		sub := map[string]func(io.Writer, []string) error{
			"traces": runTraces, "metrics": runMetrics, "profiles": runProfiles,
		}[os.Args[1]]
		if sub == nil {
			// A bare first word that is not a known verb used to fall
			// through to the study runner, which silently ignored it and
			// analyzed the default dataset — surface the typo instead.
			fmt.Fprintf(os.Stderr, "gplusanalyze: unknown subcommand %q (available: traces, metrics, profiles)\n", os.Args[1])
			os.Exit(2)
		}
		if err := sub(os.Stdout, os.Args[2:]); err != nil {
			log.Fatalf("%s: %v", os.Args[1], err)
		}
		return
	}
	var (
		dataDir   = flag.String("data", "data", "dataset directory (from gpluscrawl or gplusgen)")
		only      = flag.String("only", "", "comma-separated experiment ids (table1..table5, fig2..fig10, connectivity, motifs, lostedges); empty = all")
		baselines = flag.Bool("baselines", false, "regenerate Twitter/Facebook/Orkut-like baselines for Table 4")
		seed      = flag.Uint64("analysis-seed", 2012, "seed for sampled analyses")
		circleCap = flag.Int("cap", 10_000, "assumed circle cap for the lost-edge estimate")
		format    = flag.String("format", "text", "output format: text or md (full Markdown report with audit)")
		plotDir   = flag.String("plotdir", "", "also write gnuplot-ready figure data + plots.gp here")
		par       = flag.Int("parallelism", 0, "worker goroutines per graph analysis; results are identical for any value (0 = auto: GOMAXPROCS capped at 8)")
		mmapGraph = flag.Bool("mmap", false, "serve the graph from the memory-mapped v2 file instead of loading it into RAM; results are byte-identical (a legacy dataset holding only a v1 graph.bin loads in RAM instead)")
	)
	flag.Parse()

	ds, err := dataset.LoadWith(*dataDir, dataset.Options{Mapped: *mmapGraph})
	if err != nil {
		log.Fatalf("loading dataset: %v", err)
	}
	defer ds.Close()
	backend := "in-RAM"
	if ds.Graph == nil {
		backend = "mmap"
	} else if *mmapGraph {
		log.Printf("warning: -mmap requested but %s holds only a v1 graph.bin; loaded in RAM (re-save with dataset.SaveV2)", *dataDir)
	}
	log.Printf("dataset: %d users (%d crawled), %d edges (%s graph)",
		ds.NumUsers(), ds.NumCrawled(), ds.View().NumEdges(), backend)

	// The study wraps each analysis stage in an analyze.<stage> span; the
	// recorder collects them so the per-stage wall-clock breakdown can be
	// printed after the experiments run.
	rec := trace.NewRecorder(0, trace.Rules{})
	tracer := trace.New(trace.Config{Recorder: rec})
	study := core.New(ds, core.Options{Seed: *seed, Parallelism: *par, Tracer: tracer})
	ctx := context.Background()
	w := os.Stdout
	defer printStageBreakdown(os.Stderr, rec)

	// The structural analyses (figures 3-5, connectivity, motifs) share
	// one Structure pass — the plot data, the Markdown report and the text
	// experiments all read the same result — computed lazily so -only
	// table1 does not pay for it.
	var structRes *core.StructureResult
	structure := func() *core.StructureResult {
		if structRes == nil {
			var err error
			if structRes, err = study.Structure(ctx); err != nil {
				log.Fatalf("structural analyses: %v", err)
			}
		}
		return structRes
	}

	if *plotDir != "" {
		if err := report.WritePlotData(*plotDir, study, structure()); err != nil {
			log.Fatalf("plot data: %v", err)
		}
		log.Printf("wrote figure data + plots.gp -> %s", *plotDir)
	}

	if *format == "md" {
		report.Markdown(ctx, w, study, structure())
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	run := func(id string, fn func()) {
		if len(want) > 0 && !want[id] {
			return
		}
		fn()
		fmt.Fprintln(w)
	}

	run("table1", func() { report.Table1(w, study.TopUsers(20)) })
	run("table2", func() { report.Table2(w, study.AttributeTable()) })
	run("table3", func() { report.Table3(w, study.TelUsers()) })
	run("table4", func() {
		rows := []core.TopologyRow{study.Topology(ctx)}
		if *baselines {
			n := ds.NumUsers() / 3
			if n < 1000 {
				n = 1000
			}
			for _, kind := range []synth.Baseline{synth.TwitterLike, synth.FacebookLike, synth.OrkutLike} {
				g, err := synth.GenerateBaseline(kind, n, *seed)
				if err != nil {
					log.Fatalf("baseline %v: %v", kind, err)
				}
				rows = append(rows, study.BaselineTopology(ctx, kind.String(), g))
			}
		}
		report.Table4(w, rows)
	})
	run("table5", func() { report.Table5(w, study.TopOccupationsByCountry(10)) })

	run("fig2", func() { report.Fig2(w, study.FieldsShared()) })
	run("fig3", func() { report.Fig3(w, structure().Degrees) })
	run("fig4", func() {
		st := structure()
		report.Fig4(w, st.Reciprocity, st.Clustering, st.SCC)
	})
	run("fig5", func() { report.Fig5(w, structure().Paths) })
	run("fig6", func() { report.Fig6(w, study.TopCountries(11)) })
	run("fig7", func() { report.Fig7(w, study.Penetration()) })
	run("fig8", func() { report.Fig8(w, study.FieldsByCountry(nil)) })
	run("fig9", func() { report.Fig9(w, study.PathMiles(), study.AveragePathMiles()) })
	run("fig10", func() { report.Fig10(w, study.CountryLinks()) })
	run("connectivity", func() {
		st := structure()
		report.Connectivity(w, st.WCC, st.SCC)
	})
	run("motifs", func() { report.Motifs(w, structure().Motifs) })
	run("lostedges", func() { report.LostEdges(w, study.LostEdges(*circleCap)) })
}

// printStageBreakdown sums the analyze.<stage> spans the study recorded
// and prints where the analysis wall-clock went, slowest stage first.
func printStageBreakdown(w io.Writer, rec *trace.Recorder) {
	type stage struct {
		name  string
		dur   time.Duration
		spans int
	}
	byName := map[string]*stage{}
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			name, ok := strings.CutPrefix(sp.Name, "analyze.")
			if !ok || name == "structure" {
				continue // structure is the parent span; its children carry the detail
			}
			s := byName[name]
			if s == nil {
				s = &stage{name: name}
				byName[name] = s
			}
			s.dur += sp.Dur
			s.spans++
		}
	}
	if len(byName) == 0 {
		return
	}
	stages := make([]*stage, 0, len(byName))
	for _, s := range byName {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].dur != stages[j].dur {
			return stages[i].dur > stages[j].dur
		}
		return stages[i].name < stages[j].name
	})
	fmt.Fprintln(w, "analysis stage wall-clock:")
	for _, s := range stages {
		fmt.Fprintf(w, "  %-12s %12s", s.name, s.dur.Round(time.Microsecond))
		if s.spans > 1 {
			fmt.Fprintf(w, "  (%d runs)", s.spans)
		}
		fmt.Fprintln(w)
	}
}
