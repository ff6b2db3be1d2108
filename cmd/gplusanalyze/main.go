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
// The traces subcommand analyzes request-trace dumps instead (JSONL from
// gpluscrawl -trace-dir or /debug/traces?format=jsonl on either binary):
// it merges client- and server-side spans sharing a trace id, prints the
// critical-path breakdown of where request wall-clock went, the retry
// amplification per operation, and the slowest requests as span trees.
//
//	gplusanalyze traces [-top N] traces.jsonl [server.jsonl ...]
//
// The metrics subcommand replays a crawl's metric time-series dump
// (JSONL from gpluscrawl -series-dir or /debug/timeseries?format=jsonl)
// into a crawl health report: the throughput curve, the error-rate
// timeline with spike spans, stall detection, and the violation spans of
// the SLO objectives re-evaluated at every recorded tick.
//
//	gplusanalyze metrics [-width N] [-slo spec] series.jsonl [shard2.jsonl ...]
//
// The profiles subcommand analyzes continuous-profiling rings written by
// gpluscrawl/gplusd -profile-dir (or loose pprof .pb.gz files): top-N
// functions by flat or cumulative cost, aggregation by pprof label
// (phase, endpoint, chaos, ...), and A-vs-B diffs — e.g. steady-state
// interval captures against the anomaly captures an SLO page triggered.
//
//	gplusanalyze profiles [-kind cpu] [-top N] [-by flat|cum|label] profdir
//	gplusanalyze profiles -by label -label phase profdir
//	gplusanalyze profiles -trigger interval -diff profdir -diff-trigger slo-page profdir
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
	"gplus/internal/report"
	"gplus/internal/synth"
)

// runTraces is the `gplusanalyze traces` subcommand: offline analysis of
// trace dumps.
func runTraces(args []string) {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	top := fs.Int("top", 10, "slowest traces to print with full span trees")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gplusanalyze traces [-top N] dump.jsonl [more.jsonl ...]")
		fmt.Fprintln(os.Stderr, "dumps come from gpluscrawl -trace-dir or /debug/traces?format=jsonl;")
		fmt.Fprintln(os.Stderr, "client and server dumps of one crawl merge by trace id")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck — ExitOnError
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	var all []*trace.Trace
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("opening trace dump: %v", err)
		}
		trs, err := trace.ReadTraces(f)
		f.Close()
		if err != nil {
			log.Fatalf("reading %s: %v", path, err)
		}
		all = append(all, trs...)
	}
	a := trace.Analyze(all, *top)
	if err := a.WriteText(os.Stdout); err != nil {
		log.Fatalf("writing analysis: %v", err)
	}
}

// runMetrics is the `gplusanalyze metrics` subcommand: replay a crawl's
// time-series dump into a crawl health report.
func runMetrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	width := fs.Int("width", 60, "sparkline width")
	sloSpec := fs.String("slo", "default", `SLO objectives to replay over the dump ("default" = the crawl defaults, "" skips SLO replay)`)
	stallAfter := fs.Int("stall-after", 3, "consecutive zero-throughput ticks (with work queued) that count as a stall")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gplusanalyze metrics [-width N] [-slo spec] series.jsonl [more.jsonl ...]")
		fmt.Fprintln(os.Stderr, "dumps come from gpluscrawl -series-dir or /debug/timeseries?format=jsonl;")
		fmt.Fprintln(os.Stderr, "multiple dumps (crawl shards) merge into one report")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck — ExitOnError
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	dump := series.NewDump()
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("opening series dump: %v", err)
		}
		err = dump.ReadJSONL(f)
		f.Close()
		if err != nil {
			log.Fatalf("reading %s: %v", path, err)
		}
	}
	opts := series.ReportOptions{Width: *width, StallAfter: *stallAfter}
	switch *sloSpec {
	case "default":
	case "":
		opts.Objectives = []series.Objective{}
	default:
		objs, err := series.ParseObjectives(*sloSpec)
		if err != nil {
			log.Fatalf("parsing -slo: %v", err)
		}
		opts.Objectives = objs
	}
	series.BuildReport(dump, opts).WriteText(os.Stdout, *width)
}

// runProfiles is the `gplusanalyze profiles` subcommand: offline analysis
// of the continuous-profiling rings gpluscrawl/gplusd write under
// -profile-dir, or of loose pprof .pb.gz files.
func runProfiles(args []string) {
	fs := flag.NewFlagSet("profiles", flag.ExitOnError)
	kind := fs.String("kind", "cpu", "capture kind to load from ring dirs: cpu, heap, goroutine, mutex, or block")
	trigger := fs.String("trigger", "", `only ring captures whose trigger starts with this prefix (e.g. "interval", "slo-page", "stall"); "" = all`)
	top := fs.Int("top", 20, "rows to print (0 = all)")
	by := fs.String("by", "flat", "ranking: flat (cost at the leaf), cum (cost anywhere on the stack), or label (aggregate by -label)")
	label := fs.String("label", "phase", `pprof label key for -by label and labelled diffs (e.g. "phase", "endpoint", "chaos", "worker")`)
	diffSrc := fs.String("diff", "", "diff mode: comma-separated B-side sources (ring dirs or .pb.gz files); the positional args are the A side")
	diffTrig := fs.String("diff-trigger", "", "trigger prefix filter for the -diff B side (default: same as -trigger, so the same ring can be split by trigger)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gplusanalyze profiles [-kind K] [-trigger T] [-top N] [-by flat|cum|label] [-label key] [-diff sources [-diff-trigger T]] dir-or-file [more ...]")
		fmt.Fprintln(os.Stderr, "sources are -profile-dir rings (filtered via their manifest) or single pprof .pb.gz files;")
		fmt.Fprintln(os.Stderr, "e.g. diff steady state against the captures an SLO page triggered, by crawl phase:")
		fmt.Fprintln(os.Stderr, "  gplusanalyze profiles -by label -trigger interval -diff ./profs -diff-trigger slo-page ./profs")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck — ExitOnError
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	a, aDesc := loadProfileSet(fs.Args(), *kind, *trigger)
	if *diffSrc != "" {
		bTrig := *diffTrig
		if bTrig == "" {
			bTrig = *trigger
		}
		b, bDesc := loadProfileSet(strings.Split(*diffSrc, ","), *kind, bTrig)
		key, name := "", "function (flat)"
		if *by == "label" {
			key, name = *label, "label "+*label
		}
		fmt.Printf("profile diff (%s): A = %s; B = %s\n", *kind, aDesc, bDesc)
		fmt.Print(prof.FormatDiff(prof.Diff(a, b, key, *top), name))
		return
	}
	unit := prof.SampleUnit(a)
	fmt.Printf("profiles (%s): %s\n", *kind, aDesc)
	if *by == "label" {
		fmt.Print(prof.FormatByLabel(prof.ByLabel(a, *label), *label, unit))
		return
	}
	fmt.Print(prof.FormatTop(prof.TopFuncs(a, *by, *top), unit))
}

// loadProfileSet decodes every source into profiles: a directory is a
// -profile-dir ring whose manifest is filtered by kind and trigger
// prefix; anything else is read as a single pprof .pb.gz file.
func loadProfileSet(sources []string, kind, trigger string) ([]*prof.Profile, string) {
	var ps []*prof.Profile
	for _, src := range sources {
		src = strings.TrimSpace(src)
		if src == "" {
			continue
		}
		st, err := os.Stat(src)
		if err != nil {
			log.Fatalf("profiles: %v", err)
		}
		if !st.IsDir() {
			p, err := prof.ReadFile(src)
			if err != nil {
				log.Fatalf("decoding %s: %v", src, err)
			}
			ps = append(ps, p)
			continue
		}
		entries, err := prof.ReadManifest(src)
		if err != nil {
			log.Fatalf("reading capture manifest in %s: %v", src, err)
		}
		for _, e := range entries {
			if e.Kind != kind {
				continue
			}
			if trigger != "" && !strings.HasPrefix(e.Trigger, trigger) {
				continue
			}
			p, err := prof.ReadFile(e.Path(src))
			if err != nil {
				log.Fatalf("decoding %s: %v", e.Path(src), err)
			}
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		filter := kind
		if trigger != "" {
			filter += ", trigger " + trigger + "*"
		}
		log.Fatalf("profiles: no captures matched (%s) in %s", filter, strings.Join(sources, ", "))
	}
	desc := fmt.Sprintf("%d capture(s) from %s", len(ps), strings.Join(sources, ", "))
	if trigger != "" {
		desc += fmt.Sprintf(", trigger %s*", trigger)
	}
	return ps, desc
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "traces":
			runTraces(os.Args[2:])
		case "metrics":
			runMetrics(os.Args[2:])
		case "profiles":
			runProfiles(os.Args[2:])
		default:
			// A bare first word that is not a known verb used to fall
			// through to the study runner, which silently ignored it and
			// analyzed the default dataset — surface the typo instead.
			fmt.Fprintf(os.Stderr, "gplusanalyze: unknown subcommand %q (available: traces, metrics, profiles)\n", os.Args[1])
			os.Exit(2)
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

	if *plotDir != "" {
		if err := report.WritePlotData(ctx, *plotDir, study); err != nil {
			log.Fatalf("plot data: %v", err)
		}
		log.Printf("wrote figure data + plots.gp -> %s", *plotDir)
	}

	if *format == "md" {
		if err := report.Markdown(ctx, w, study); err != nil {
			log.Fatalf("markdown report: %v", err)
		}
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

	// The structural analyses (figures 3-5 and connectivity) share one
	// Structure pass, computed lazily so -only table1 does not pay for it.
	var (
		structOnce sync.Once
		structRes  *core.StructureResult
	)
	structure := func() *core.StructureResult {
		structOnce.Do(func() {
			var err error
			if structRes, err = study.Structure(ctx); err != nil {
				log.Fatalf("structural analyses: %v", err)
			}
		})
		return structRes
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
