package report

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/durable"
	"gplus/internal/graph"
	"gplus/internal/obs/trace"
	"gplus/internal/paper"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

var (
	repOnce  sync.Once
	repStudy *core.Study
)

func study(t *testing.T) *core.Study {
	t.Helper()
	repOnce.Do(func() {
		u, err := synth.Generate(synth.DefaultConfig(8_000))
		if err != nil {
			panic(err)
		}
		repStudy = core.New(dataset.FromUniverse(u), core.Options{
			Seed: 3, PathSources: 32, PairSample: 4_000,
		})
	})
	return repStudy
}

func render(t *testing.T, fn func(*strings.Builder)) string {
	t.Helper()
	var sb strings.Builder
	fn(&sb)
	out := sb.String()
	if out == "" {
		t.Fatal("renderer produced no output")
	}
	return out
}

func TestTableRenderers(t *testing.T) {
	s := study(t)
	out := render(t, func(sb *strings.Builder) { Table1(sb, s.TopUsers(20)) })
	if !strings.Contains(out, "Table 1") || strings.Count(out, "\n") < 21 {
		t.Errorf("Table 1 output malformed:\n%s", out)
	}

	out = render(t, func(sb *strings.Builder) { Table2(sb, s.AttributeTable()) })
	if !strings.Contains(out, "Gender") || !strings.Contains(out, "Places lived") {
		t.Errorf("Table 2 missing attributes:\n%s", out)
	}

	out = render(t, func(sb *strings.Builder) { Table3(sb, s.TelUsers()) })
	for _, want := range []string{"Single", "United States", "India", "Tel-users"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}

	ctx := context.Background()
	rows := []core.TopologyRow{s.Topology(ctx)}
	out = render(t, func(sb *strings.Builder) { Table4(sb, rows) })
	if !strings.Contains(out, "Google+") {
		t.Errorf("Table 4 missing network row:\n%s", out)
	}

	out = render(t, func(sb *strings.Builder) { Table5(sb, s.TopOccupationsByCountry(10)) })
	if !strings.Contains(out, "Jaccard") || !strings.Contains(out, "Brazil") {
		t.Errorf("Table 5 malformed:\n%s", out)
	}
}

func TestFigureRenderers(t *testing.T) {
	s := study(t)
	ctx := context.Background()

	render(t, func(sb *strings.Builder) { Fig2(sb, s.FieldsShared()) })

	dd, err := s.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, func(sb *strings.Builder) { Fig3(sb, dd) })
	if !strings.Contains(out, "alpha=") {
		t.Errorf("Fig3 missing fit:\n%s", out)
	}

	render(t, func(sb *strings.Builder) { Fig4(sb, s.Reciprocity(), s.Clustering(), s.SCC()) })
	render(t, func(sb *strings.Builder) { Fig5(sb, s.PathLengths(ctx)) })

	motifs, err := s.Motifs()
	if err != nil {
		t.Fatal(err)
	}
	out = render(t, func(sb *strings.Builder) { Motifs(sb, motifs) })
	for _, want := range []string{"triangles", "030T", "300", "transitivity"} {
		if !strings.Contains(out, want) {
			t.Errorf("Motifs output missing %q:\n%s", want, out)
		}
	}

	out = render(t, func(sb *strings.Builder) { Fig6(sb, s.TopCountries(10)) })
	if !strings.Contains(out, "United States") {
		t.Errorf("Fig6 missing US:\n%s", out)
	}

	render(t, func(sb *strings.Builder) { Fig7(sb, s.Penetration()) })
	render(t, func(sb *strings.Builder) { Fig8(sb, s.FieldsByCountry(nil)) })
	render(t, func(sb *strings.Builder) { Fig9(sb, s.PathMiles(), s.AveragePathMiles()) })

	out = render(t, func(sb *strings.Builder) { Fig10(sb, s.CountryLinks()) })
	if strings.Count(out, "\n") < 11 {
		t.Errorf("Fig10 matrix truncated:\n%s", out)
	}

	render(t, func(sb *strings.Builder) { LostEdges(sb, s.LostEdges(10_000)) })

	out = render(t, func(sb *strings.Builder) { Connectivity(sb, s.WCC(), s.SCC()) })
	if !strings.Contains(out, "WCC") || !strings.Contains(out, "SCC") {
		t.Errorf("connectivity line malformed: %q", out)
	}
}

// TestPathFiguresPrintTheirErrors: Table 4 prints each path length with
// its half-width, and Figure 5 each mode beside its share and the
// runner-up hop's — a near-tie reads as one — or its share alone when
// no other hop was reached; a cancelled paths stage prints as empty.
func TestPathFiguresPrintTheirErrors(t *testing.T) {
	out := render(t, func(sb *strings.Builder) {
		Table4(sb, []core.TopologyRow{{Network: "Google+", PathLength: 4.2249, PathHalfWidth: 0.0871, Diameter: 10}})
	})
	if !strings.Contains(out, "   4.22±0.09 ") {
		t.Errorf("Table 4 row lacks the path length's half-width:\n%s", out)
	}
	for _, tc := range []struct {
		counts []int64
		want   string
	}{
		{[]int64{100, 4260, 4390, 1250}, "mode=2 (0.439, 1 at 0.426)"},
		{[]int64{5, 20}, "mode=1 (0.800)"},
		{nil, "mode=0"},
	} {
		d := &graph.PathLengthDist{Counts: tc.counts}
		for _, c := range tc.counts {
			d.Reachable += c
		}
		if got := sampledMode(d); got != tc.want {
			t.Errorf("counts %v: %q, want %q", tc.counts, got, tc.want)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	u, err := synth.Generate(synth.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	out = render(t, func(sb *strings.Builder) {
		Fig5(sb, core.New(dataset.FromUniverse(u), core.Options{Seed: 3}).PathLengths(cancelled))
	})
	if want := "Figure 5: directed avg=0.00±0.00 (0 sources) mode=0 diameter>=0 | undirected avg=0.00±0.00 (0 sources) mode=0 diameter>=0\n"; out != want {
		t.Errorf("a cancelled paths stage renders as %q, want %q", out, want)
	}
}

// TestMarkdownReport: -format md is the text report, section by
// section: after the title and the dataset line, each experiment is a
// "## <id>" heading over a fenced block holding exactly the lines the
// text report prints for it — the audit table first, as Audit renders
// it. A failed check is the report's error, after every section.
func TestMarkdownReport(t *testing.T) {
	s, ctx := study(t), context.Background()
	results, err := paper.Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	var audit strings.Builder
	failed := Audit(&audit, paper.Evaluate(results))
	report := func(exps []Experiment, md bool) string {
		t.Helper()
		var sb strings.Builder
		err := Print(ctx, &sb, s, exps, md)
		if exps[0].ID == "audit" && failed > 0 {
			if want := (checksFailed{failed, len(paper.Checks())}); err != want {
				t.Fatalf("Print: %v, want %v", err, want)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ds := s.Dataset()
	header := fmt.Sprintf("# Google+ reproduction report\n\nDataset: %d users (%d crawled), %d edges.\n\n",
		ds.NumUsers(), ds.NumCrawled(), ds.View().NumEdges())

	exps := Experiments(true, 1, 150)
	if exps[0].ID != "audit" {
		t.Fatalf("the first experiment is %s, want audit", exps[0].ID)
	}
	var text, sections strings.Builder
	for _, e := range exps {
		one := report([]Experiment{e}, false)
		if !strings.HasSuffix(one, "\n\n") {
			t.Fatalf("%s: text does not end in a blank line: %q", e.ID, one)
		}
		text.WriteString(one)
		if e.ID != "audit" {
			sections.WriteString("## " + e.ID + "\n\n```\n" + strings.TrimSuffix(one, "\n") + "```\n\n")
		}
	}
	if got := report(exps, false); got != text.String() {
		t.Errorf("the text report is not its experiments one after another:\n%s", got)
	}
	if got, want := report(exps, true), header+"## audit\n\n```\n"+audit.String()+"```\n\n"+sections.String(); got != want {
		t.Errorf("md report:\n%s\nwant:\n%s", got, want)
	}
	if got, want := report(exps[4:5], true), header+"## table4\n\n```\n"+strings.TrimSuffix(report(exps[4:5], false), "\n")+"```\n\n"; got != want {
		t.Errorf("md report of table4 alone:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(audit.String(), "checks passed") || !strings.Contains(sections.String(), "Twitter-like") {
		t.Errorf("audit or baselines missing:\n%s%s", audit.String(), sections.String())
	}
}

func TestWritePlotData(t *testing.T) {
	dir := t.TempDir()
	if err := WritePlotData(dir, study(t)); err != nil {
		t.Fatalf("WritePlotData: %v", err)
	}
	for _, name := range []string{
		"fig2_all.dat", "fig2_tel.dat", "fig3_in.dat", "fig3_out.dat",
		"fig4a_rr.dat", "fig4b_cc.dat", "fig4c_scc.dat",
		"fig5_directed.dat", "fig5_undirected.dat", "fig6_countries.dat",
		"fig8_US.dat", "fig8_DE.dat",
		"fig9a_friends.dat", "fig9a_reciprocal.dat", "fig9a_random.dat",
		"fig10_matrix.dat", "fig4b_ck.dat", "motifs.dat", "plots.gp",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Errorf("%s has fewer than 2 lines", name)
		}
	}
}

// TestWritePlotDataReportsAFailedFile: a plot file whose write fails (a
// full disk, here a failed durability step) is WritePlotData's error,
// naming the file, and leaves neither that file nor its temp file
// behind.
func TestWritePlotDataReportsAFailedFile(t *testing.T) {
	dir := t.TempDir()
	failed := filepath.Join(dir, "fig5_directed.dat")
	boom := errors.New("no space left on device")
	durable.StepHook = func(path, step string) error {
		if path == failed && step == "written" {
			return boom
		}
		return nil
	}
	defer func() { durable.StepHook = nil }()
	err := WritePlotData(dir, study(t))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), failed) {
		t.Fatalf("WritePlotData = %v, want %v naming %s", err, boom, failed)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*fig5_directed.dat*"))
	if len(left) > 0 {
		t.Errorf("a failed write left %v behind", left)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2_all.dat")); err != nil {
		t.Errorf("the files before the failed one are missing: %v", err)
	}
}

// TestPlotDataAndMarkdownShareOneStructure pins the -plotdir fix: plot
// data, the audit's Collect and the Markdown report (audit included) of
// one study, in any order and beside the per-figure calls of the text
// experiments, compute each structural stage once — one analyze.<stage>
// span each — because the Study remembers it, not because a caller
// threads a result through.
func TestPlotDataAndMarkdownShareOneStructure(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0, trace.Rules{})
	s := core.New(dataset.FromUniverse(u), core.Options{
		Seed: 3, PathSources: 16, PairSample: 1_000, Tracer: trace.New(trace.Config{Recorder: rec}),
	})
	ctx := context.Background()
	row := s.Topology(ctx)
	if err := WritePlotData(t.TempDir(), s); err != nil {
		t.Fatal(err)
	}
	results, err := paper.Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := Print(ctx, io.Discard, s, Experiments(false, 3, 10_000), true); err != nil && !errors.As(err, new(checksFailed)) {
		t.Fatal(err)
	}
	if results.Topology != row || row.PathLength != results.Paths.Directed.Mean() || row.Reciprocity != results.Reciprocity.Global {
		t.Errorf("Table 4 row %+v is not the audit's %+v read off Figures 4(a) and 5", row, results.Topology)
	}
	spans := map[string]int{}
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			spans[sp.Name]++
		}
	}
	delete(spans, "analyze.structure") // the fan-out wrapper, once per caller
	want := map[string]int{}
	for _, stage := range []string{"degrees", "reciprocity", "scc", "wcc", "paths", "triads", "fig9"} {
		want["analyze."+stage] = 1
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("plot data + audit + Markdown report recorded spans %v, want one per stage", spans)
	}
}

// TestMotifsDatSkipsOverflow: a census whose 003 count overflowed must
// not hand gnuplot a -1 to draw.
func TestMotifsDatSkipsOverflow(t *testing.T) {
	census := &graph.MotifCensus{}
	census.Counts[graph.Triad003] = -1
	census.Counts[graph.Triad012] = 7
	dir := t.TempDir()
	if err := (plotFile{"motifs.dat", motifs(core.MotifResult{Census: census})}).write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "motifs.dat"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		rows++
		if strings.Contains(line, "-1") || strings.Contains(line, "003") {
			t.Errorf("overflowed class plotted: %q", line)
		}
	}
	if rows != graph.NumTriadClasses-1 || !strings.Contains(string(data), "# 0 003 overflow\n") || !strings.Contains(string(data), "1 012 7\n") {
		t.Errorf("motifs.dat has %d data rows:\n%s", rows, data)
	}
}

func TestSeriesEmptyAndSampling(t *testing.T) {
	var sb strings.Builder
	Series(&sb, "empty", nil, 5)
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty series: %q", sb.String())
	}
	pts := make([]stats.Point, 100)
	for i := range pts {
		pts[i] = stats.Point{X: float64(i), Y: 1 - float64(i)/100}
	}
	sb.Reset()
	Series(&sb, "big", pts, 10)
	lines := strings.Count(sb.String(), "\n")
	if lines > 14 {
		t.Errorf("series not downsampled: %d lines", lines)
	}
}
