package report

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gplus/internal/core"
	"gplus/internal/durable"
	"gplus/internal/graph"
	"gplus/internal/stats"
)

// WritePlotData materializes every figure's data series as
// gnuplot-compatible .dat files under dir, plus a plots.gp script that
// renders them into PNGs — the raw material for regenerating the paper's
// figures graphically.
//
// Files written:
//
//	fig2_all.dat fig2_tel.dat            CCDF of fields shared
//	fig3_in.dat fig3_out.dat             degree CCDFs (log-log)
//	fig4a_rr.dat                         reciprocity CDF
//	fig4b_cc.dat                         clustering CDF
//	fig4c_scc.dat                        SCC size CCDF (log-log)
//	fig5_directed.dat fig5_undirected.dat hop-count distributions
//	fig6_countries.dat                   country shares
//	fig8_<CC>.dat                        per-country field CCDFs
//	fig9a_{friends,reciprocal,random}.dat path-mile CDFs
//	fig10_matrix.dat                     country link matrix
//	fig4b_ck.dat                         exact C(k) curve
//	motifs.dat                           directed triad census
//	plots.gp                             gnuplot script
func WritePlotData(dir string, s *core.Study) error {
	st, err := s.Structure(context.Background())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fc, pm := s.FieldsShared(), s.PathMiles()
	files := []plotFile{
		{"fig2_all.dat", points(fc.All)}, {"fig2_tel.dat", points(fc.Tel)},
		{"fig3_in.dat", points(st.Degrees.In)}, {"fig3_out.dat", points(st.Degrees.Out)},
		{"fig4a_rr.dat", points(st.Reciprocity.CDF)}, {"fig4b_cc.dat", points(st.Clustering.CDF)}, {"fig4c_scc.dat", points(st.SCC.SizeCCDF)},
		{"fig9a_friends.dat", points(pm.FriendsCDF)}, {"fig9a_reciprocal.dat", points(pm.ReciprocalCDF)}, {"fig9a_random.dat", points(pm.RandomCDF)},
		{"fig5_directed.dat", hops(st.Paths.Directed.Probability())},
		{"fig5_undirected.dat", hops(st.Paths.Undirected.Probability())},
		{"fig6_countries.dat", countries(s.TopCountries(11))},
	}
	for _, row := range s.FieldsByCountry(nil) {
		files = append(files, plotFile{fmt.Sprintf("fig8_%s.dat", row.Country), points(row.CCDF)})
	}
	files = append(files,
		plotFile{"fig10_matrix.dat", matrix(s.CountryLinks())},
		plotFile{"fig4b_ck.dat", ck(st.Clustering.ByDegree)},
		plotFile{"motifs.dat", motifs(st.Motifs)},
		plotFile{"plots.gp", func(w io.Writer) { fmt.Fprint(w, gnuplotScript) }},
	)
	for _, f := range files {
		if err := f.write(dir); err != nil {
			return err
		}
	}
	return nil
}

// plotFile is one file of WritePlotData and what it holds.
type plotFile struct {
	name  string
	print func(w io.Writer)
}

// write writes the file under dir through durable.WriteFile, buffered:
// it appears whole or not at all, and a failed write (a full disk) is
// returned, naming the file.
func (f plotFile) write(dir string) error {
	path := filepath.Join(dir, f.name)
	err := durable.WriteFile(path, func(file *os.File) error {
		bw := bufio.NewWriter(file)
		f.print(bw)
		return bw.Flush() // a bufio.Writer keeps its first error
	})
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func points(pts []stats.Point) func(w io.Writer) {
	return func(w io.Writer) {
		fmt.Fprintf(w, "# x y\n")
		for _, p := range pts {
			fmt.Fprintf(w, "%g %g\n", p.X, p.Y)
		}
	}
}

// ck prints the exact mean-clustering-by-out-degree curve.
func ck(curve []graph.DegreeClustering) func(w io.Writer) {
	return func(w io.Writer) {
		fmt.Fprintf(w, "# degree nodes meanCC\n")
		for _, d := range curve {
			fmt.Fprintf(w, "%d %d %g\n", d.Degree, d.N, d.Mean)
		}
	}
}

// motifs prints the triad census, one class per row. A count that
// overflowed (Counts[Triad003] == -1) stays out of the plot, behind a
// comment.
func motifs(m core.MotifResult) func(w io.Writer) {
	return func(w io.Writer) {
		fmt.Fprintf(w, "# index triad count\n")
		if m.Census == nil {
			return
		}
		for cls, n := range m.Census.Counts {
			if n < 0 {
				fmt.Fprintf(w, "# %d %s overflow\n", cls, graph.TriadClass(cls))
				continue
			}
			fmt.Fprintf(w, "%d %s %d\n", cls, graph.TriadClass(cls), n)
		}
	}
}

func hops(prob []float64) func(w io.Writer) {
	return func(w io.Writer) {
		fmt.Fprintf(w, "# hops probability\n")
		for h, p := range prob {
			fmt.Fprintf(w, "%d %g\n", h, p)
		}
	}
}

func countries(shares []core.CountryShare) func(w io.Writer) {
	return func(w io.Writer) {
		fmt.Fprintf(w, "# index country fraction\n")
		for i, c := range shares {
			fmt.Fprintf(w, "%d %s %g\n", i, c.Country, c.Fraction)
		}
	}
}

func matrix(m core.CountryLinkMatrix) func(w io.Writer) {
	return func(w io.Writer) {
		fmt.Fprintf(w, "# row-normalized link weights; columns:")
		for _, c := range m.Countries {
			fmt.Fprintf(w, " %s", c)
		}
		fmt.Fprintln(w)
		for i, row := range m.Weight {
			fmt.Fprintf(w, "%s", m.Countries[i])
			for _, v := range row {
				fmt.Fprintf(w, " %.4f", v)
			}
			fmt.Fprintln(w)
		}
	}
}

// gnuplotScript renders the figures from the files beside it.
const gnuplotScript = `# Render the study's figures: gnuplot plots.gp
set terminal pngcairo size 800,600

set output 'fig2.png'
set xlabel '# fields available in profile'; set ylabel 'CCDF'
plot 'fig2_all.dat' with linespoints title 'All users', \
     'fig2_tel.dat' with linespoints title 'Telephone users'

set output 'fig3.png'
set logscale xy
set xlabel 'Degree'; set ylabel 'CCDF'
plot 'fig3_in.dat' with lines title 'In', 'fig3_out.dat' with lines title 'Out'
unset logscale

set output 'fig4a.png'
set xlabel 'Reciprocity'; set ylabel 'CDF'
plot 'fig4a_rr.dat' with lines title 'Google+'

set output 'fig4b.png'
set xlabel 'Clustering Coefficient'; set ylabel 'CDF'
plot 'fig4b_cc.dat' with lines title 'Google+'

set output 'fig4c.png'
set logscale xy
set xlabel 'Component Size'; set ylabel 'CCDF'
plot 'fig4c_scc.dat' with points title 'Google+'
unset logscale

set output 'fig5.png'
set xlabel 'Hops'; set ylabel 'Probability'
plot 'fig5_directed.dat' with linespoints title 'Directed', \
     'fig5_undirected.dat' with linespoints title 'Undirected'

set output 'fig9a.png'
set xlabel 'Distance (miles)'; set ylabel 'CDF'
plot 'fig9a_random.dat' with lines title 'Random', \
     'fig9a_friends.dat' with lines title 'Friends', \
     'fig9a_reciprocal.dat' with lines title 'Reciprocal'

set output 'motifs.png'
set style fill solid 0.6
set boxwidth 0.8
set logscale y
set xlabel 'Triad class'; set ylabel 'Count'
plot 'motifs.dat' using 1:($3 > 0 ? $3 : 1/0):xtic(2) with boxes notitle
unset logscale
`
