package report

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gplus/internal/core"
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
	writeSeries := func(name string, pts []stats.Point) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(f, "# x y\n")
		for _, p := range pts {
			fmt.Fprintf(f, "%g %g\n", p.X, p.Y)
		}
		return f.Close()
	}

	fc, pm := s.FieldsShared(), s.PathMiles()
	for _, series := range []struct {
		name string
		pts  []stats.Point
	}{
		{"fig2_all.dat", fc.All}, {"fig2_tel.dat", fc.Tel},
		{"fig3_in.dat", st.Degrees.In}, {"fig3_out.dat", st.Degrees.Out},
		{"fig4a_rr.dat", st.Reciprocity.CDF}, {"fig4b_cc.dat", st.Clustering.CDF}, {"fig4c_scc.dat", st.SCC.SizeCCDF},
		{"fig9a_friends.dat", pm.FriendsCDF}, {"fig9a_reciprocal.dat", pm.ReciprocalCDF}, {"fig9a_random.dat", pm.RandomCDF},
	} {
		if err := writeSeries(series.name, series.pts); err != nil {
			return err
		}
	}

	if err := writeHops(filepath.Join(dir, "fig5_directed.dat"), st.Paths.Directed.Probability()); err != nil {
		return err
	}
	if err := writeHops(filepath.Join(dir, "fig5_undirected.dat"), st.Paths.Undirected.Probability()); err != nil {
		return err
	}

	if err := writeCountries(filepath.Join(dir, "fig6_countries.dat"), s.TopCountries(11)); err != nil {
		return err
	}

	for _, row := range s.FieldsByCountry(nil) {
		if err := writeSeries(fmt.Sprintf("fig8_%s.dat", row.Country), row.CCDF); err != nil {
			return err
		}
	}

	if err := writeMatrix(filepath.Join(dir, "fig10_matrix.dat"), s.CountryLinks()); err != nil {
		return err
	}

	if err := writeCk(filepath.Join(dir, "fig4b_ck.dat"), st.Clustering.ByDegree); err != nil {
		return err
	}
	if err := writeMotifs(filepath.Join(dir, "motifs.dat"), st.Motifs); err != nil {
		return err
	}

	return writeGnuplotScript(filepath.Join(dir, "plots.gp"))
}

// writeCk writes the exact mean-clustering-by-out-degree curve.
func writeCk(path string, curve []graph.DegreeClustering) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# degree nodes meanCC\n")
	for _, d := range curve {
		fmt.Fprintf(f, "%d %d %g\n", d.Degree, d.N, d.Mean)
	}
	return f.Close()
}

// writeMotifs writes the triad census, one class per row. A count that
// overflowed (Counts[Triad003] == -1) stays out of the plot, behind a
// comment.
func writeMotifs(path string, m core.MotifResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# index triad count\n")
	if m.Census == nil {
		return f.Close()
	}
	for cls, n := range m.Census.Counts {
		if n < 0 {
			fmt.Fprintf(f, "# %d %s overflow\n", cls, graph.TriadClass(cls))
			continue
		}
		fmt.Fprintf(f, "%d %s %d\n", cls, graph.TriadClass(cls), n)
	}
	return f.Close()
}

func writeHops(path string, prob []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# hops probability\n")
	for h, p := range prob {
		fmt.Fprintf(f, "%d %g\n", h, p)
	}
	return f.Close()
}

func writeCountries(path string, shares []core.CountryShare) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# index country fraction\n")
	for i, c := range shares {
		fmt.Fprintf(f, "%d %s %g\n", i, c.Country, c.Fraction)
	}
	return f.Close()
}

func writeMatrix(path string, m core.CountryLinkMatrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# row-normalized link weights; columns:")
	for _, c := range m.Countries {
		fmt.Fprintf(f, " %s", c)
	}
	fmt.Fprintln(f)
	for i, row := range m.Weight {
		fmt.Fprintf(f, "%s", m.Countries[i])
		for _, v := range row {
			fmt.Fprintf(f, " %.4f", v)
		}
		fmt.Fprintln(f)
	}
	return f.Close()
}

func writeGnuplotScript(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return writeScriptBody(f)
}

func writeScriptBody(w io.Writer) error {
	_, err := fmt.Fprint(w, `# Render the study's figures: gnuplot plots.gp
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
`)
	return err
}
