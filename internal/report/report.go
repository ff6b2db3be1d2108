// Package report renders study results in the row/series layout of the
// paper's tables and figures, so a terminal run can be compared line by
// line with the published values.
package report

import (
	"fmt"
	"io"
	"sort"

	"gplus/internal/core"
	"gplus/internal/geo"
	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/stats"
)

// Table1 renders the top-users ranking.
func Table1(w io.Writer, rows []core.TopUser) {
	fmt.Fprintln(w, "Table 1: Top users ranked by in-degree")
	fmt.Fprintf(w, "%4s  %-24s %-30s %10s\n", "Rank", "Name", "About", "In-degree")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d  %-24s %-30s %10d\n", r.Rank, r.Name, r.Occupation, r.InDegree)
	}
}

// Table2 renders attribute availability.
func Table2(w io.Writer, rows []core.AttrAvailability) {
	fmt.Fprintln(w, "Table 2: Public attributes available")
	fmt.Fprintf(w, "%-18s %12s %8s\n", "Attribute", "Available", "%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %12d %8.2f\n", r.Attr, r.Available, 100*r.Fraction)
	}
}

// Table3 renders the all-users versus tel-users comparison.
func Table3(w io.Writer, cmp core.TelUserComparison) {
	fmt.Fprintln(w, "Table 3: Information shared by all users and tel-users")
	fmt.Fprintf(w, "%-28s %12s %12s\n", "", "All users", "Tel-users")
	fmt.Fprintf(w, "%-28s %12d %12d\n", "Total", cmp.TotalAll, cmp.TotalTel)

	fmt.Fprintf(w, "%-28s %12d %12d\n", "Gender (N)", cmp.GenderAll.N, cmp.GenderTel.N)
	for _, g := range []string{"Male", "Female", "Other"} {
		fmt.Fprintf(w, "  %-26s %11.2f%% %11.2f%%\n", g,
			100*cmp.GenderAll.Share[g], 100*cmp.GenderTel.Share[g])
	}

	fmt.Fprintf(w, "%-28s %12d %12d\n", "Relationship (N)", cmp.RelationshipAll.N, cmp.RelationshipTel.N)
	for _, r := range profile.Relationships() {
		fmt.Fprintf(w, "  %-26s %11.2f%% %11.2f%%\n", r,
			100*cmp.RelationshipAll.Share[r.String()], 100*cmp.RelationshipTel.Share[r.String()])
	}

	fmt.Fprintf(w, "%-28s %12d %12d\n", "Location (N)", cmp.LocationAll.N, cmp.LocationTel.N)
	for _, c := range []string{"US", "IN", "BR", "GB", "CA", "Other"} {
		label := c
		if country, ok := geo.ByCode(c); ok {
			label = country.Name
		}
		fmt.Fprintf(w, "  %-26s %11.2f%% %11.2f%%\n", label,
			100*cmp.LocationAll.Share[c], 100*cmp.LocationTel.Share[c])
	}
}

// Table4 renders the topology comparison rows, each path length with
// its 95 % half-width as Figure 5 prints it.
func Table4(w io.Writer, rows []core.TopologyRow) {
	fmt.Fprintln(w, "Table 4: Topological comparison")
	fmt.Fprintf(w, "%-14s %10s %12s %10s %12s %12s %9s %10s\n",
		"Network", "Nodes", "Edges", "%Crawled", "PathLength", "Reciprocity", "Diameter", "AvgDegree")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10d %12d %9.0f%% %12s %11.0f%% %9d %10.1f\n",
			r.Network, r.Nodes, r.Edges, r.CrawledPercent, fmt.Sprintf("%.2f±%.2f", r.PathLength, r.PathHalfWidth),
			100*r.Reciprocity, r.Diameter, r.AvgDegree)
	}
}

// Table5 renders the per-country occupation codes.
func Table5(w io.Writer, rows []core.CountryOccupations) {
	fmt.Fprintln(w, "Table 5: Occupation codes of the top users per country")
	fmt.Fprintf(w, "%-16s %-32s %8s\n", "Country", "Codes", "Jaccard")
	for _, r := range rows {
		codes := ""
		for i, c := range r.Codes {
			if i > 0 {
				codes += " "
			}
			codes += c
		}
		label := r.Country
		if country, ok := geo.ByCode(r.Country); ok {
			label = country.Name
		}
		fmt.Fprintf(w, "%-16s %-32s %8.2f\n", label, codes, r.Jaccard)
	}
}

// Series renders an (x, y) curve with a fixed number of sample rows so
// figures stay terminal-sized regardless of the point count.
func Series(w io.Writer, title string, pts []stats.Point, maxRows int) {
	fmt.Fprintln(w, title)
	if len(pts) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	if maxRows <= 0 {
		maxRows = 12
	}
	step := 1
	if len(pts) > maxRows {
		step = len(pts) / maxRows
	}
	for i := 0; i < len(pts); i += step {
		fmt.Fprintf(w, "  x=%-12.4g y=%.6f\n", pts[i].X, pts[i].Y)
	}
	last := pts[len(pts)-1]
	fmt.Fprintf(w, "  x=%-12.4g y=%.6f (tail)\n", last.X, last.Y)
}

// Fig2 renders the field-count CCDFs.
func Fig2(w io.Writer, fc core.FieldCCDF) {
	Series(w, "Figure 2: CCDF of #fields shared (all users)", fc.All, 16)
	Series(w, "Figure 2: CCDF of #fields shared (tel-users)", fc.Tel, 16)
}

// Fig3 renders the degree distributions and fits.
func Fig3(w io.Writer, dd core.DegreeDistributions) {
	fmt.Fprintf(w, "Figure 3: degree distributions — in: alpha=%.2f (R2=%.3f), out: alpha=%.2f (R2=%.3f)\n",
		dd.InFit.Alpha, dd.InFit.R2, dd.OutFit.Alpha, dd.OutFit.R2)
	if dd.InMLE > 0 || dd.OutMLE > 0 {
		fmt.Fprintf(w, "  tail MLE cross-check: in alpha=%.2f±%.2f, out alpha=%.2f±%.2f\n",
			dd.InMLE, dd.InMLEErr, dd.OutMLE, dd.OutMLEErr)
	}
	Series(w, "  in-degree CCDF", dd.In, 10)
	Series(w, "  out-degree CCDF", dd.Out, 10)
}

// Connectivity renders the §3.3.4 component summary.
func Connectivity(w io.Writer, wcc core.WCCResult, scc core.SCCResult) {
	fmt.Fprintf(w, "Connectivity: %d WCC (giant %.1f%% of graph nodes); %d SCC (giant %.1f%%)\n",
		wcc.Count, 100*wcc.GiantFraction, scc.Count, 100*scc.GiantFraction)
}

// Fig4 renders reciprocity, clustering and SCC results.
func Fig4(w io.Writer, rec core.ReciprocityResult, cl core.ClusteringResult, scc core.SCCResult) {
	fmt.Fprintf(w, "Figure 4(a): global reciprocity = %.1f%%; %.1f%% of users have RR > 0.6\n",
		100*rec.Global, 100*rec.FractionAbove06)
	fmt.Fprintf(w, "Figure 4(b): mean CC = %.3f over %d all eligible nodes; %.1f%% have CC > 0.2\n",
		cl.Mean, cl.Sampled, 100*cl.FractionAbove02)
	fmt.Fprintf(w, "Figure 4(c): %d SCCs; giant has %d nodes (%.1f%% of the graph)\n",
		scc.Count, scc.GiantSize, 100*scc.GiantFraction)
}

// Motifs renders the exact triangle count and the 16-class directed
// triad census, most common classes first among the connected ones.
func Motifs(w io.Writer, m core.MotifResult) {
	fmt.Fprintf(w, "Motifs: %d triangles (%s kernel), transitivity %.4f\n",
		m.TriangleTotal, m.TriangleMethod, m.Transitivity)
	c := m.Census
	if c == nil {
		fmt.Fprintln(w, "  (no census)")
		return
	}
	fmt.Fprintf(w, "  dyads: %d mutual, %d one-way over %d nodes\n",
		c.MutualDyads, c.AsymDyads, c.Nodes)
	fmt.Fprintf(w, "  %-6s %14s  %s\n", "triad", "count", "kind")
	for cls, n := range c.Counts {
		tc := graph.TriadClass(cls)
		kind := "disconnected"
		switch {
		case tc.Closed():
			kind = "triangle"
		case tc.Connected():
			kind = "open"
		}
		if n < 0 {
			fmt.Fprintf(w, "  %-6s %14s  %s\n", tc, "overflow", kind)
			continue
		}
		fmt.Fprintf(w, "  %-6s %14d  %s\n", tc, n, kind)
	}
	fmt.Fprintf(w, "  connected triples: %d; closed: %d; transitive closures: %d\n",
		c.ConnectedTriples(), c.Triangles(), c.TransitiveClosures())
}

// Fig5 renders the path-length distributions: each mean with its 95 %
// half-width and the sources behind it, each mode beside the two largest
// hop shares it was picked from, and the double-sweep diameters as the
// lower bounds they are.
func Fig5(w io.Writer, pl core.PathLengthResult) {
	fmt.Fprintf(w, "Figure 5: directed %s %s diameter>=%d | undirected %s %s diameter>=%d\n",
		sampledMean(pl.Directed), sampledMode(pl.Directed), pl.Directed.Diameter,
		sampledMean(pl.Undirected), sampledMode(pl.Undirected), pl.Undirected.Diameter)
	for h, p := range pl.Directed.Probability() {
		if p > 0.001 {
			fmt.Fprintf(w, "  hops=%-3d directed=%.3f\n", h, p)
		}
	}
}

// sampledMean renders a path sample's mean as avg=<mean>±<half-width>
// (<sources> sources).
func sampledMean(d *graph.PathLengthDist) string {
	return fmt.Sprintf("avg=%.2f±%.2f (%d sources)", d.Mean(), d.HalfWidth, d.Sources)
}

// sampledMode renders a path sample's mode with its share of the
// reachable pairs and the runner-up hop's, mode=<hop> (<share>, <hop> at
// <share>), so that a near-tie shows. A sample with no second hop
// prints the mode's share alone.
func sampledMode(d *graph.PathLengthDist) string {
	mode, p := d.Mode(), d.Probability()
	if mode == 0 {
		return "mode=0"
	}
	next := 0
	for h := 1; h < len(p); h++ {
		if h != mode && (next == 0 || p[h] > p[next]) {
			next = h
		}
	}
	if next == 0 {
		return fmt.Sprintf("mode=%d (%.3f)", mode, p[mode])
	}
	return fmt.Sprintf("mode=%d (%.3f, %d at %.3f)", mode, p[mode], next, p[next])
}

// Fig6 renders the top-country shares.
func Fig6(w io.Writer, shares []core.CountryShare) {
	fmt.Fprintln(w, "Figure 6: top countries by located users")
	for _, s := range shares {
		name := s.Country
		if c, ok := geo.ByCode(s.Country); ok {
			name = c.Name
		} else if s.Country == "XX" {
			name = "Other countries"
		}
		fmt.Fprintf(w, "  %-18s %8d users  %6.2f%%\n", name, s.Users, 100*s.Fraction)
	}
}

// Fig7 renders the penetration scatter, sorted by GPR descending.
func Fig7(w io.Writer, pts []geo.PenetrationPoint) {
	fmt.Fprintln(w, "Figure 7: GDP per capita vs Google+ and Internet penetration")
	sorted := append([]geo.PenetrationPoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].GPR > sorted[j].GPR })
	fmt.Fprintf(w, "  %-6s %-14s %10s %12s %8s\n", "Code", "Region", "GDP/capita", "GPR", "IPR")
	for _, p := range sorted {
		fmt.Fprintf(w, "  %-6s %-14s %10.0f %12.3e %7.1f%%\n",
			p.Code, p.Region, p.GDPPerCapita, p.GPR, 100*p.IPR)
	}
}

// Fig8 renders the per-country openness curves.
func Fig8(w io.Writer, rows []core.CountryFieldCCDF) {
	fmt.Fprintln(w, "Figure 8: #fields shared by country (CCDF at 6 and 10 fields)")
	for _, r := range rows {
		at6, at10 := stats.CCDFAt(r.CCDF, 6), stats.CCDFAt(r.CCDF, 10)
		fmt.Fprintf(w, "  %-4s N=%-8d P(>=6)=%.3f  P(>=10)=%.3f\n", r.Country, r.N, at6, at10)
	}
}

// Fig9 renders the path-mile distributions and per-country averages.
func Fig9(w io.Writer, pm core.PathMileResult, avgs []core.CountryPathMile) {
	fmt.Fprintf(w, "Figure 9(a): path miles (median / P(<1000 mi); ε = the CDF's DKW error at %.0f%%, 0 when every pair was taken)\n",
		100*(1-core.PairSampleAlpha))
	describe := func(name string, vals []float64, cdf []stats.Point, eps float64) {
		if len(vals) == 0 {
			fmt.Fprintf(w, "  %-12s (no pairs)\n", name)
			return
		}
		med := stats.CDFQuantile(cdf, len(vals), 0.5)
		under := stats.CDFAt(cdf, 1000)
		fmt.Fprintf(w, "  %-12s median=%7.0f mi  P(<1000mi)=%.2f  n=%d  ε=%.4f\n", name, med, under, len(vals), eps)
	}
	describe("random", pm.Random, pm.RandomCDF, pm.RandomEps)
	describe("friends", pm.Friends, pm.FriendsCDF, pm.FriendsEps)
	describe("reciprocal", pm.Reciprocal, pm.ReciprocalCDF, pm.ReciprocalEps)

	fmt.Fprintln(w, "Figure 9(b): average path mile per country")
	for _, a := range avgs {
		fmt.Fprintf(w, "  %-4s mean=%7.0f mi  stddev=%7.0f  n=%d\n", a.Country, a.Mean, a.Stddev, a.N)
	}
}

// Fig10 renders the country link matrix.
func Fig10(w io.Writer, m core.CountryLinkMatrix) {
	fmt.Fprintln(w, "Figure 10: link distribution across the top countries (row-normalized)")
	fmt.Fprintf(w, "      ")
	for _, c := range m.Countries {
		fmt.Fprintf(w, "%6s", c)
	}
	fmt.Fprintln(w)
	for i, row := range m.Weight {
		fmt.Fprintf(w, "  %-4s", m.Countries[i])
		for _, v := range row {
			fmt.Fprintf(w, "%6.2f", v)
		}
		fmt.Fprintln(w)
	}
}

// LostEdges renders the §2.2 estimate.
func LostEdges(w io.Writer, est core.LostEdgeEstimate) {
	fmt.Fprintf(w, "Lost edges (cap %d): %d users over cap, declared %d vs found %d -> %.2f%% of edges lost\n",
		est.CircleCap, est.UsersOverCap, est.DeclaredEdges, est.FoundEdges, 100*est.LostFraction)
}
