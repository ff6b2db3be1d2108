package report

import (
	"context"
	"fmt"
	"io"

	"gplus/internal/core"
	"gplus/internal/graph"
	"gplus/internal/paper"
	"gplus/internal/profile"
)

// Markdown renders a complete study as a Markdown document in the style
// of EXPERIMENTS.md: a dataset summary, the paper-versus-measured audit,
// and the principal tables. It is what `gplusanalyze -format md` emits.
func Markdown(ctx context.Context, w io.Writer, s *core.Study) error {
	ds := s.Dataset()
	fmt.Fprintf(w, "# Google+ reproduction report\n\n")
	fmt.Fprintf(w, "Dataset: %d users (%d crawled), %d edges.\n\n",
		ds.NumUsers(), ds.NumCrawled(), ds.View().NumEdges())

	results, err := paper.Collect(ctx, s)
	if err != nil {
		return err
	}

	// The audit table.
	fmt.Fprintf(w, "## Audit against the published findings\n\n")
	fmt.Fprintf(w, "| Check | Status | Paper | Measured | Claim |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	passed, total := 0, 0
	for _, o := range paper.Evaluate(results) {
		total++
		status := "PASS"
		if o.Pass {
			passed++
		} else {
			status = "**FAIL**"
		}
		if o.Check.IsOrdering() {
			holds := "holds"
			if !o.Pass {
				holds = "violated"
			}
			fmt.Fprintf(w, "| %s | %s | — | %s | %s |\n", o.Check.ID, status, holds, o.Check.Claim)
		} else {
			fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %s |\n",
				o.Check.ID, status, o.Check.Published, o.Measured, o.Check.Claim)
		}
	}
	fmt.Fprintf(w, "\n**%d/%d checks passed.**\n\n", passed, total)

	// Table 1.
	fmt.Fprintf(w, "## Table 1 — top users by in-degree\n\n")
	fmt.Fprintf(w, "| Rank | Name | About | In-degree |\n|---|---|---|---|\n")
	for _, r := range s.TopUsers(20) {
		fmt.Fprintf(w, "| %d | %s | %s | %d |\n", r.Rank, r.Name, r.Occupation, r.InDegree)
	}
	fmt.Fprintln(w)

	// Table 2.
	fmt.Fprintf(w, "## Table 2 — public attribute availability\n\n")
	fmt.Fprintf(w, "| Attribute | Available | %% |\n|---|---|---|\n")
	for _, r := range s.AttributeTable() {
		fmt.Fprintf(w, "| %s | %d | %.2f |\n", r.Attr, r.Available, 100*r.Fraction)
	}
	fmt.Fprintln(w)

	// Table 3 (headline rows).
	cmp := results.Tel
	fmt.Fprintf(w, "## Table 3 — all users vs tel-users\n\n")
	fmt.Fprintf(w, "| Quantity | All users | Tel-users |\n|---|---|---|\n")
	fmt.Fprintf(w, "| Total | %d | %d |\n", cmp.TotalAll, cmp.TotalTel)
	for _, g := range []string{"Male", "Female", "Other"} {
		fmt.Fprintf(w, "| %s | %.2f%% | %.2f%% |\n", g,
			100*cmp.GenderAll.Share[g], 100*cmp.GenderTel.Share[g])
	}
	for _, r := range profile.Relationships() {
		fmt.Fprintf(w, "| %s | %.2f%% | %.2f%% |\n", r,
			100*cmp.RelationshipAll.Share[r.String()], 100*cmp.RelationshipTel.Share[r.String()])
	}
	fmt.Fprintln(w)

	// Table 4 (the Google+ row).
	row := results.Topology
	fmt.Fprintf(w, "## Table 4 — topology\n\n")
	fmt.Fprintf(w, "| Nodes | Edges | Path length | Reciprocity | Diameter ≥ | Avg degree |\n|---|---|---|---|---|---|\n")
	fmt.Fprintf(w, "| %d | %d | %.2f | %.0f%% | %d | %.1f |\n\n",
		row.Nodes, row.Edges, row.PathLength, 100*row.Reciprocity, row.Diameter, row.AvgDegree)

	// Table 5.
	fmt.Fprintf(w, "## Table 5 — occupations of top users per country\n\n")
	fmt.Fprintf(w, "| Country | Codes | Jaccard vs US |\n|---|---|---|\n")
	for _, r := range s.TopOccupationsByCountry(10) {
		codes := ""
		for i, c := range r.Codes {
			if i > 0 {
				codes += " "
			}
			codes += c
		}
		fmt.Fprintf(w, "| %s | %s | %.2f |\n", r.Country, codes, r.Jaccard)
	}
	fmt.Fprintln(w)

	// Figure headlines.
	fmt.Fprintf(w, "## Figure headlines\n\n")
	fmt.Fprintf(w, "- Fig 3: in-degree α=%.2f (R²=%.3f), out-degree α=%.2f (R²=%.3f)",
		results.Degrees.InFit.Alpha, results.Degrees.InFit.R2,
		results.Degrees.OutFit.Alpha, results.Degrees.OutFit.R2)
	if results.Degrees.InMLE > 0 {
		fmt.Fprintf(w, "; MLE cross-check in=%.2f out=%.2f", results.Degrees.InMLE, results.Degrees.OutMLE)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- Fig 4(a): global reciprocity %.1f%%; %.1f%% of users above RR 0.6\n",
		100*results.Reciprocity.Global, 100*results.Reciprocity.FractionAbove06)
	fmt.Fprintf(w, "- Fig 4(b): mean clustering %.3f (exact, all eligible nodes); %.1f%% above 0.2\n",
		results.Clustering.Mean, 100*results.Clustering.FractionAbove02)
	fmt.Fprintf(w, "- Fig 5: directed avg %.2f (mode %d), undirected avg %.2f (mode %d)\n",
		results.Paths.Directed.Mean(), results.Paths.Directed.Mode(),
		results.Paths.Undirected.Mean(), results.Paths.Undirected.Mode())
	fmt.Fprintf(w, "- Fig 6: US %.1f%%, IN %.1f%% of located users\n",
		100*results.Countries["US"], 100*results.Countries["IN"])
	fmt.Fprintf(w, "- Fig 10: self-loops US %.2f, IN %.2f, GB %.2f, CA %.2f\n",
		results.Links.SelfLoop("US"), results.Links.SelfLoop("IN"),
		results.Links.SelfLoop("GB"), results.Links.SelfLoop("CA"))
	fmt.Fprintln(w)

	// Directed triad motif census (Schiöberg et al. follow-up).
	if c := results.Motifs.Census; c != nil {
		fmt.Fprintf(w, "## Motif census — exact directed triads\n\n")
		fmt.Fprintf(w, "%d triangles via the %s kernel; transitivity %.4f; %d mutual and %d one-way dyads.\n\n",
			results.Motifs.TriangleTotal, results.Motifs.TriangleMethod,
			results.Motifs.Transitivity, c.MutualDyads, c.AsymDyads)
		fmt.Fprintf(w, "| Triad | Count | Kind |\n|---|---|---|\n")
		for cls, n := range c.Counts {
			tc := graph.TriadClass(cls)
			kind := "disconnected"
			switch {
			case tc.Closed():
				kind = "triangle"
			case tc.Connected():
				kind = "open"
			}
			count := fmt.Sprintf("%d", n)
			if n < 0 {
				count = "overflow"
			}
			fmt.Fprintf(w, "| %s | %s | %s |\n", tc, count, kind)
		}
		fmt.Fprintln(w)
	}
	return nil
}
