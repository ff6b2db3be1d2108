// Package paper embeds the published values of Magno et al. (IMC 2012)
// and the tolerance bands within which this reproduction is considered
// to match. Collect and Evaluate hold a study to every check; the audit
// experiment of internal/report (gplusanalyze -only audit) prints the
// pass/fail table.
//
// Two kinds of checks exist:
//
//   - value checks: population-level statistics that are scale-free and
//     must land inside [Min, Max] around the published value;
//   - ordering checks: structural claims ("directed paths longer than
//     undirected", "tel-users skew male") that must hold for any graph
//     size.
package paper

import (
	"context"
	"fmt"

	"gplus/internal/core"
	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/stats"
)

// Check is one verifiable claim from the paper.
type Check struct {
	// ID names the experiment (table/figure/section).
	ID string
	// Claim restates the published finding.
	Claim string
	// Published is the paper's value where one exists (NaN-free; zero
	// when the claim is an ordering rather than a number).
	Published float64
	// Min and Max bound the accepted measured range for value checks;
	// for ordering checks both are zero and Holds decides.
	Min, Max float64
	// Measure extracts the measured value (value checks).
	Measure func(*Results) float64
	// Holds evaluates ordering checks.
	Holds func(*Results) bool
}

// IsOrdering reports whether the check is an ordering claim.
func (c *Check) IsOrdering() bool { return c.Holds != nil }

// Results caches every analysis a verification run needs, so checks can
// share computations.
type Results struct {
	Attr        map[profile.Attr]float64
	Tel         core.TelUserComparison
	TelFraction float64
	Reciprocity core.ReciprocityResult
	Clustering  core.ClusteringResult
	Motifs      core.MotifResult
	Paths       core.PathLengthResult
	Degrees     core.DegreeDistributions
	Topology    core.TopologyRow
	Countries   map[string]float64
	Penetration map[string]float64 // GPR by country
	Links       core.CountryLinkMatrix
	PathMiles   core.PathMileResult
	Fields      core.FieldCCDF
	Openness    map[string]float64 // P(>6 fields) by country
}

// Collect runs every analysis a verification needs.
func Collect(ctx context.Context, s *core.Study) (*Results, error) {
	// The structural analyses go through Structure, which fans the stages
	// s has not computed yet out under the study's parallelism budget.
	st, err := s.Structure(ctx)
	if err != nil {
		return nil, fmt.Errorf("paper: structural analyses: %w", err)
	}
	r := &Results{
		Attr:        map[profile.Attr]float64{},
		Countries:   map[string]float64{},
		Penetration: map[string]float64{},
		Openness:    map[string]float64{},
	}
	for _, row := range s.AttributeTable() {
		r.Attr[row.Attr] = row.Fraction
	}
	r.Tel = s.TelUsers()
	if r.Tel.TotalAll > 0 {
		r.TelFraction = float64(r.Tel.TotalTel) / float64(r.Tel.TotalAll)
	}
	r.Reciprocity = st.Reciprocity
	r.Clustering = st.Clustering
	r.Motifs = st.Motifs
	r.Paths = st.Paths
	r.Degrees = st.Degrees
	r.Topology = s.Topology(ctx)
	for _, c := range s.TopCountries(0) {
		r.Countries[c.Country] = c.Fraction
	}
	for _, p := range s.Penetration() {
		r.Penetration[p.Code] = p.GPR
	}
	r.Links = s.CountryLinks()
	r.PathMiles = s.PathMiles()
	r.Fields = s.FieldsShared()
	for _, row := range s.FieldsByCountry([]string{"ID", "MX", "US", "DE"}) {
		r.Openness[row.Country] = row.Openness(6)
	}
	return r, nil
}

// Checks returns every verifiable claim.
func Checks() []Check {
	return []Check{
		// Table 2 — scale-free attribute fractions.
		attrCheck("table2/gender", profile.AttrGender, 0.9767, 0.02),
		attrCheck("table2/education", profile.AttrEducation, 0.2711, 0.035),
		attrCheck("table2/places-lived", profile.AttrPlacesLived, 0.2675, 0.03),
		attrCheck("table2/employment", profile.AttrEmployment, 0.2147, 0.03),
		attrCheck("table2/relationship", profile.AttrRelationship, 0.0431, 0.015),
		attrCheck("table2/looking-for", profile.AttrLookingFor, 0.0274, 0.012),
		{
			ID: "table2/work-contact", Claim: "work contact shared by ~0.22% of users",
			Published: 0.0022, Min: 0.0005, Max: 0.006,
			Measure: func(r *Results) float64 { return r.Attr[profile.AttrWorkContact] },
		},

		// Table 3 — tel-user demographics.
		{
			ID: "table3/tel-share", Claim: "tel-users are ~0.26% of the population",
			Published: 0.0026, Min: 0.001, Max: 0.006,
			Measure: func(r *Results) float64 { return r.TelFraction },
		},
		{
			ID: "table3/male-share", Claim: "~68% of gender-disclosing users are male",
			Published: 0.6765, Min: 0.64, Max: 0.72,
			Measure: func(r *Results) float64 { return r.Tel.GenderAll.Share["Male"] },
		},
		{
			ID:    "table3/tel-male-skew",
			Claim: "tel-users skew male beyond the base rate (86% vs 68%)",
			Holds: func(r *Results) bool {
				return r.Tel.GenderTel.Share["Male"] > r.Tel.GenderAll.Share["Male"]+0.05
			},
		},
		{
			ID:    "table3/tel-single-skew",
			Claim: "single users over-represented among tel-users (57% vs 43%)",
			Holds: func(r *Results) bool {
				return r.Tel.RelationshipTel.Share["Single"] > r.Tel.RelationshipAll.Share["Single"]
			},
		},
		{
			ID:    "table3/tel-india",
			Claim: "India's tel-user share far exceeds its base share",
			Holds: func(r *Results) bool {
				return r.Tel.LocationTel.Share["IN"] > 1.5*r.Tel.LocationAll.Share["IN"]
			},
		},

		// Table 4 / Figure 4(a) — reciprocity.
		{
			ID: "table4/reciprocity", Claim: "32% of circle links are reciprocated",
			Published: 0.32, Min: 0.25, Max: 0.42,
			Measure: func(r *Results) float64 { return r.Reciprocity.Global },
		},
		{
			ID: "table4/avg-degree", Claim: "average degree ~16.4",
			Published: 16.4, Min: 13, Max: 20,
			Measure: func(r *Results) float64 { return r.Topology.AvgDegree },
		},
		{
			ID:    "fig4a/rr-above-0.6",
			Claim: "most ordinary users keep RR > 0.6 while global reciprocity stays low",
			Holds: func(r *Results) bool {
				return r.Reciprocity.FractionAbove06 > 0.45 &&
					r.Reciprocity.FractionAbove06 > r.Reciprocity.Global
			},
		},

		// Figure 4(b) — clustering.
		{
			ID: "fig4b/cc-above-0.2", Claim: "~40% of users have clustering coefficient > 0.2",
			Published: 0.40, Min: 0.25, Max: 0.60,
			Measure: func(r *Results) float64 { return r.Clustering.FractionAbove02 },
		},

		// Directed triangle motifs — the Schiöberg et al. follow-up study
		// of the same crawl: among triangles with no mutual dyad, cycles
		// are the rarest class, transitive closure dominates.
		{
			ID:    "motifs/cycles-rare",
			Claim: "cyclic triangles (030C) are no more common than transitive ones (030T)",
			Holds: func(r *Results) bool {
				c := r.Motifs.Census
				return c != nil && c.Triangles() > 0 &&
					c.Counts[graph.Triad030C] <= c.Counts[graph.Triad030T]
			},
		},

		// Figure 3 — degree power laws.
		{
			ID: "fig3/in-alpha", Claim: "in-degree CCDF exponent ~1.3",
			Published: 1.3, Min: 0.9, Max: 1.6,
			Measure: func(r *Results) float64 { return r.Degrees.InFit.Alpha },
		},
		{
			ID: "fig3/out-alpha", Claim: "out-degree CCDF exponent ~1.2",
			Published: 1.2, Min: 1.0, Max: 1.7,
			Measure: func(r *Results) float64 { return r.Degrees.OutFit.Alpha },
		},
		{
			ID:    "fig3/fit-quality",
			Claim: "log-log fits are near-linear (R² ≈ 0.99)",
			Holds: func(r *Results) bool {
				return r.Degrees.InFit.R2 > 0.85 && r.Degrees.OutFit.R2 > 0.9
			},
		},

		// Figure 5 — degrees of separation.
		{
			ID:    "fig5/directed-longer",
			Claim: "directed paths are about a hop longer than undirected",
			Holds: func(r *Results) bool {
				return r.Paths.Directed.Mean() > r.Paths.Undirected.Mean()
			},
		},

		// Figure 6 — country shares.
		{
			ID: "fig6/us-share", Claim: "US holds ~31% of located users",
			Published: 0.3138, Min: 0.28, Max: 0.35,
			Measure: func(r *Results) float64 { return r.Countries["US"] },
		},
		{
			ID: "fig6/india-share", Claim: "India holds ~17% of located users",
			Published: 0.1671, Min: 0.13, Max: 0.20,
			Measure: func(r *Results) float64 { return r.Countries["IN"] },
		},

		// Figure 7 — penetration.
		{
			ID:    "fig7/india-top",
			Claim: "India's Google+ penetration exceeds the US's despite lower GDP",
			Holds: func(r *Results) bool { return r.Penetration["IN"] > r.Penetration["US"] },
		},
		{
			ID:    "fig7/domestic-networks",
			Claim: "Japan/Russia/China penetration depressed by domestic networks",
			Holds: func(r *Results) bool {
				return r.Penetration["JP"] < r.Penetration["GB"] &&
					r.Penetration["RU"] < r.Penetration["GB"] &&
					r.Penetration["CN"] < r.Penetration["GB"]
			},
		},

		// Figure 8 — openness by country.
		{
			ID:    "fig8/openness-order",
			Claim: "Indonesia and Mexico most open; Germany most conservative",
			Holds: func(r *Results) bool {
				return r.Openness["ID"] > r.Openness["DE"] &&
					r.Openness["MX"] > r.Openness["DE"] &&
					r.Openness["US"] > r.Openness["DE"]
			},
		},

		// Figure 2 — tel-users share more fields.
		{
			ID:    "fig2/tel-dominates",
			Claim: "66% of tel-users share >6 fields versus 10% of all users",
			Holds: func(r *Results) bool {
				return stats.CCDFAt(r.Fields.Tel, 7) > 3*stats.CCDFAt(r.Fields.All, 7)
			},
		},

		// Figure 9(a) — path miles. An empty population fails both.
		{
			ID:    "fig9/friends-closer",
			Claim: "friends live closer than random pairs (58% of friend pairs within 1,000 mi)",
			Holds: func(r *Results) bool {
				pm := &r.PathMiles
				return len(pm.Friends) > 0 && len(pm.Random) > 0 &&
					stats.CDFAt(pm.FriendsCDF, 1000) > stats.CDFAt(pm.RandomCDF, 1000)
			},
		},
		{
			ID:    "fig9/reciprocal-closest",
			Claim: "reciprocal friends live closest: their median path mile is below friends'",
			Holds: func(r *Results) bool {
				pm := &r.PathMiles
				return len(pm.Friends) > 0 && len(pm.Reciprocal) > 0 &&
					stats.CDFQuantile(pm.ReciprocalCDF, len(pm.Reciprocal), 0.5) <
						stats.CDFQuantile(pm.FriendsCDF, len(pm.Friends), 0.5)
			},
		},

		// Figure 10 — self-loop structure.
		{
			ID: "fig10/us-selfloop", Claim: "US self-loop weight ~0.79",
			Published: 0.79, Min: 0.6, Max: 0.95,
			Measure: func(r *Results) float64 { return r.Links.SelfLoop("US") },
		},
		{
			ID:    "fig10/anglosphere-outward",
			Claim: "GB and CA send most links abroad (self-loops ~0.3)",
			Holds: func(r *Results) bool {
				return r.Links.SelfLoop("GB") < 0.5 && r.Links.SelfLoop("CA") < 0.5 &&
					r.Links.SelfLoop("GB") < r.Links.SelfLoop("US")
			},
		},
	}
}

func attrCheck(id string, a profile.Attr, published, tol float64) Check {
	return Check{
		ID:        id,
		Claim:     fmt.Sprintf("%v shared by %.2f%% of users", a, 100*published),
		Published: published,
		Min:       published - tol,
		Max:       published + tol,
		Measure:   func(r *Results) float64 { return r.Attr[a] },
	}
}

// Outcome is one evaluated check.
type Outcome struct {
	Check    Check
	Measured float64 // NaN-free; 0/1 for ordering checks
	Pass     bool
}

// Evaluate runs every check against the results.
func Evaluate(r *Results) []Outcome {
	checks := Checks()
	out := make([]Outcome, 0, len(checks))
	for _, c := range checks {
		o := Outcome{Check: c}
		if c.IsOrdering() {
			o.Pass = c.Holds(r)
			if o.Pass {
				o.Measured = 1
			}
		} else {
			o.Measured = c.Measure(r)
			o.Pass = o.Measured >= c.Min && o.Measured <= c.Max
		}
		out = append(out, o)
	}
	return out
}
