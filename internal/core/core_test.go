package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/profile"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

var (
	studyOnce sync.Once
	studyVal  *Study
)

// testStudy builds one shared Study over a ground-truth dataset.
func testStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		u, err := synth.Generate(synth.DefaultConfig(60_000))
		if err != nil {
			panic(err)
		}
		studyVal = New(dataset.FromUniverse(u), Options{
			Seed:        77,
			PathSources: 64,
			PairSample:  20_000,
		})
	})
	return studyVal
}

func TestTable1TopUsers(t *testing.T) {
	s := testStudy(t)
	top := s.TopUsers(20)
	if len(top) != 20 {
		t.Fatalf("got %d rows", len(top))
	}
	for i, row := range top {
		if row.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, row.Rank)
		}
		if row.Name == "" || row.ID == "" {
			t.Errorf("row %d missing identity: %+v", i, row)
		}
		if i > 0 && row.InDegree > top[i-1].InDegree {
			t.Errorf("rows not sorted by in-degree at %d", i)
		}
	}
	// The paper's headline: IT figures dominate the top list (7/20) and
	// generic users are absent.
	mix := make(map[profile.Occupation]int)
	for _, row := range top {
		mix[row.Occupation]++
	}
	if mix[profile.IT] < 2 {
		t.Errorf("top-20 IT count = %d, want >= 2 (paper: 7)", mix[profile.IT])
	}
	if mix[profile.OccupationOther] > 6 {
		t.Errorf("top-20 has %d uncoded users", mix[profile.OccupationOther])
	}
}

func TestTable2Attributes(t *testing.T) {
	s := testStudy(t)
	rows := s.AttributeTable()
	if len(rows) != int(profile.NumAttrs) {
		t.Fatalf("got %d rows, want %d", len(rows), profile.NumAttrs)
	}
	byAttr := map[profile.Attr]AttrAvailability{}
	for _, r := range rows {
		byAttr[r.Attr] = r
	}
	if f := byAttr[profile.AttrName].Fraction; f != 1 {
		t.Errorf("name fraction = %v, want 1 (mandatory field)", f)
	}
	checks := []struct {
		attr profile.Attr
		want float64
		tol  float64
	}{
		{profile.AttrGender, 0.9767, 0.02},
		{profile.AttrEducation, 0.2711, 0.03},
		{profile.AttrPlacesLived, 0.2675, 0.03},
		{profile.AttrEmployment, 0.2147, 0.03},
		{profile.AttrLookingFor, 0.0274, 0.015},
	}
	for _, c := range checks {
		if got := byAttr[c.attr].Fraction; math.Abs(got-c.want) > c.tol {
			t.Errorf("%v fraction = %.4f, want ~%.4f", c.attr, got, c.want)
		}
	}
	// Contact fields are rare (paper: ~0.2% each).
	if f := byAttr[profile.AttrWorkContact].Fraction; f > 0.01 {
		t.Errorf("work contact fraction = %.4f, want < 0.01", f)
	}
}

func TestTable3TelUsers(t *testing.T) {
	s := testStudy(t)
	cmp := s.TelUsers()
	if cmp.TotalTel == 0 || cmp.TotalTel >= cmp.TotalAll {
		t.Fatalf("tel=%d all=%d", cmp.TotalTel, cmp.TotalAll)
	}
	// Gender: tel-users skew male (86% vs 68% in the paper).
	if cmp.GenderTel.Share["Male"] <= cmp.GenderAll.Share["Male"] {
		t.Errorf("tel male %.3f should exceed all male %.3f",
			cmp.GenderTel.Share["Male"], cmp.GenderAll.Share["Male"])
	}
	if math.Abs(cmp.GenderAll.Share["Male"]-0.6765) > 0.03 {
		t.Errorf("all male share = %.3f, want ~0.68", cmp.GenderAll.Share["Male"])
	}
	// Relationship: single users over-represented among tel-users.
	if cmp.RelationshipTel.Share["Single"] <= cmp.RelationshipAll.Share["Single"] {
		t.Errorf("tel single %.3f should exceed all single %.3f",
			cmp.RelationshipTel.Share["Single"], cmp.RelationshipAll.Share["Single"])
	}
	// Location: India overtakes the US among tel-users.
	if cmp.LocationTel.Share["IN"] <= cmp.LocationAll.Share["IN"] {
		t.Errorf("tel IN %.3f should exceed all IN %.3f",
			cmp.LocationTel.Share["IN"], cmp.LocationAll.Share["IN"])
	}
	if cmp.LocationTel.Share["US"] >= cmp.LocationAll.Share["US"] {
		t.Errorf("tel US %.3f should fall below all US %.3f",
			cmp.LocationTel.Share["US"], cmp.LocationAll.Share["US"])
	}
}

func TestFig2FieldsShared(t *testing.T) {
	s := testStudy(t)
	fc := s.FieldsShared()
	if len(fc.All) == 0 || len(fc.Tel) == 0 {
		t.Fatal("empty CCDFs")
	}
	// P(fields > 6) = CCDF at 7: tel-users dominate by a wide margin
	// (66% vs 10% in the paper).
	allAt7 := valueAtOrAbove(fc.All, 7)
	telAt7 := valueAtOrAbove(fc.Tel, 7)
	if telAt7 <= 2*allAt7 {
		t.Errorf("tel CCDF(7)=%.3f should far exceed all CCDF(7)=%.3f", telAt7, allAt7)
	}
	if allAt7 < 0.03 || allAt7 > 0.25 {
		t.Errorf("all CCDF(7) = %.3f, want ~0.10", allAt7)
	}
}

// valueAtOrAbove evaluates a CCDF point series at x (P(X >= x)).
func valueAtOrAbove(pts []stats.Point, x float64) float64 {
	var y float64
	found := false
	for _, p := range pts {
		if p.X >= x && !found {
			y = p.Y
			found = true
		}
	}
	return y
}

func TestFig3Degrees(t *testing.T) {
	s := testStudy(t)
	dd, err := s.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if dd.InFit.Alpha < 0.9 || dd.InFit.Alpha > 1.6 {
		t.Errorf("in alpha = %.2f", dd.InFit.Alpha)
	}
	if dd.OutFit.Alpha < 1.0 || dd.OutFit.Alpha > 1.7 {
		t.Errorf("out alpha = %.2f", dd.OutFit.Alpha)
	}
	if dd.InFit.R2 < 0.85 || dd.OutFit.R2 < 0.9 {
		t.Errorf("fits too loose: in R2 %.3f out R2 %.3f", dd.InFit.R2, dd.OutFit.R2)
	}
	// The MLE cross-check must produce a finite tail exponent in the
	// same neighborhood as the regression estimate.
	if dd.InMLE < 0.8 || dd.InMLE > 2.0 {
		t.Errorf("in-degree MLE alpha = %.2f", dd.InMLE)
	}
	if dd.OutMLE < 0.8 || dd.OutMLE > 2.0 {
		t.Errorf("out-degree MLE alpha = %.2f", dd.OutMLE)
	}
	if dd.InMLEErr <= 0 || dd.OutMLEErr <= 0 {
		t.Errorf("MLE errors not populated: %v %v", dd.InMLEErr, dd.OutMLEErr)
	}

	// The out-degree curve must terminate near the cap while the
	// in-degree tail extends beyond it (celebrities).
	maxOut := dd.Out[len(dd.Out)-1].X
	maxIn := dd.In[len(dd.In)-1].X
	if maxOut > 4*5000 {
		t.Errorf("max out degree %v beyond celebrity allowance", maxOut)
	}
	if maxIn <= maxOut/2 {
		t.Errorf("in-degree tail (%v) should rival out tail (%v)", maxIn, maxOut)
	}
}

func TestFig4aReciprocity(t *testing.T) {
	s := testStudy(t)
	rec := s.Reciprocity()
	if rec.Global < 0.25 || rec.Global > 0.45 {
		t.Errorf("global reciprocity = %.3f, want ~0.32", rec.Global)
	}
	if rec.FractionAbove06 < 0.45 {
		t.Errorf("RR>0.6 fraction = %.3f, want >= 0.45 (paper ~0.6)", rec.FractionAbove06)
	}
	if len(rec.CDF) == 0 {
		t.Fatal("empty RR CDF")
	}
	last := rec.CDF[len(rec.CDF)-1]
	if last.X != 1 || last.Y != 1 {
		t.Errorf("RR CDF should end at (1,1), got %+v", last)
	}
}

func TestFig4bClustering(t *testing.T) {
	s := testStudy(t)
	cl := s.Clustering()
	if cl.Sampled == 0 {
		t.Fatal("no clustering samples")
	}
	if cl.FractionAbove02 < 0.25 || cl.FractionAbove02 > 0.65 {
		t.Errorf("CC>0.2 fraction = %.3f, want ~0.4", cl.FractionAbove02)
	}
	if cl.Mean <= 0 || cl.Mean >= 1 {
		t.Errorf("mean CC = %.3f", cl.Mean)
	}
}

func TestFig4cSCC(t *testing.T) {
	s := testStudy(t)
	scc := s.SCC()
	if scc.GiantFraction < 0.9 {
		t.Errorf("ground-truth giant fraction = %.3f, want >= 0.9", scc.GiantFraction)
	}
	if scc.Count < 1 {
		t.Fatal("no components")
	}
	// CCDF must be dominated by tiny components with a single huge one.
	if scc.SizeCCDF[len(scc.SizeCCDF)-1].X != float64(scc.GiantSize) {
		t.Errorf("CCDF tail %v != giant size %d", scc.SizeCCDF[len(scc.SizeCCDF)-1].X, scc.GiantSize)
	}
}

func TestFig5PathLengths(t *testing.T) {
	s := testStudy(t)
	pl := s.PathLengths(context.Background())
	dMean, uMean := pl.Directed.Mean(), pl.Undirected.Mean()
	if dMean <= uMean {
		t.Errorf("directed mean %.2f should exceed undirected %.2f", dMean, uMean)
	}
	if dMean < 2.5 || dMean > 8 {
		t.Errorf("directed mean = %.2f (paper 5.9 at 35M nodes; scale-reduced here)", dMean)
	}
	if pl.Directed.Mode() < pl.Undirected.Mode() {
		t.Errorf("directed mode %d < undirected mode %d", pl.Directed.Mode(), pl.Undirected.Mode())
	}
	for h, c := range pl.Directed.Counts {
		if c > 0 && h > pl.DiameterDirected {
			t.Errorf("diameter bound %d below an observed distance %d", pl.DiameterDirected, h)
		}
	}
	if pl.DiameterUndirected > pl.DiameterDirected {
		t.Errorf("undirected diameter %d exceeds directed %d", pl.DiameterUndirected, pl.DiameterDirected)
	}
}

func TestWCCSingleComponent(t *testing.T) {
	// §3.3.4: the ground-truth universe is (nearly) one weak component;
	// a crawled dataset is exactly one by construction.
	s := testStudy(t)
	wcc := s.WCC()
	if wcc.GiantFraction < 0.99 {
		t.Errorf("giant WCC fraction = %.4f, want ~1", wcc.GiantFraction)
	}
	if wcc.Count > s.Dataset().NumUsers()/100 {
		t.Errorf("WCC count = %d, too fragmented", wcc.Count)
	}
}

func TestTable4Topology(t *testing.T) {
	s := testStudy(t)
	ctx := context.Background()
	row := s.Topology(ctx)
	if row.Network != "Google+" || row.Nodes != 60_000 {
		t.Errorf("row = %+v", row)
	}
	if row.CrawledPercent != 100 {
		t.Errorf("ground-truth dataset crawled%% = %.1f", row.CrawledPercent)
	}
	if row.AvgDegree < 13 || row.AvgDegree > 20 {
		t.Errorf("avg degree = %.2f", row.AvgDegree)
	}

	tw, err := synth.GenerateBaseline(synth.TwitterLike, 20_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	twRow := s.BaselineTopology(ctx, "Twitter-like", tw)
	// Table 4 orderings: Google+ has higher reciprocity and longer paths
	// than Twitter, lower average degree.
	if row.Reciprocity <= twRow.Reciprocity {
		t.Errorf("G+ reciprocity %.3f should exceed Twitter-like %.3f", row.Reciprocity, twRow.Reciprocity)
	}
	if row.PathLength <= twRow.PathLength {
		t.Errorf("G+ path length %.2f should exceed Twitter-like %.2f", row.PathLength, twRow.PathLength)
	}
	if row.AvgDegree >= twRow.AvgDegree {
		t.Errorf("G+ avg degree %.1f should fall below Twitter-like %.1f", row.AvgDegree, twRow.AvgDegree)
	}
}

func TestFig6TopCountries(t *testing.T) {
	s := testStudy(t)
	top := s.TopCountries(10)
	if len(top) != 10 {
		t.Fatalf("got %d countries", len(top))
	}
	if top[0].Country != "XX" && top[0].Country != "US" {
		t.Errorf("top country = %s", top[0].Country)
	}
	// Drop the "Other" bucket and verify the paper's leaders.
	var named []CountryShare
	for _, c := range top {
		if c.Country != "XX" {
			named = append(named, c)
		}
	}
	if named[0].Country != "US" || named[1].Country != "IN" {
		t.Errorf("country order = %v, want US then IN", named)
	}
	if math.Abs(named[0].Fraction-0.3138) > 0.03 {
		t.Errorf("US fraction = %.3f, want ~0.31", named[0].Fraction)
	}
	var sum float64
	for _, c := range s.TopCountries(0) {
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("all fractions sum to %v", sum)
	}
}

func TestFig7Penetration(t *testing.T) {
	s := testStudy(t)
	pts := s.Penetration()
	if len(pts) < 15 {
		t.Fatalf("only %d reference countries with users", len(pts))
	}
	byCode := map[string]float64{}
	ipr := map[string]float64{}
	for _, p := range pts {
		byCode[p.Code] = p.GPR
		ipr[p.Code] = p.IPR
	}
	// Figure 7(a): India's GPR tops the US despite lower GDP; Japan's
	// GPR is depressed versus its Internet penetration.
	if byCode["IN"] <= byCode["US"] {
		t.Errorf("IN GPR %.2e should exceed US %.2e", byCode["IN"], byCode["US"])
	}
	if byCode["JP"] >= byCode["GB"] {
		t.Errorf("JP GPR %.2e should fall below GB %.2e (domestic networks dominate)", byCode["JP"], byCode["GB"])
	}
	if ipr["JP"] <= ipr["IN"] {
		t.Errorf("JP IPR should exceed IN IPR")
	}
}

func TestTable5Occupations(t *testing.T) {
	s := testStudy(t)
	rows := s.TopOccupationsByCountry(10)
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	var us *CountryOccupations
	for i := range rows {
		if rows[i].Country == "US" {
			us = &rows[i]
		}
		if rows[i].Jaccard < 0 || rows[i].Jaccard > 1 {
			t.Errorf("%s Jaccard = %v", rows[i].Country, rows[i].Jaccard)
		}
		if len(rows[i].Codes) == 0 {
			t.Errorf("%s has no ranked users", rows[i].Country)
		}
	}
	if us == nil {
		t.Fatal("US row missing")
	}
	if us.Jaccard != 1 {
		t.Errorf("US self-Jaccard = %v, want 1", us.Jaccard)
	}
	if len(us.Codes) != 10 {
		t.Errorf("US has %d top users, want 10", len(us.Codes))
	}
}

func TestFig9PathMiles(t *testing.T) {
	s := testStudy(t)
	pm := s.PathMiles()
	if len(pm.Friends) == 0 || len(pm.Reciprocal) == 0 || len(pm.Random) == 0 {
		t.Fatalf("empty populations: %d/%d/%d", len(pm.Friends), len(pm.Reciprocal), len(pm.Random))
	}
	med := func(vals []float64) float64 { return stats.Quantile(vals, 0.5) }
	friendMed, recipMed, randMed := med(pm.Friends), med(pm.Reciprocal), med(pm.Random)
	// Figure 9(a): friends live far closer than random pairs; reciprocal
	// pairs are the closest of all.
	if friendMed >= randMed/2 {
		t.Errorf("friend median %.0f mi not well below random median %.0f mi", friendMed, randMed)
	}
	if recipMed > friendMed {
		t.Errorf("reciprocal median %.0f mi above friend median %.0f mi", recipMed, friendMed)
	}
}

func TestFig9bAveragePathMiles(t *testing.T) {
	s := testStudy(t)
	rows := s.AveragePathMiles()
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.N == 0 {
			t.Errorf("%s has no friend pairs", r.Country)
			continue
		}
		if r.Mean < 0 || r.Stddev < 0 {
			t.Errorf("%s summary invalid: %+v", r.Country, r.Summary)
		}
	}
}

func TestFig10CountryLinks(t *testing.T) {
	s := testStudy(t)
	m := s.CountryLinks()
	if len(m.Countries) != 10 {
		t.Fatalf("got %d countries", len(m.Countries))
	}
	for i, row := range m.Weight {
		var sum float64
		for _, w := range row {
			if w < 0 {
				t.Fatalf("negative weight in row %d", i)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %s sums to %v", m.Countries[i], sum)
		}
	}
	// Figure 10: the US and the big non-English countries are inward
	// looking; the UK and Canada send most links abroad (largely to the
	// US).
	usLoop := m.SelfLoop("US")
	if usLoop < 0.5 {
		t.Errorf("US self-loop = %.2f, want >= 0.5 (paper 0.79)", usLoop)
	}
	for _, c := range []string{"GB", "CA"} {
		if loop := m.SelfLoop(c); loop >= usLoop {
			t.Errorf("%s self-loop %.2f should fall below US %.2f", c, loop, usLoop)
		}
	}
	if m.SelfLoop("IN") <= m.SelfLoop("GB") {
		t.Errorf("IN self-loop %.2f should exceed GB %.2f", m.SelfLoop("IN"), m.SelfLoop("GB"))
	}
	var shareSum float64
	for _, sh := range m.UserShare {
		shareSum += sh
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("user shares sum to %v", shareSum)
	}
}

func TestFig8OpennessByCountry(t *testing.T) {
	s := testStudy(t)
	rows := s.FieldsByCountry(nil)
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.N == 0 {
			t.Errorf("%s has no located users", r.Country)
		}
		// Conditioning on places-lived makes 2 the minimum field count.
		if len(r.CCDF) > 0 && r.CCDF[0].X < 2 {
			t.Errorf("%s minimum fields = %v, want >= 2", r.Country, r.CCDF[0].X)
		}
	}
	// Figure 8 ordering: Indonesia and Mexico most open, Germany most
	// conservative.
	openness := map[string]float64{}
	for _, r := range rows {
		openness[r.Country] = r.Openness(6)
	}
	id, de, us := openness["ID"], openness["DE"], openness["US"]
	if id <= de {
		t.Errorf("ID openness %.3f should exceed DE %.3f", id, de)
	}
	if us <= de {
		t.Errorf("US openness %.3f should exceed DE %.3f", us, de)
	}
}

func TestLostEdgesZeroOnGroundTruth(t *testing.T) {
	s := testStudy(t)
	est := s.LostEdges(10_000)
	// The ground-truth dataset has no cap: declared == realized, so no
	// losses are reported.
	if est.UsersOverCap != 0 && est.DeclaredEdges != est.FoundEdges {
		t.Errorf("ground truth should have no lost edges: %+v", est)
	}
	if est.LostFraction != 0 {
		t.Errorf("lost fraction = %v, want 0", est.LostFraction)
	}
}
