package synth

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/stats"
)

// testUniverse is generated once and shared across tests; it is treated
// as read-only.
var (
	testUniverseOnce sync.Once
	testUniverseVal  *Universe
)

func testUniverse(t *testing.T) *Universe {
	t.Helper()
	testUniverseOnce.Do(func() {
		u, err := Generate(DefaultConfig(60_000))
		if err != nil {
			panic(err)
		}
		testUniverseVal = u
	})
	return testUniverseVal
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.OutDegreeAlpha = 1 },
		func(c *Config) { c.OutDegreeMin = 0.5 },
		func(c *Config) { c.OutDegreeCap = 0 },
		func(c *Config) { c.CasualFraction = 1.5 },
		func(c *Config) { c.CasualDegreeMax = 0 },
		func(c *Config) { c.InWeightAlpha = 0 },
		func(c *Config) { c.OrdinaryWeightCap = 1 },
		func(c *Config) { c.CelebrityFraction = -0.1 },
		func(c *Config) { c.CelebrityWeightMax = 10 },
		func(c *Config) { c.CommunityMin = 1 },
		func(c *Config) { c.CommunityMax = c.CommunityMin - 1 },
		func(c *Config) { c.CommunityAffinity = 2 },
		func(c *Config) { c.ReciprocationLocal = -1 },
		func(c *Config) { c.CasualResponse = 1.1 },
		func(c *Config) { c.SocialDegree = 0 },
		func(c *Config) { c.PAShareMin = 0.9; c.PAShareMax = 0.1 },
		func(c *Config) { c.TriadicShare = -0.2 },
		func(c *Config) { c.LocatedFraction = 1.2 },
		func(c *Config) { c.TelUserBase = -0.1 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig(100)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("Generate accepted invalid config (mutation %d)", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(3_000)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Profiles, b.Profiles) {
		t.Error("profiles differ across identical configs")
	}
	if !reflect.DeepEqual(a.Graph, b.Graph) {
		t.Error("graphs differ across identical configs")
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) {
		t.Error("IDs differ across identical configs")
	}
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Graph, c.Graph) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestUserIDsUniqueAndOpaque(t *testing.T) {
	u := testUniverse(t)
	seen := make(map[string]bool, len(u.IDs))
	for _, id := range u.IDs {
		if len(id) != 21 || id[0] != '1' {
			t.Fatalf("malformed id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestCalibrationStructural(t *testing.T) {
	u := testUniverse(t)
	g := u.Graph

	if avg := graph.AvgDegree(g); avg < 13 || avg > 20 {
		t.Errorf("avg degree = %.2f, want ~16.4 (band 13-20)", avg)
	}
	if rec := graph.GlobalReciprocity(g, 1); rec < 0.25 || rec > 0.45 {
		t.Errorf("global reciprocity = %.3f, want ~0.32 (band 0.25-0.45)", rec)
	}

	// Figure 4(a): the bulk of ordinary users keep high RR.
	rrs := graph.AllReciprocities(g, 1)
	over := 0
	for _, r := range rrs {
		if r > 0.6 {
			over++
		}
	}
	if frac := float64(over) / float64(len(rrs)); frac < 0.45 {
		t.Errorf("RR>0.6 fraction = %.3f, want >= 0.45 (paper ~0.6)", frac)
	}

	// Figure 4(b): a large minority of users with CC > 0.2.
	ccs := graph.AllClustering(g, 1)
	over = 0
	for _, c := range ccs {
		if c > 0.2 {
			over++
		}
	}
	if frac := float64(over) / float64(len(ccs)); frac < 0.25 || frac > 0.65 {
		t.Errorf("CC>0.2 fraction = %.3f, want ~0.4 (band 0.25-0.65)", frac)
	}

	// The fully generated universe is almost entirely one giant SCC; the
	// paper's 70% figure arises from partial crawling, reproduced by the
	// crawler tests.
	scc := graph.SCC(g)
	if f := scc.GiantFraction(); f < 0.9 {
		t.Errorf("ground-truth giant SCC fraction = %.3f, want >= 0.9", f)
	}
}

func TestCalibrationDegreeDistributions(t *testing.T) {
	u := testUniverse(t)
	g := u.Graph

	fin, err := stats.FitPowerLawCCDF(stats.CCDFInts(graph.InDegrees(g, 1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Alpha < 0.9 || fin.Alpha > 1.6 {
		t.Errorf("in-degree alpha = %.2f, want ~1.3 (band 0.9-1.6)", fin.Alpha)
	}
	if fin.R2 < 0.85 {
		t.Errorf("in-degree fit R2 = %.3f, want >= 0.85", fin.R2)
	}
	fout, err := stats.FitPowerLawCCDF(stats.CCDFInts(graph.OutDegrees(g, 1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fout.Alpha < 1.0 || fout.Alpha > 1.7 {
		t.Errorf("out-degree alpha = %.2f, want ~1.2 (band 1.0-1.7)", fout.Alpha)
	}
	if fout.R2 < 0.9 {
		t.Errorf("out-degree fit R2 = %.3f, want >= 0.9", fout.R2)
	}

	// §3.3.1: the out-degree curve drops sharply at the 5,000 cap; only
	// celebrities may pass it.
	for uID := 0; uID < g.NumNodes(); uID++ {
		if g.OutDegree(graph.NodeID(uID)) > u.Config.OutDegreeCap && !u.Celebrity[uID] {
			t.Fatalf("ordinary node %d exceeds the out-degree cap", uID)
		}
	}
}

func TestCalibrationProfiles(t *testing.T) {
	u := testUniverse(t)
	n := len(u.Profiles)

	var tel, located, genderShared, male, female int
	var telMale, telOver6, allOver6 int
	byCountry := map[string]int{}
	for i := range u.Profiles {
		p := &u.Profiles[i]
		if !p.Public.Has(profile.AttrName) {
			t.Fatal("name must always be public")
		}
		if p.Public.FieldCount() > 6 {
			allOver6++
		}
		if p.IsTelUser() {
			tel++
			if p.Gender == profile.GenderMale {
				telMale++
			}
			if p.Public.FieldCount() > 6 {
				telOver6++
			}
		}
		if p.HasLocation() {
			located++
			byCountry[p.CountryCode]++
		}
		if p.Public.Has(profile.AttrGender) {
			genderShared++
			switch p.Gender {
			case profile.GenderMale:
				male++
			case profile.GenderFemale:
				female++
			}
		}
	}

	if f := float64(tel) / float64(n); f < 0.0013 || f > 0.006 {
		t.Errorf("tel-user fraction = %.4f, want ~0.0026", f)
	}
	if f := float64(located) / float64(n); math.Abs(f-0.2675) > 0.02 {
		t.Errorf("located fraction = %.4f, want ~0.2675", f)
	}
	if f := float64(genderShared) / float64(n); math.Abs(f-0.9767) > 0.02 {
		t.Errorf("gender-shared fraction = %.4f, want ~0.9767", f)
	}
	if f := float64(male) / float64(male+female); math.Abs(f-0.6825) > 0.03 {
		t.Errorf("male share among disclosed = %.3f, want ~0.68", f)
	}
	// Table 3: tel-users skew male far beyond the base rate.
	if f := float64(telMale) / float64(tel); f < 0.78 {
		t.Errorf("tel-user male share = %.3f, want >= 0.78 (paper 0.86)", f)
	}
	// Figure 2: tel-users share far more fields.
	telFrac := float64(telOver6) / float64(tel)
	allFrac := float64(allOver6) / float64(n)
	if telFrac < 3*allFrac {
		t.Errorf("tel-user >6-fields fraction %.3f not >> all-user %.3f", telFrac, allFrac)
	}
	if allFrac < 0.03 || allFrac > 0.2 {
		t.Errorf("all-user >6-fields fraction = %.3f, want ~0.10", allFrac)
	}

	// Figure 6: US ~31% and IN ~17% of located users; top-10 ordering
	// roughly holds.
	us := float64(byCountry["US"]) / float64(located)
	in := float64(byCountry["IN"]) / float64(located)
	if math.Abs(us-0.3138) > 0.03 {
		t.Errorf("US share = %.3f, want ~0.3138", us)
	}
	if math.Abs(in-0.1671) > 0.03 {
		t.Errorf("IN share = %.3f, want ~0.1671", in)
	}
	if byCountry["US"] < byCountry["IN"] || byCountry["IN"] < byCountry["BR"] {
		t.Error("Figure 6 country ordering violated for US/IN/BR")
	}
}

func TestTopUsersAreCelebrities(t *testing.T) {
	u := testUniverse(t)
	top := graph.TopByInDegree(u.Graph, 20, 1)
	celebs := 0
	counts := make(map[profile.Occupation]int)
	for _, id := range top {
		if u.Celebrity[id] {
			celebs++
		}
		counts[u.Profiles[id].Occupation]++
	}
	if celebs < 14 {
		t.Errorf("top-20 contains only %d celebrities, want >= 14", celebs)
	}
	if counts[profile.OccupationOther] > 5 {
		t.Errorf("top-20 has %d uncoded occupations, want <= 5", counts[profile.OccupationOther])
	}
	// Table 1: IT figures are strongly over-represented among top users.
	if counts[profile.IT] < 2 {
		t.Errorf("top-20 IT count = %d, want >= 2 (paper: 7)", counts[profile.IT])
	}
}

func TestPaShareMonotonic(t *testing.T) {
	cfg := DefaultConfig(10)
	prev := -1.0
	for d := 1; d <= 10_000; d *= 2 {
		s := paShareFor(cfg, d)
		if s < cfg.PAShareMin-1e-9 || s > cfg.PAShareMax+1e-9 {
			t.Fatalf("paShare(%d) = %v outside bounds", d, s)
		}
		if s < prev {
			t.Fatalf("paShare not monotonic at d=%d", d)
		}
		prev = s
	}
}

func TestHomeCountryAssignedToEveryone(t *testing.T) {
	u := testUniverse(t)
	for i, c := range u.HomeCountry {
		if c == "" {
			t.Fatalf("user %d has no home country", i)
		}
	}
	// Location disclosure matches the public flag.
	for i := range u.Profiles {
		p := &u.Profiles[i]
		if p.Public.Has(profile.AttrPlacesLived) && p.CountryCode != u.HomeCountry[i] {
			t.Fatalf("user %d disclosed country %q != home %q", i, p.CountryCode, u.HomeCountry[i])
		}
		if !p.Public.Has(profile.AttrPlacesLived) && p.CountryCode != "" {
			t.Fatalf("user %d leaks country despite private places-lived", i)
		}
	}
}

func TestMixtureWeightsSumToOne(t *testing.T) {
	var sum float64
	for _, c := range countryMixture {
		if c.weight <= 0 {
			t.Errorf("country %s has non-positive weight", c.code)
		}
		sum += c.weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("country mixture sums to %v, want 1", sum)
	}
}

func TestGenerateBaselines(t *testing.T) {
	const n = 20_000
	gplus := testUniverse(t).Graph

	tw, err := GenerateBaseline(TwitterLike, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := GenerateBaseline(FacebookLike, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := GenerateBaseline(OrkutLike, n, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Table 4 orderings.
	twRec := graph.GlobalReciprocity(tw, 1)
	if twRec < 0.12 || twRec > 0.33 {
		t.Errorf("Twitter-like reciprocity = %.3f, want ~0.22", twRec)
	}
	if gRec := graph.GlobalReciprocity(gplus, 1); gRec <= twRec {
		t.Errorf("Google+ reciprocity %.3f must exceed Twitter-like %.3f", gRec, twRec)
	}
	if fbRec := graph.GlobalReciprocity(fb, 1); fbRec != 1 {
		t.Errorf("Facebook-like reciprocity = %.3f, want 1 (all links mutual)", fbRec)
	}
	if okRec := graph.GlobalReciprocity(ok, 1); okRec != 1 {
		t.Errorf("Orkut-like reciprocity = %.3f, want 1", okRec)
	}
	if graph.AvgDegree(fb) <= graph.AvgDegree(gplus) {
		t.Errorf("Facebook-like degree %.1f must exceed Google+ %.1f", graph.AvgDegree(fb), graph.AvgDegree(gplus))
	}
	if graph.AvgDegree(tw) <= graph.AvgDegree(gplus) {
		t.Errorf("Twitter-like degree %.1f must exceed Google+ %.1f", graph.AvgDegree(tw), graph.AvgDegree(gplus))
	}

	if _, err := GenerateBaseline(Baseline(99), n, 1); err == nil {
		t.Error("unknown baseline accepted")
	}
	if _, err := GenerateBaseline(TwitterLike, 0, 1); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestBaselineString(t *testing.T) {
	names := map[Baseline]string{
		TwitterLike: "Twitter-like", FacebookLike: "Facebook-like",
		OrkutLike: "Orkut-like", Baseline(99): "unknown",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}
