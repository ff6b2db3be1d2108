package paper

import (
	"context"
	"strings"
	"testing"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

func TestChecksWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if c.ID == "" || c.Claim == "" {
			t.Fatalf("check missing id/claim: %+v", c)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate check id %q", c.ID)
		}
		seen[c.ID] = true
		if c.IsOrdering() {
			if c.Measure != nil {
				t.Errorf("%s: ordering check with Measure", c.ID)
			}
			continue
		}
		if c.Measure == nil {
			t.Fatalf("%s: value check without Measure", c.ID)
		}
		if c.Min >= c.Max {
			t.Errorf("%s: band [%v, %v] inverted", c.ID, c.Min, c.Max)
		}
		if c.Published < c.Min || c.Published > c.Max {
			t.Errorf("%s: published %v outside its own band [%v, %v]",
				c.ID, c.Published, c.Min, c.Max)
		}
	}
	if len(seen) < 20 {
		t.Errorf("only %d checks defined", len(seen))
	}
}

func TestEvaluateOnCalibratedUniverse(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(50_000))
	if err != nil {
		t.Fatal(err)
	}
	study := core.New(dataset.FromUniverse(u), core.Options{
		Seed: 2012, PathSources: 64, PairSample: 20_000,
	})
	results, err := Collect(context.Background(), study)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := Evaluate(results)
	if len(outcomes) != len(Checks()) {
		t.Fatalf("evaluated %d of %d checks", len(outcomes), len(Checks()))
	}
	failed := 0
	for _, o := range outcomes {
		if !o.Pass {
			failed++
			t.Errorf("check %s failed: paper %v, measured %v (%s)",
				o.Check.ID, o.Check.Published, o.Measured, o.Check.Claim)
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d reproduction checks failed on the calibrated universe", failed, len(outcomes))
	}
}

func TestEvaluateDetectsBrokenWorld(t *testing.T) {
	// A world with no reciprocation, no communities and no celebrities
	// must fail several checks — Evaluate is not vacuously green.
	cfg := synth.DefaultConfig(20_000)
	cfg.ReciprocationLocal = 0
	cfg.ReciprocationTriadic = 0
	cfg.ReciprocationGlobal = 0
	cfg.ReciprocationCelebrity = 0
	cfg.CasualResponse = 0
	cfg.CommunityAffinity = 0
	cfg.TriadicShare = 0
	cfg.CelebrityFraction = 0
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	study := core.New(dataset.FromUniverse(u), core.Options{
		Seed: 1, PathSources: 32, PairSample: 10_000,
	})
	results, err := Collect(context.Background(), study)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, o := range Evaluate(results) {
		if !o.Pass {
			failed++
		}
	}
	if failed < 3 {
		t.Errorf("broken world failed only %d checks; the audit is too lax", failed)
	}
}

// TestFig9RowsFailOnEmptyPopulation: a Figure 9(a) row whose population
// is empty says FAIL, never PASS and never a panic.
func TestFig9RowsFailOnEmptyPopulation(t *testing.T) {
	full := func() core.PathMileResult {
		pm := core.PathMileResult{Friends: []float64{300, 2000}, Reciprocal: []float64{100}, Random: []float64{5000}}
		pm.FriendsCDF, pm.ReciprocalCDF, pm.RandomCDF = stats.CDF(pm.Friends), stats.CDF(pm.Reciprocal), stats.CDF(pm.Random)
		return pm
	}
	rows := map[string]func(*Results) bool{}
	for _, c := range Checks() {
		if strings.HasPrefix(c.ID, "fig9/") {
			rows[c.ID] = c.Holds
		}
	}
	if len(rows) != 2 {
		t.Fatalf("%d fig9 rows, want 2", len(rows))
	}
	for id, holds := range rows {
		if !holds(&Results{PathMiles: full()}) {
			t.Errorf("%s fails on populations that satisfy it", id)
		}
	}
	empty := map[string]func(*core.PathMileResult){
		"friends":    func(pm *core.PathMileResult) { pm.Friends, pm.FriendsCDF = nil, nil },
		"reciprocal": func(pm *core.PathMileResult) { pm.Reciprocal, pm.ReciprocalCDF = nil, nil },
		"random":     func(pm *core.PathMileResult) { pm.Random, pm.RandomCDF = nil, nil },
	}
	reads := map[string][]string{
		"fig9/friends-closer":     {"friends", "random"},
		"fig9/reciprocal-closest": {"friends", "reciprocal"},
	}
	for id, pops := range reads {
		for _, pop := range pops {
			pm := full()
			empty[pop](&pm)
			if rows[id](&Results{PathMiles: pm}) {
				t.Errorf("%s passes with no %s pairs", id, pop)
			}
		}
	}
}
