package dataset

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gplus/internal/crawler"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

// TestResolveCountriesFromRawPlaces runs the §4 pipeline the way the
// paper had to: crawl a service that exposes only raw place text and map
// coordinates (no country), then resolve countries on the analysis side
// and compare the recovered shares against ground truth.
func TestResolveCountriesFromRawPlaces(t *testing.T) {
	cfg := synth.DefaultConfig(8_000)
	cfg.Seed = 606
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{OmitGeocode: true}))
	defer ts.Close()
	seed := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	tmp := t.TempDir()
	sink, err := NewSegmentSink(filepath.Join(tmp, ".segments"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawler.Crawl(context.Background(), crawler.Config{
		BaseURL: ts.URL, Seeds: []string{seed}, Workers: 6,
		FetchIn: true, FetchOut: true,
		EdgeSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromCrawlSegments(res, sink, filepath.Join(tmp, "data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	// The served data carries no country identifiers.
	unresolvedBefore := 0
	for i := range ds.Profiles {
		if ds.Profiles[i].Public.Has(profile.AttrPlacesLived) {
			if ds.Profiles[i].CountryCode != "" {
				t.Fatal("server leaked a country despite OmitGeocode")
			}
			unresolvedBefore++
		}
	}
	if unresolvedBefore == 0 {
		t.Fatal("no located users in the crawl")
	}

	resolved := ds.ResolveCountries(600)
	if resolved == 0 {
		t.Fatal("resolution pipeline recovered nothing")
	}
	// Every reference-table resident resolves by name (the generator
	// writes country names); the "Other" users may or may not resolve by
	// coordinates.
	truthByID := make(map[string]string, u.NumUsers())
	for i, id := range u.IDs {
		truthByID[id] = u.HomeCountry[i]
	}
	var checked, correct int
	for i := range ds.Profiles {
		p := &ds.Profiles[i]
		if !p.Public.Has(profile.AttrPlacesLived) {
			continue
		}
		truth := truthByID[ds.IDs[i]]
		if truth == synth.OtherCountry {
			continue // scattered other-world users have no table country
		}
		checked++
		if p.CountryCode == truth {
			correct++
		}
	}
	if checked == 0 {
		t.Fatal("no table-country users to check")
	}
	if acc := float64(correct) / float64(checked); acc < 0.98 {
		t.Errorf("resolution accuracy = %.3f over %d users, want >= 0.98", acc, checked)
	}
}

func TestResolveCountriesCoordinateFallback(t *testing.T) {
	// A profile with an unknown place string but coordinates near Paris
	// resolves to FR through the centroid fallback.
	d := &Dataset{
		Graph:    graph.FromEdges(1, 0, 0), // no edges; single node
		Profiles: make([]profile.Profile, 1),
		IDs:      []string{"x"},
		Crawled:  []bool{true},
	}
	p := &d.Profiles[0]
	p.Public = p.Public.With(profile.AttrPlacesLived)
	p.Place = "Chez Moi"
	p.Loc.Lat, p.Loc.Lon = 48.9, 2.3
	if got := d.ResolveCountries(0); got != 1 {
		t.Fatalf("resolved %d, want 1", got)
	}
	if p.CountryCode != "FR" {
		t.Errorf("resolved to %q, want FR", p.CountryCode)
	}
	// Idempotent: already-resolved profiles are untouched.
	if got := d.ResolveCountries(0); got != 0 {
		t.Errorf("second pass resolved %d, want 0", got)
	}
}
