package core

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/synth"
)

// TestPartialCrawlReproducesPaperSCCShape reproduces the §2.2/§3.3.4
// situation end to end: a budget-limited bidirectional crawl through a
// cap-enforcing service yields a dataset whose giant SCC covers a
// fraction of the discovered nodes (the paper: 70% of 35.1M), with the
// frontier forming a sea of tiny components, and whose truncated circle
// lists produce a small lost-edge estimate.
func TestPartialCrawlReproducesPaperSCCShape(t *testing.T) {
	cfg := synth.DefaultConfig(12_000)
	cfg.Seed = 5150
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const circleCap = 200
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{CircleCap: circleCap}))
	defer ts.Close()

	seed := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	tmp := t.TempDir()
	sink, err := dataset.NewSegmentSink(filepath.Join(tmp, ".segments"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawler.Crawl(context.Background(), crawler.Config{
		BaseURL:     ts.URL,
		Seeds:       []string{seed},
		Workers:     8,
		MaxProfiles: 1_800, // ~15% of the population; most stays frontier
		FetchIn:     true, FetchOut: true,
		EdgeSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromCrawlSegments(res, sink, filepath.Join(tmp, "data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s := New(ds, Options{Seed: 9, PathSources: 32, PairSample: 5_000})

	if ds.NumCrawled() >= ds.NumUsers() {
		t.Fatalf("no uncrawled frontier: %d of %d", ds.NumCrawled(), ds.NumUsers())
	}

	scc := s.SCC()
	t.Logf("crawled %d of %d discovered users: %d SCCs, giant %.1f%% of the nodes",
		ds.NumCrawled(), ds.NumUsers(), scc.Count, 100*scc.GiantFraction)
	if scc.GiantFraction >= 0.92 || scc.GiantFraction <= 0.4 {
		t.Errorf("partial-crawl giant SCC = %.2f, want a substantial but partial fraction (paper 0.70)",
			scc.GiantFraction)
	}
	// One-way frontier nodes are singleton components: thousands of tiny
	// SCCs surround the giant (the paper: 9.77M components).
	if scc.Count < 1000 {
		t.Errorf("SCC count = %d, want >= 1000", scc.Count)
	}

	// Lost edges (§2.2): users whose in-lists were truncated declare more
	// than was collected; the bidirectional crawl recovers most, so the
	// estimate stays a small fraction.
	est := s.LostEdges(circleCap)
	if est.UsersOverCap == 0 {
		t.Fatal("no users over the circle cap; cap too high for this universe")
	}
	if est.DeclaredEdges <= est.FoundEdges {
		t.Errorf("declared %d should exceed found %d for capped users", est.DeclaredEdges, est.FoundEdges)
	}
	if est.LostFraction <= 0 || est.LostFraction > 0.2 {
		t.Errorf("lost fraction = %.4f, want small positive (paper 0.016)", est.LostFraction)
	}

	// Table 4's %-crawled column.
	row := s.Topology(context.Background())
	if row.CrawledPercent >= 100 || row.CrawledPercent <= 10 {
		t.Errorf("crawled%% = %.1f", row.CrawledPercent)
	}
}
