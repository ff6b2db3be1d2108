package gplus

// Ablation benchmarks: each one disables a single mechanism of the
// synthetic-universe generator and reports how the corresponding paper
// observable degrades. They document *why* the generator has each knob —
// run with `make ablations`.

import (
	"context"
	"path/filepath"
	"testing"

	"gplus/internal/core"
	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/synth"
	"net/http/httptest"
)

const ablationNodes = 30_000

func ablationStudy(b *testing.B, mutate func(*synth.Config)) *core.Study {
	b.Helper()
	cfg := synth.DefaultConfig(ablationNodes)
	cfg.Seed = 1234
	if mutate != nil {
		mutate(&cfg)
	}
	u, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return core.New(dataset.FromUniverse(u), core.Options{
		Seed: 5, PathSources: 64, PairSample: 20_000,
	})
}

// BenchmarkAblationCommunities shows that without tight communities the
// clustering coefficient of Figure 4(b) collapses.
func BenchmarkAblationCommunities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationStudy(b, nil).Clustering()
		without := ablationStudy(b, func(c *synth.Config) {
			c.CommunityAffinity = 0 // local picks spread over the country
			c.TriadicShare = 0      // and no triadic closure
		}).Clustering()
		if i == 0 {
			b.ReportMetric(100*with.FractionAbove02, "CC>0.2-with-%")
			b.ReportMetric(100*without.FractionAbove02, "CC>0.2-without-%")
		}
	}
}

// BenchmarkAblationDomesticPA shows that without domestic preferential
// attachment the Figure 10 self-loop structure flattens.
func BenchmarkAblationDomesticPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationStudy(b, nil).CountryLinks()
		without := ablationStudy(b, func(c *synth.Config) {
			c.PADomestic = 0
		}).CountryLinks()
		if i == 0 {
			b.ReportMetric(with.SelfLoop("US"), "US-selfloop-with")
			b.ReportMetric(without.SelfLoop("US"), "US-selfloop-without")
		}
	}
}

// BenchmarkAblationCelebrities shows that without the celebrity weight
// tail, Table 1's hub list loses its public figures and the in-degree
// tail shortens.
func BenchmarkAblationCelebrities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationStudy(b, nil)
		without := ablationStudy(b, func(c *synth.Config) {
			c.CelebrityFraction = 0
		})
		if i == 0 {
			b.ReportMetric(float64(with.TopUsers(1)[0].InDegree), "top-indegree-with")
			b.ReportMetric(float64(without.TopUsers(1)[0].InDegree), "top-indegree-without")
		}
	}
}

// BenchmarkAblationEdgeTypeReciprocation shows that flattening the
// per-edge-type reciprocation (every edge reciprocated with the same
// probability) destroys the coexistence of high per-node RR with low
// global reciprocity that Figure 4(a) and Table 4 report together.
func BenchmarkAblationEdgeTypeReciprocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationStudy(b, nil).Reciprocity()
		flat := ablationStudy(b, func(c *synth.Config) {
			// One flat probability everywhere.
			p := 0.19 // tuned to land the same global reciprocity
			c.ReciprocationLocal = p
			c.ReciprocationTriadic = p
			c.ReciprocationGlobal = p
			c.ReciprocationCelebrity = p
			c.CasualResponse = 1
		}).Reciprocity()
		if i == 0 {
			b.ReportMetric(100*with.FractionAbove06, "RR>0.6-typed-%")
			b.ReportMetric(100*flat.FractionAbove06, "RR>0.6-flat-%")
			b.ReportMetric(100*with.Global, "global-typed-%")
			b.ReportMetric(100*flat.Global, "global-flat-%")
		}
	}
}

// crawlDataset runs cfg the way gpluscrawl does: edges stream into a
// segment sink and are compacted into a mapped dataset under a temporary
// directory. The dataset is closed when the benchmark ends.
func crawlDataset(b *testing.B, cfg crawler.Config) *dataset.Dataset {
	b.Helper()
	dir := b.TempDir()
	sink, err := dataset.NewSegmentSink(filepath.Join(dir, ".segments"), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg.EdgeSink = sink
	res, err := crawler.Crawl(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.FromCrawlSegments(res, sink, filepath.Join(dir, "data"), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ds.Close() })
	return ds
}

// BenchmarkAblationUnidirectionalCrawl reproduces §2.2's motivation for
// the *bidirectional* BFS: crawling only out-circles loses the edges the
// in-circle lists would have recovered under the cap.
func BenchmarkAblationUnidirectionalCrawl(b *testing.B) {
	cfg := synth.DefaultConfig(6_000)
	cfg.Seed = 11
	u, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{CircleCap: 100}))
	defer ts.Close()
	seed := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]

	crawlEdges := func(fetchIn bool) int64 {
		return crawlDataset(b, crawler.Config{
			BaseURL: ts.URL,
			Seeds:   []string{seed},
			Workers: 8,
			FetchIn: fetchIn, FetchOut: true,
		}).View().NumEdges()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bidi := crawlEdges(true)
		uni := crawlEdges(false)
		if i == 0 {
			b.ReportMetric(float64(bidi), "edges-bidirectional")
			b.ReportMetric(float64(uni), "edges-out-only")
			b.ReportMetric(100*(1-float64(uni)/float64(bidi)), "edges-lost-%")
		}
	}
}

// BenchmarkSeedSensitivity runs the comparison the paper could not
// (§2.2: "We could not repeat the crawl with randomly chosen seed nodes,
// because numeric user IDs were not supported"): two budget-limited
// crawls from very different seeds — the most popular user versus an
// ordinary one — and measures how far apart the collected datasets land.
func BenchmarkSeedSensitivity(b *testing.B) {
	cfg := synth.DefaultConfig(10_000)
	cfg.Seed = 77
	u, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{}))
	defer ts.Close()

	popular := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	// An ordinary seed: a node with a median-ish degree.
	ordinary := ""
	for i := 0; i < u.NumUsers(); i++ {
		if u.Graph.OutDegree(graph.NodeID(i)) == 5 {
			ordinary = u.IDs[i]
			break
		}
	}
	if ordinary == "" {
		b.Fatal("no ordinary seed found")
	}

	crawlStudy := func(seed string) *core.Study {
		return core.New(crawlDataset(b, crawler.Config{
			BaseURL:     ts.URL,
			Seeds:       []string{seed},
			Workers:     8,
			MaxProfiles: 3_000,
			FetchIn:     true, FetchOut: true,
		}), core.Options{
			Seed: 3, PathSources: 32, PairSample: 5_000,
		})
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sPop := crawlStudy(popular)
		sOrd := crawlStudy(ordinary)
		if i == 0 {
			rPop, rOrd := sPop.Reciprocity().Global, sOrd.Reciprocity().Global
			b.ReportMetric(100*rPop, "reciprocity-popular-seed-%")
			b.ReportMetric(100*rOrd, "reciprocity-ordinary-seed-%")
			b.ReportMetric(sPop.Topology(context.Background()).AvgDegree, "avgdeg-popular-seed")
			b.ReportMetric(sOrd.Topology(context.Background()).AvgDegree, "avgdeg-ordinary-seed")
		}
	}
}
