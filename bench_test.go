package gplus

// The benchmark harness: one benchmark per table and figure of the
// paper. Each benchmark times the analysis that regenerates the
// experiment and attaches its headline measurements as custom metrics,
// so a `go test -bench=. -benchmem` run reproduces the study's numbers
// alongside the cost of computing them.
//
// Scale: benchmarks run on a benchNodes-user universe (override with
// GPLUS_BENCH_NODES). Absolute numbers therefore differ from the paper's
// 35M-node crawl; EXPERIMENTS.md records the shape comparison.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"

	"gplus/internal/core"
	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

func benchNodes() int {
	if v := os.Getenv("GPLUS_BENCH_NODES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 50_000
}

var (
	benchOnce  sync.Once
	benchStudy *core.Study
	benchOpts  = core.Options{Seed: 2012, PathSources: 128, PairSample: 50_000}
)

// study lazily builds the shared ground-truth dataset and Study.
func study(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		u, err := synth.Generate(synth.DefaultConfig(benchNodes()))
		if err != nil {
			panic(err)
		}
		benchStudy = core.New(dataset.FromUniverse(u), benchOpts)
	})
	return benchStudy
}

// freshStudy is a new Study over the shared dataset. A Study computes
// each structural stage once, so a benchmark of one builds its Study
// inside the loop or it times a cache hit.
func freshStudy(b *testing.B) *core.Study {
	return core.New(study(b).Dataset(), benchOpts)
}

func BenchmarkGenerateUniverse(b *testing.B) {
	cfg := synth.DefaultConfig(20_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		u, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(graph.AvgDegree(u.Graph), "avg-degree")
		}
	}
}

func BenchmarkTable1TopUsers(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := s.TopUsers(20)
		if i == 0 {
			it := 0
			for _, row := range top {
				if row.Occupation.Code() == "IT" {
					it++
				}
			}
			b.ReportMetric(float64(it), "IT-of-top20")
			b.ReportMetric(float64(top[0].InDegree), "top-indegree")
		}
	}
}

func BenchmarkTable2Attributes(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := s.AttributeTable()
		if i == 0 {
			for _, r := range rows {
				if r.Attr.WireCode() == "places_lived" {
					b.ReportMetric(100*r.Fraction, "places-lived-%")
				}
			}
		}
	}
}

func BenchmarkTable3TelUsers(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmp := s.TelUsers()
		if i == 0 {
			b.ReportMetric(100*float64(cmp.TotalTel)/float64(cmp.TotalAll), "tel-users-%")
			b.ReportMetric(100*cmp.GenderTel.Share["Male"], "tel-male-%")
			b.ReportMetric(100*cmp.RelationshipTel.Share["Single"], "tel-single-%")
		}
	}
}

func BenchmarkTable4Topology(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := freshStudy(b).Topology(ctx)
		if i == 0 {
			b.ReportMetric(row.PathLength, "path-length")
			b.ReportMetric(100*row.Reciprocity, "reciprocity-%")
			b.ReportMetric(row.AvgDegree, "avg-degree")
			b.ReportMetric(float64(row.Diameter), "diameter")
		}
	}
}

func BenchmarkTable4Baselines(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, kind := range []synth.Baseline{synth.TwitterLike, synth.FacebookLike, synth.OrkutLike} {
			g, err := synth.GenerateBaseline(kind, 20_000, 1)
			if err != nil {
				b.Fatal(err)
			}
			row := s.BaselineTopology(ctx, kind.String(), g)
			if i == 0 && kind == synth.TwitterLike {
				b.ReportMetric(100*row.Reciprocity, "twitter-reciprocity-%")
			}
		}
	}
}

func BenchmarkTable5Occupations(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := s.TopOccupationsByCountry(10)
		if i == 0 {
			for _, r := range rows {
				if r.Country == "CA" {
					b.ReportMetric(r.Jaccard, "CA-jaccard")
				}
				if r.Country == "BR" {
					b.ReportMetric(r.Jaccard, "BR-jaccard")
				}
			}
		}
	}
}

func BenchmarkFig2FieldsCCDF(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fc := s.FieldsShared()
		if i == 0 {
			b.ReportMetric(stats.CCDFAt(fc.All, 7), "all-over6")
			b.ReportMetric(stats.CCDFAt(fc.Tel, 7), "tel-over6")
		}
	}
}

func BenchmarkFig3DegreeDist(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dd, err := freshStudy(b).Degrees()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(dd.InFit.Alpha, "in-alpha")
			b.ReportMetric(dd.OutFit.Alpha, "out-alpha")
			b.ReportMetric(dd.InFit.R2, "in-R2")
		}
	}
}

func BenchmarkFig4aReciprocity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := freshStudy(b).Reciprocity()
		if i == 0 {
			b.ReportMetric(100*rec.Global, "reciprocity-%")
			b.ReportMetric(100*rec.FractionAbove06, "RR-over-0.6-%")
		}
	}
}

func BenchmarkFig4bClustering(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := freshStudy(b).Clustering()
		if i == 0 {
			b.ReportMetric(cl.Mean, "mean-CC")
			b.ReportMetric(100*cl.FractionAbove02, "CC-over-0.2-%")
		}
	}
}

func BenchmarkFig4cSCC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scc := freshStudy(b).SCC()
		if i == 0 {
			b.ReportMetric(float64(scc.Count), "scc-count")
			b.ReportMetric(100*scc.GiantFraction, "giant-%")
		}
	}
}

func BenchmarkFig5PathLength(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl := freshStudy(b).PathLengths(ctx)
		if i == 0 {
			b.ReportMetric(pl.Directed.Mean(), "directed-avg")
			b.ReportMetric(pl.Undirected.Mean(), "undirected-avg")
			b.ReportMetric(float64(pl.Directed.Mode()), "directed-mode")
		}
	}
}

func BenchmarkFig6Countries(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := s.TopCountries(10)
		if i == 0 {
			for _, c := range top {
				if c.Country == "US" {
					b.ReportMetric(100*c.Fraction, "US-share-%")
				}
			}
		}
	}
}

func BenchmarkFig7Penetration(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := s.Penetration()
		if i == 0 {
			var in, us float64
			for _, p := range pts {
				switch p.Code {
				case "IN":
					in = p.GPR
				case "US":
					us = p.GPR
				}
			}
			if us > 0 {
				b.ReportMetric(in/us, "IN-GPR-over-US")
			}
		}
	}
}

func BenchmarkFig8CountryOpenness(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := s.FieldsByCountry(nil)
		if i == 0 {
			for _, row := range rows {
				if row.Country == "ID" || row.Country == "DE" {
					b.ReportMetric(row.Openness(6), row.Country+"-over6")
				}
			}
		}
	}
}

func BenchmarkFig9PathMiles(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pm := s.PathMiles()
		if i == 0 {
			b.ReportMetric(cdfUnder(pm.Friends, 1000), "friends-under-1000mi")
			b.ReportMetric(cdfUnder(pm.Random, 1000), "random-under-1000mi")
		}
	}
}

func BenchmarkFig10CountryLinks(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := s.CountryLinks()
		if i == 0 {
			b.ReportMetric(m.SelfLoop("US"), "US-selfloop")
			b.ReportMetric(m.SelfLoop("GB"), "GB-selfloop")
		}
	}
}

// BenchmarkLostEdges runs the §2.2 experiment end to end: a budgeted
// bidirectional crawl through a cap-enforcing HTTP service, then the
// lost-edge estimation over the collected dataset.
func BenchmarkLostEdges(b *testing.B) {
	cfg := synth.DefaultConfig(8_000)
	cfg.Seed = 404
	u, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const cap = 150
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{CircleCap: cap}))
	defer ts.Close()
	seed := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := crawlDataset(b, crawler.Config{
			BaseURL: ts.URL,
			Seeds:   []string{seed},
			Workers: 8,
			FetchIn: true, FetchOut: true,
		})
		est := core.New(ds, core.Options{Seed: 1}).LostEdges(cap)
		if i == 0 {
			b.ReportMetric(100*est.LostFraction, "lost-edges-%")
			b.ReportMetric(float64(est.UsersOverCap), "users-over-cap")
		}
	}
}

// BenchmarkServerThroughput measures end-to-end /people/* request
// latency at increasing client concurrency, with rate limiting and
// fault injection enabled — the fully armed hot path. ns/op should stay
// roughly flat from 1 to 16 clients (total throughput scales with the
// client count): fault decisions come from per-goroutine RNG streams
// and the rate limiter is striped per client key, so no global mutex
// serializes requests.
func BenchmarkServerThroughput(b *testing.B) {
	cfg := synth.DefaultConfig(5_000)
	cfg.Seed = 77
	u, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv := gplusd.New(u, gplusd.Options{
				RatePerSecond: 1e9, // enabled but never limiting: the bucket path runs on every request
				BurstSize:     1e9,
				Faults:        &gplusd.FaultSpec{Seed: 1, Rules: []gplusd.FaultRule{{Kind: gplusd.FaultUnavailable, Rate: 0.01}}},
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			per := b.N/clients + 1
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					t := http.DefaultTransport.(*http.Transport).Clone()
					t.MaxIdleConnsPerHost = 4
					hc := &http.Client{Transport: t}
					defer hc.CloseIdleConnections()
					id := "bench-client-" + strconv.Itoa(c)
					for i := 0; i < per; i++ {
						req, _ := http.NewRequest(http.MethodGet, ts.URL+"/people/"+u.IDs[i%len(u.IDs)], nil)
						req.Header.Set("X-Crawler-Id", id)
						resp, err := hc.Do(req)
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
						resp.Body.Close()
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// cdfUnder returns P(X < x) from raw samples.
func cdfUnder(vals []float64, x float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	n := 0
	for _, v := range vals {
		if v < x {
			n++
		}
	}
	return float64(n) / float64(len(vals))
}
