package gplus

// The two root benchmarks that run a service: the §2.2 lost-edge crawl
// (`make ablations`, beside the ablations and the seed-sensitivity
// crawls) and the serving hot path (`BenchmarkServerThroughput`). Every table
// and figure of the study is printed by `gplusanalyze`, and
// `make experiments` writes what it prints into EXPERIMENTS.md.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"gplus/internal/core"
	"gplus/internal/crawler"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/synth"
)

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
