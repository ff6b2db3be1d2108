package graph

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// analysisBenchG is the shared graph of the BenchmarkAnalysis* suite
// (go test -bench BenchmarkAnalysis): ~1M nodes with a preferential-attachment-style
// heavy tail, the regime the degree-balanced sharding exists for. Built
// lazily so ordinary `go test` runs never pay for it.
var analysisBenchG *Graph

func analysisGraphOnce(b *testing.B) *Graph {
	b.Helper()
	if analysisBenchG == nil {
		rng := rand.New(rand.NewPCG(42, 43))
		const n = 1_000_000
		bld := NewBuilder(n, n*8)
		for i := 0; i < n; i++ {
			d := 1 + rng.IntN(14)
			for e := 0; e < d; e++ {
				// Mildly preferential: half the edges land in the first 2%.
				var v NodeID
				if rng.IntN(2) == 0 {
					v = NodeID(rng.IntN(n / 50))
				} else {
					v = NodeID(rng.IntN(n))
				}
				bld.AddEdge(NodeID(i), v)
			}
		}
		analysisBenchG = bld.Build()
	}
	return analysisBenchG
}

// analysisParallelisms is the P sweep of the suite: serial, moderate,
// 8-way (the acceptance point), and whatever this machine has.
func analysisParallelisms() []int {
	ps := []int{1, 4, 8}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 4 && ncpu != 8 {
		ps = append(ps, ncpu)
	}
	return ps
}

func benchOverParallelisms(b *testing.B, run func(b *testing.B, par int)) {
	for _, par := range analysisParallelisms() {
		b.Run(fmt.Sprintf("p=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			run(b, par)
		})
	}
}

func BenchmarkAnalysisInDegrees(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = InDegrees(g, par)
		}
	})
}

func BenchmarkAnalysisTopByInDegree(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = TopByInDegree(g, 20, par)
		}
	})
}

func BenchmarkAnalysisAllReciprocities(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = AllReciprocities(g, par)
		}
	})
}

func BenchmarkAnalysisGlobalReciprocity(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = GlobalReciprocity(g, par)
		}
	})
}

func BenchmarkAnalysisWCC(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = WCC(g, par)
		}
	})
}

// SCC is serial (Tarjan), so the suite has one row for it; the p=1
// suffix keeps it named like the other rows' serial column.
func BenchmarkAnalysisSCC(b *testing.B) {
	g := analysisGraphOnce(b)
	b.Run("p=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SCC(g)
		}
	})
}

// The triangle suite skips the Cohen wedge-check reference on the
// 1M-node graph: its probe count is the full wedge total (~1e9 here), an
// order of magnitude past what the production kernel pays.

// BenchmarkAnalysisTriads times the one closed-triple enumeration
// alone, without the Triangles, Motifs or AllClustering views over it.
func BenchmarkAnalysisTriads(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			if _, err := Triads(context.Background(), g, par); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAnalysisTrianglesSandiaLL(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = Triangles(g, TriangleSandiaLL, par)
		}
	})
}

func BenchmarkAnalysisTrianglesAuto(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = Triangles(g, TriangleAuto, par)
		}
	})
}

func BenchmarkAnalysisMotifs(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = Motifs(g, par)
		}
	})
}

func BenchmarkAnalysisAllClustering(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = AllClustering(g, par)
		}
	})
}

func BenchmarkAnalysisPathLengths(b *testing.B) {
	g := analysisGraphOnce(b)
	benchOverParallelisms(b, func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			_ = SamplePathLengths(context.Background(), g, Directed, PathLengthOptions{
				MinSources: 16, MaxSources: 16, BatchSize: 16,
				Parallelism: par,
				Rand:        rand.New(rand.NewPCG(9, 10)),
			})
		}
	})
}
