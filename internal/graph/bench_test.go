package graph

import (
	"context"
	"math/rand/v2"
	"testing"
)

// benchGraph builds a 50k-node, ~500k-edge preferential-style graph once.
var benchG *Graph

func benchGraphOnce(b *testing.B) *Graph {
	b.Helper()
	if benchG == nil {
		rng := rand.New(rand.NewPCG(1, 2))
		const n = 50_000
		bld := NewBuilder(n, n*10)
		for i := 0; i < n; i++ {
			d := 1 + rng.IntN(20)
			for e := 0; e < d; e++ {
				// Mildly preferential: half the edges land in the first 5%.
				var v NodeID
				if rng.IntN(2) == 0 {
					v = NodeID(rng.IntN(n / 20))
				} else {
					v = NodeID(rng.IntN(n))
				}
				bld.AddEdge(NodeID(i), v)
			}
		}
		benchG = bld.Build()
	}
	return benchG
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 20_000
	edges := make([]NodeID, 0, n*8*2)
	for i := 0; i < n*8; i++ {
		edges = append(edges, NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n, len(edges)/2)
		for j := 0; j < len(edges); j += 2 {
			bld.AddEdge(edges[j], edges[j+1])
		}
		_ = bld.Build()
	}
}

func BenchmarkBFSDistances(b *testing.B) {
	g := benchGraphOnce(b)
	var dist []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = BFSDistances(g, NodeID(i%g.NumNodes()), Directed, dist)
	}
}

func BenchmarkSCC(b *testing.B) {
	g := benchGraphOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SCC(g)
	}
}

func BenchmarkWCC(b *testing.B) {
	g := benchGraphOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WCC(g, 1)
	}
}

func BenchmarkGlobalReciprocity(b *testing.B) {
	g := benchGraphOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GlobalReciprocity(g, 1)
	}
}

func BenchmarkClusteringCoefficient(b *testing.B) {
	g := benchGraphOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ClusteringCoefficient(g, NodeID(i%g.NumNodes()))
	}
}

func BenchmarkSamplePathLengthsSerial(b *testing.B) {
	benchmarkPaths(b, 1)
}

func BenchmarkSamplePathLengthsParallel4(b *testing.B) {
	benchmarkPaths(b, 4)
}

func benchmarkPaths(b *testing.B, par int) {
	g := benchGraphOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SamplePathLengths(context.Background(), g, Directed, PathLengthOptions{
			MinSources: 64, MaxSources: 64, Parallelism: par,
			Rand: rand.New(rand.NewPCG(5, 5)),
		})
	}
}

// BenchmarkIntersect pits sortedIntersectionSize (which gallops once
// one list is gallopSkewFactor× the other) against a pure linear merge
// on the shape the skew matters for: a node's short out-row counted
// against a celebrity-sized in-row. The "balanced" case pins that the
// galloping branch costs nothing when it does not trigger.
func BenchmarkIntersect(b *testing.B) {
	mk := func(n, stride int) []NodeID {
		s := make([]NodeID, n)
		for i := range s {
			s[i] = NodeID(i * stride)
		}
		return s
	}
	linear := func(a, bs []NodeID) int {
		c, i, j := 0, 0, 0
		for i < len(a) && j < len(bs) {
			switch {
			case a[i] < bs[j]:
				i++
			case a[i] > bs[j]:
				j++
			default:
				c++
				i++
				j++
			}
		}
		return c
	}
	cases := []struct {
		name   string
		na, nb int
	}{
		{"balanced/1kx1k", 1_000, 1_000},
		{"skewed/32x100k", 32, 100_000},
		{"skewed/8x1M", 8, 1_000_000},
	}
	for _, c := range cases {
		// The short list spreads across the long list's whole value
		// range: the regime where a linear merge must walk the entire
		// long list but galloping skips ahead.
		a := mk(c.na, 3*c.nb/c.na+1)
		bl := mk(c.nb, 3)
		b.Run(c.name+"/gallop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sortedIntersectionSize(a, bl)
			}
		})
		b.Run(c.name+"/linear", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = linear(a, bl)
			}
		})
	}
}

func BenchmarkTopByInDegree(b *testing.B) {
	g := benchGraphOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopByInDegree(g, 20, 1)
	}
}
