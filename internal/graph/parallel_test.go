package graph

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// testGraphs returns a spread of shapes that exercise the parallel
// algorithms: cyclic, acyclic, disconnected, heavy-tailed, and empty.
func testGraphs() map[string]*Graph {
	rng := rand.New(rand.NewPCG(77, 78))
	star := NewBuilder(64, 0)
	for i := 1; i < 64; i++ {
		star.AddEdge(NodeID(i), 0) // celebrity head: all weight on node 0
		if i%3 == 0 {
			star.AddEdge(0, NodeID(i))
		}
	}
	chain := NewBuilder(40, 0)
	for i := 0; i < 39; i++ {
		chain.AddEdge(NodeID(i), NodeID(i+1))
	}
	return map[string]*Graph{
		"empty":    NewBuilder(0, 0).Build(),
		"triangle": triangle(),
		"isolated": FromEdges(6, 0, 1, 5, 0),
		"star":     star.Build(),
		"chain":    chain.Build(),
		"random":   randomGraph(300, 1200, rng),
		"sparse":   randomGraph(500, 600, rng),
	}
}

// TestParallelDeterminism is the package's determinism contract: every
// parallelized analysis must return byte-identical results at any
// parallelism level.
func TestParallelDeterminism(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			runs := map[string]func(par int) any{
				"InDegrees":         func(par int) any { return InDegrees(g, par) },
				"OutDegrees":        func(par int) any { return OutDegrees(g, par) },
				"TopByInDegree":     func(par int) any { return TopByInDegree(g, 10, par) },
				"AllReciprocities":  func(par int) any { return AllReciprocities(g, par) },
				"GlobalReciprocity": func(par int) any { return GlobalReciprocity(g, par) },
				"WCC":               func(par int) any { return WCC(g, par) },
				"SCC":               func(int) any { return SCC(g) },
				"AllClustering":     func(par int) any { return AllClustering(g, par) },
				"ReciprocalCounts":  func(par int) any { return ReciprocalCounts(g, par) },
				"TrianglesCohen":    func(par int) any { return Triangles(g, TriangleCohen, par) },
				"Triads":            func(par int) any { return triads(g, par) },
			}
			for algo, run := range runs {
				base := run(1)
				for _, par := range []int{4, 16} {
					if got := run(par); !reflect.DeepEqual(got, base) {
						t.Errorf("%s: parallelism %d diverged from serial:\n got %v\nwant %v",
							algo, par, got, base)
					}
				}
			}
		})
	}
}

// TestZeroValueGraph covers the regression where a zero-value Graph
// reported NumNodes() == -1, panicking the degree analyses, and the
// CSR check indexed off[0] of a nil slice; FromCSR, which never makes
// one, rejects every array shape but a graph's without indexing off
// the end.
func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if n := g.NumNodes(); n != 0 {
		t.Fatalf("zero-value NumNodes = %d, want 0", n)
	}
	if err := validate(&g); err != nil {
		t.Fatalf("zero-value graph: %v", err)
	}
	if d := InDegrees(&g, 4); len(d) != 0 {
		t.Fatalf("zero-value InDegrees = %v, want empty", d)
	}
	if d := OutDegrees(&g, 4); len(d) != 0 {
		t.Fatalf("zero-value OutDegrees = %v, want empty", d)
	}
	if top := TopByInDegree(&g, 3, 2); top != nil {
		t.Fatalf("zero-value TopByInDegree = %v, want nil", top)
	}
	if w := WCC(&g, 4); w.Count != 0 {
		t.Fatalf("zero-value WCC count = %d, want 0", w.Count)
	}
	if s := SCC(&g); s.Count != 0 {
		t.Fatalf("zero-value SCC count = %d, want 0", s.Count)
	}
	for _, off := range [][2][]int64{{nil, nil}, {nil, {0}}, {{0}, {0, 0}}, {{1}, {1}}} {
		if _, err := FromCSR(off[0], nil, off[1], nil); err == nil {
			t.Errorf("FromCSR accepted out offsets %v beside in offsets %v", off[0], off[1])
		}
	}
	if g, err := FromCSR([]int64{0}, nil, []int64{0}, nil); err != nil || g.NumNodes() != 0 {
		t.Errorf("FromCSR of a 0-node graph: %v", err)
	}
}

// TestWorkBoundsCoverAndBalance sanity-checks the degree-balanced
// sharding helper: bounds must partition [0, n) in order, and on a
// skewed graph no shard should hold nearly all the work.
func TestWorkBoundsCoverAndBalance(t *testing.T) {
	g := testGraphs()["star"]
	n := g.NumNodes()
	for _, par := range []int{1, 2, 4, 7, 64, 1000} {
		bounds := viewWorkBounds(g, par)
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("par=%d: bounds %v do not span [0,%d)", par, bounds, n)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("par=%d: bounds %v not monotonic", par, bounds)
			}
		}
	}
	// The star's node 0 carries ~2/3 of all edge stubs; a 4-way uniform
	// node split would leave shard 0 with almost all work, while the
	// degree-balanced split must cut right after the head.
	bounds := viewWorkBounds(g, 4)
	if bounds[1] != 1 {
		t.Fatalf("star workBounds(4) = %v, want first cut directly after the heavy node", bounds)
	}
}
