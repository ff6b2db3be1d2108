package diskcsr

import (
	"reflect"
	"slices"
	"testing"

	"gplus/internal/graph"
)

// knownAnswer is a graph whose Figure 4 integers follow from its shape
// (or, for the karate club, from the literature) rather than from a
// kernel of this repository: triangles per node in the undirected
// projection, the clustering numerator of every node (directed edges
// among its out-neighbors), the reciprocated out-edges of every node,
// and the triad census.
type knownAnswer struct {
	name      string
	g         *graph.Graph
	triangles int64
	perNode   []int64
	links     []int64
	shared    []int
	census    [graph.NumTriadClasses]int64
}

func constant[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func knownAnswers() []knownAnswer {
	// Zachary's karate club, 78 friendships as mutual edges (the fixture
	// internal/graph pins at 45 triangles): per-member triangle counts
	// and degrees as published with the dataset. On a symmetric digraph
	// every edge between two neighbors counts in both directions, so the
	// clustering numerator is twice the triangle count, and every
	// out-edge is reciprocated.
	karateEdges := [][2]graph.NodeID{
		{2, 1}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 3}, {5, 1}, {6, 1}, {7, 1}, {7, 5}, {7, 6},
		{8, 1}, {8, 2}, {8, 3}, {8, 4}, {9, 1}, {9, 3}, {10, 3}, {11, 1}, {11, 5}, {11, 6},
		{12, 1}, {13, 1}, {13, 4}, {14, 1}, {14, 2}, {14, 3}, {14, 4}, {17, 6}, {17, 7},
		{18, 1}, {18, 2}, {20, 1}, {20, 2}, {22, 1}, {22, 2}, {26, 24}, {26, 25},
		{28, 3}, {28, 24}, {28, 25}, {29, 3}, {30, 24}, {30, 27}, {31, 2}, {31, 9},
		{32, 1}, {32, 25}, {32, 26}, {32, 29},
		{33, 3}, {33, 9}, {33, 15}, {33, 16}, {33, 19}, {33, 21}, {33, 23}, {33, 24}, {33, 30}, {33, 31}, {33, 32},
		{34, 9}, {34, 10}, {34, 14}, {34, 15}, {34, 16}, {34, 19}, {34, 20}, {34, 21}, {34, 23}, {34, 24},
		{34, 27}, {34, 28}, {34, 29}, {34, 30}, {34, 31}, {34, 32}, {34, 33},
	}
	karate := graph.NewBuilder(34, 2*len(karateEdges))
	for _, e := range karateEdges {
		karate.AddEdge(e[0]-1, e[1]-1)
		karate.AddEdge(e[1]-1, e[0]-1)
	}
	karateTriangles := []int64{
		18, 12, 11, 10, 2, 3, 3, 6, 5, 0, 2, 0, 1, 6, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 4, 1, 1, 1, 1, 1, 4, 3, 3, 13, 15,
	}
	karateDegrees := []int{
		16, 9, 10, 6, 3, 4, 4, 4, 5, 2, 3, 1, 2, 5, 2, 2, 2,
		2, 2, 3, 2, 2, 2, 5, 3, 3, 2, 4, 3, 4, 4, 6, 12, 17,
	}
	karateLinks := make([]int64, len(karateTriangles))
	for u, tri := range karateTriangles {
		karateLinks[u] = 2 * tri
	}

	// K7 as mutual edges: C(7,3) triangles, C(6,2) through each node,
	// and all 6·5 ordered neighbor pairs linked — every coefficient 1.
	const kn = 7
	complete := graph.NewBuilder(kn, kn*(kn-1))
	for u := 0; u < kn; u++ {
		for v := 0; v < kn; v++ {
			complete.AddEdge(graph.NodeID(u), graph.NodeID(v)) // the builder drops u == v
		}
	}

	// A binary out-tree and a directed ring close nothing.
	tree := graph.NewBuilder(15, 14)
	for v := 1; v < 15; v++ {
		tree.AddEdge(graph.NodeID((v-1)/2), graph.NodeID(v))
	}
	ring := graph.NewBuilder(12, 12)
	for u := 0; u < 12; u++ {
		ring.AddEdge(graph.NodeID(u), graph.NodeID((u+1)%12))
	}

	// The censuses, class by class. Karate is all mutual: its 528 wedges
	// hold 45·3 closed ones, so 393 open 201s; each of 78 dyads spans 32
	// triples, less two per 201 and three per 300; the rest of C(34,3)
	// is empty. The tree's 7 parents each source a 021D, its 6 inner
	// non-root nodes each sit mid-chain to two children, and its 14 arcs
	// span 13 triples each, two per connected triad already counted. The
	// ring's 12 consecutive triples are chains and each arc is alone
	// with the 8 nodes that touch neither end.
	type census = [graph.NumTriadClasses]int64
	return []knownAnswer{
		{"karate", karate.Build(), 45, karateTriangles, karateLinks, karateDegrees,
			census{graph.Triad300: 45, graph.Triad201: 393, graph.Triad102: 78*32 - 2*393 - 3*45, graph.Triad003: 5984 - 45 - 393 - 1575}},
		{"K7", complete.Build(), 35, constant[int64](kn, 15), constant[int64](kn, 30), constant(kn, kn-1),
			census{graph.Triad300: 35}},
		{"tree", tree.Build(), 0, make([]int64, 15), make([]int64, 15), make([]int, 15),
			census{graph.Triad021D: 7, graph.Triad021C: 12, graph.Triad012: 14*13 - 2*19, graph.Triad003: 455 - 19 - 144}},
		{"ring", ring.Build(), 0, make([]int64, 12), make([]int64, 12), make([]int, 12),
			census{graph.Triad021C: 12, graph.Triad012: 12 * 8, graph.Triad003: 220 - 12 - 96}},
		// The same undirected triangle twice. In the cycle every node has
		// one out-neighbor, so no pair to link; in the transitive
		// orientation node 0 points at both ends of the edge 1→2.
		{"3-cycle", graph.FromEdges(3, 0, 1, 1, 2, 2, 0), 1, []int64{1, 1, 1}, []int64{0, 0, 0}, make([]int, 3),
			census{graph.Triad030C: 1}},
		{"transitive", graph.FromEdges(3, 0, 1, 0, 2, 1, 2), 1, []int64{1, 1, 1}, []int64{1, 0, 0}, make([]int, 3),
			census{graph.Triad030T: 1}},
	}
}

// bruteFigure4 recounts a knownAnswer's integers by enumeration over arc
// probes: every node triple for triangles, every ordered pair of
// out-neighbors for links, every out-neighbor for reciprocation.
func bruteFigure4(g *graph.Graph) (perNode, links []int64, shared []int) {
	n := g.NumNodes()
	tied := func(a, b int) bool {
		return graph.HasArc(g, graph.NodeID(a), graph.NodeID(b)) || graph.HasArc(g, graph.NodeID(b), graph.NodeID(a))
	}
	perNode, links, shared = make([]int64, n), make([]int64, n), make([]int, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				if tied(a, b) && tied(b, c) && tied(a, c) {
					perNode[a]++
					perNode[b]++
					perNode[c]++
				}
			}
		}
		for _, v := range g.Out(graph.NodeID(a)) {
			if graph.HasArc(g, v, graph.NodeID(a)) {
				shared[a]++
			}
			for _, w := range g.Out(graph.NodeID(a)) {
				if graph.HasArc(g, v, w) {
					links[a]++
				}
			}
		}
	}
	return perNode, links, shared
}

// TestKnownAnswers runs the known-answer fixtures through the kernel
// matrix: the triad pass (triangles, census and the numerator of every
// node at once), the Cohen reference and the reciprocity scan must each
// reproduce the pinned integers — which brute-force enumeration confirms
// first, the census apart — and AllClustering and the per-node
// ClusteringCoefficient their ratios, over RAM, the mapped form and the
// hostile view of both, at every parallelism. An error shared by every
// kernel of the package would pass TestKernelEquivalence and fail here.
func TestKnownAnswers(t *testing.T) {
	for _, ka := range knownAnswers() {
		t.Run(ka.name, func(t *testing.T) {
			n := ka.g.NumNodes()
			perNode, links, shared := bruteFigure4(ka.g)
			if !reflect.DeepEqual(perNode, ka.perNode) || !reflect.DeepEqual(links, ka.links) || !reflect.DeepEqual(shared, ka.shared) {
				t.Fatalf("fixture disagrees with enumeration:\ntriangles %v\n    links %v\n   shared %v", perNode, links, shared)
			}
			// coeffs are the pinned numerators over k(k-1): 30/30 for
			// every node of K7.
			var coeffs []float64
			for u := range n {
				if k := ka.g.OutDegree(graph.NodeID(u)); k > 1 {
					coeffs = append(coeffs, float64(ka.links[u])/float64(k*(k-1)))
				}
			}
			views := matrixViews(t, ka.g)
			views["ram"] = ka.g
			for vname, v := range views {
				if got := coefficientsOf(v); !slices.Equal(got, coeffs) {
					t.Errorf("%s: ClusteringCoefficient = %v, want %v", vname, got, coeffs)
				}
				for _, par := range matrixParallelisms {
					triads := triadsOf(v, par)
					for _, res := range []*graph.TriangleResult{&triads.Triangles, graph.Triangles(v, graph.TriangleCohen, par)} {
						if res.Total != ka.triangles || !reflect.DeepEqual(res.PerNode, ka.perNode) {
							t.Errorf("%s P=%d %v: %d triangles %v, want %d %v", vname, par, res.Method, res.Total, res.PerNode, ka.triangles, ka.perNode)
						}
					}
					if !reflect.DeepEqual(triads.Links, ka.links) {
						t.Errorf("%s P=%d: Triads.Links = %v, want %v", vname, par, triads.Links, ka.links)
					}
					if triads.Census.Counts != ka.census {
						t.Errorf("%s P=%d: census %v, want %v", vname, par, triads.Census.Counts, ka.census)
					}
					if got := graph.ReciprocalCounts(v, par); !reflect.DeepEqual(got, ka.shared) {
						t.Errorf("%s P=%d: ReciprocalCounts = %v, want %v", vname, par, got, ka.shared)
					}
					if got := graph.AllClustering(v, par); !slices.Equal(got, coeffs) {
						t.Errorf("%s P=%d: AllClustering = %v, want %v", vname, par, got, coeffs)
					}
				}
			}
		})
	}
}
