package graph

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// allTriangleMethods is the production kernel and its reference.
var allTriangleMethods = []TriangleMethod{TriangleCohen, TriangleSandiaLL}

// bruteTriangles counts triangles and per-node memberships in the
// undirected projection by cubic enumeration — the independent oracle
// every kernel must match.
func bruteTriangles(g *Graph) (int64, []int64) {
	n := g.NumNodes()
	adj := make([]map[NodeID]bool, n)
	for u := 0; u < n; u++ {
		adj[u] = map[NodeID]bool{}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(NodeID(u)) {
			adj[u][v] = true
			adj[v][NodeID(u)] = true
		}
	}
	per := make([]int64, n)
	var total int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !adj[a][NodeID(b)] {
				continue
			}
			for c := b + 1; c < n; c++ {
				if adj[a][NodeID(c)] && adj[b][NodeID(c)] {
					total++
					per[a]++
					per[b]++
					per[c]++
				}
			}
		}
	}
	return total, per
}

func TestTrianglesAgainstBruteForce(t *testing.T) {
	for name, g := range testGraphs() {
		wantTotal, wantPer := bruteTriangles(g)
		for _, m := range allTriangleMethods {
			res := Triangles(g, m, 4)
			if res.Method != m {
				t.Fatalf("%s/%v: resolved method %v", name, m, res.Method)
			}
			if res.Total != wantTotal {
				t.Errorf("%s/%v: Total = %d, want %d", name, m, res.Total, wantTotal)
			}
			if !reflect.DeepEqual(res.PerNode, wantPer) {
				t.Errorf("%s/%v: PerNode = %v, want %v", name, m, res.PerNode, wantPer)
			}
		}
	}
}

// TestTrianglesMethodsAgree is the cross-check matrix: the kernel
// against its reference, byte-identically, at P in {1, 4, 16}, across
// the fuzz graph shapes.
func TestTrianglesMethodsAgree(t *testing.T) {
	for name, g := range testGraphs() {
		var base *TriangleResult
		for _, m := range allTriangleMethods {
			for _, par := range []int{1, 4, 16} {
				res := Triangles(g, m, par)
				if base == nil {
					base = res
					continue
				}
				if res.Total != base.Total || res.Wedges != base.Wedges ||
					!reflect.DeepEqual(res.PerNode, base.PerNode) {
					t.Errorf("%s: %v at P=%d disagrees with %v: total %d vs %d",
						name, m, par, base.Method, res.Total, base.Total)
				}
			}
		}
	}
}

// TestTrianglesMatchClusteringCoefficient ties the kernels to the
// §3.3.3 pipeline: on a symmetrized graph, ClusteringCoefficient's
// numerator counts each neighbor-pair edge twice (once per direction),
// so PerNode[u] must equal clusteringLinks(sym, u)/2 and the
// coefficient itself must equal triangles over possible pairs.
func TestTrianglesMatchClusteringCoefficient(t *testing.T) {
	for name, g := range testGraphs() {
		u := buildUndirected(g, 4)
		n := u.numNodes()
		b := NewBuilder(n, 0)
		for v := 0; v < n; v++ {
			for _, w := range u.nbr(NodeID(v)) {
				b.AddEdge(NodeID(v), w)
			}
		}
		sym := b.Build()
		res := Triangles(g, TriangleAuto, 4)
		for v := 0; v < n; v++ {
			links := clusteringLinks(sym, sym, NodeID(v))
			if links%2 != 0 {
				t.Fatalf("%s: node %d: odd symmetric link count %d", name, v, links)
			}
			if got, want := res.PerNode[v], links/2; got != want {
				t.Errorf("%s: node %d: PerNode = %d, clusteringLinks/2 = %d", name, v, got, want)
			}
			if k := sym.OutDegree(NodeID(v)); k >= 2 {
				c, ok := ClusteringCoefficient(sym, NodeID(v))
				if !ok {
					t.Fatalf("%s: node %d: coefficient undefined at degree %d", name, v, k)
				}
				if want := 2 * float64(res.PerNode[v]) / float64(k*(k-1)); c != want {
					t.Errorf("%s: node %d: C = %v, triangle-derived %v", name, v, c, want)
				}
			}
		}
	}
}

func TestTrianglesQuickFuzz(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
		n := 2 + r.IntN(80)
		g := randomGraph(n, 1+r.IntN(5*n), r)
		wantTotal, wantPer := bruteTriangles(g)
		for _, m := range allTriangleMethods {
			res := Triangles(g, m, 1+r.IntN(8))
			if res.Total != wantTotal || !reflect.DeepEqual(res.PerNode, wantPer) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTriangleAutoResolves checks that auto reports the kernel that ran.
func TestTriangleAutoResolves(t *testing.T) {
	for name, g := range testGraphs() {
		res := Triangles(g, TriangleAuto, 4)
		if res.Method != TriangleSandiaLL {
			t.Errorf("%s: auto resolved to %v, want sandia-ll", name, res.Method)
		}
		wantTotal, _ := bruteTriangles(g)
		if res.Total != wantTotal {
			t.Errorf("%s: auto total = %d, want %d", name, res.Total, wantTotal)
		}
	}
}

func TestTriangleTransitivity(t *testing.T) {
	// K4 as mutual edges: 4 triangles, every wedge closes.
	b := NewBuilder(4, 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				b.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	res := Triangles(b.Build(), TriangleAuto, 2)
	if res.Total != 4 {
		t.Fatalf("K4 triangles = %d, want 4", res.Total)
	}
	if tr := res.Transitivity(); tr != 1 {
		t.Fatalf("K4 transitivity = %v, want 1", tr)
	}
	if tr := Triangles(testGraphs()["chain"], TriangleAuto, 2).Transitivity(); tr != 0 {
		t.Fatalf("chain transitivity = %v, want 0", tr)
	}
}

// TestBuildUndirected pins the projection: sorted, deduplicated,
// symmetric, self-loop free.
func TestBuildUndirected(t *testing.T) {
	for name, g := range testGraphs() {
		for _, par := range []int{1, 3, 16} {
			u := buildUndirected(g, par)
			if u.numNodes() != g.NumNodes() {
				t.Fatalf("%s: projection has %d nodes, graph %d", name, u.numNodes(), g.NumNodes())
			}
			for v := 0; v < u.numNodes(); v++ {
				nv := u.nbr(NodeID(v))
				if !sort.SliceIsSorted(nv, func(i, j int) bool { return nv[i] < nv[j] }) {
					t.Fatalf("%s: node %d neighbors unsorted: %v", name, v, nv)
				}
				for i, w := range nv {
					if i > 0 && nv[i-1] == w {
						t.Fatalf("%s: node %d duplicate neighbor %d", name, v, w)
					}
					if w == NodeID(v) {
						t.Fatalf("%s: node %d self-loop in projection", name, v)
					}
					if !u.hasEdge(w, NodeID(v)) {
						t.Fatalf("%s: edge {%d,%d} not symmetric", name, v, w)
					}
					if !HasArc(g, NodeID(v), w) && !HasArc(g, w, NodeID(v)) {
						t.Fatalf("%s: projected edge {%d,%d} absent from graph", name, v, w)
					}
				}
			}
		}
	}
}

// TestIntersectSortedGallop pins sortedIntersectionSize's galloping
// path against the linear merge on skewed, overlapping, and disjoint
// list pairs, in both argument orders.
func TestIntersectSortedGallop(t *testing.T) {
	linear := func(a, b []NodeID) int {
		c, i, j := 0, 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				c++
				i++
				j++
			}
		}
		return c
	}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0xc2b2ae35))
		short := make([]NodeID, r.IntN(6))
		long := make([]NodeID, gallopSkewFactor*8+r.IntN(200))
		for i := range short {
			short[i] = NodeID(r.IntN(500))
		}
		for i := range long {
			long[i] = NodeID(r.IntN(500))
		}
		slices.Sort(short)
		slices.Sort(long)
		short, long = slices.Compact(short), slices.Compact(long)
		want := linear(short, long)
		return sortedIntersectionSize(short, long) == want && sortedIntersectionSize(long, short) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClusteringEntryPoints pins both Figure 4(b) derivations against
// the per-node reference: ClusteringFromLinks over every node's
// clusteringLinks and AllClustering are the id-ordered coefficients of
// the nodes with out-degree > 1, and ClusteringByDegree is the C(k)
// curve a serial recomputation averages from them.
func TestClusteringEntryPoints(t *testing.T) {
	for name, g := range testGraphs() {
		var want []float64
		links := make([]int64, g.NumNodes())
		type agg struct {
			sum float64
			n   int
		}
		byDeg := map[int]*agg{}
		for u := 0; u < g.NumNodes(); u++ {
			links[u] = clusteringLinks(g, g, NodeID(u))
			k := g.OutDegree(NodeID(u))
			c, ok := ClusteringCoefficient(g, NodeID(u))
			if !ok {
				continue
			}
			want = append(want, c)
			if byDeg[k] == nil {
				byDeg[k] = &agg{}
			}
			byDeg[k].sum += c
			byDeg[k].n++
		}
		if got := ClusteringFromLinks(g, links); !slices.Equal(got, want) {
			t.Errorf("%s: ClusteringFromLinks differs from the per-node coefficients", name)
		}
		if got := AllClustering(g, 4); !slices.Equal(got, want) {
			t.Errorf("%s: AllClustering differs from the per-node coefficients", name)
		}
		curve := ClusteringByDegree(g, links)
		if len(curve) != len(byDeg) {
			t.Fatalf("%s: %d degree buckets, want %d", name, len(curve), len(byDeg))
		}
		for i, d := range curve {
			w := byDeg[d.Degree]
			if w == nil || d.N != w.n || (i > 0 && curve[i-1].Degree >= d.Degree) {
				t.Fatalf("%s: bucket k=%d N=%d unexpected", name, d.Degree, d.N)
			}
			if diff := d.Mean - w.sum/float64(w.n); diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s: k=%d mean %v, want %v", name, d.Degree, d.Mean, w.sum/float64(w.n))
			}
		}
	}
}
