package graph

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

var allTriangleMethods = []TriangleMethod{
	TriangleBurkhardt, TriangleCohen, TriangleSandiaLL, TriangleSandiaUU,
}

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

// TestTrianglesMethodsAgree is the cross-check matrix the issue asks
// for: every method against every other, byte-identically, at P in
// {1, 4, 16}, across the fuzz graph shapes.
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
		u := buildUndirected(g, 4, false)
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
			links := int64(clusteringLinks(sym, sym, NodeID(v)))
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

// TestTriangleAutoResolves checks the selector picks a real kernel and
// that its pick matches the documented shape rules on the extremes.
func TestTriangleAutoResolves(t *testing.T) {
	for name, g := range testGraphs() {
		res := Triangles(g, TriangleAuto, 4)
		if res.Method == TriangleAuto {
			t.Errorf("%s: auto did not resolve", name)
		}
		wantTotal, _ := bruteTriangles(g)
		if res.Total != wantTotal {
			t.Errorf("%s: auto total = %d, want %d", name, res.Total, wantTotal)
		}
	}
	// Every test graph is wedge-light, so auto must take the probe
	// kernel there; the skew/oriented branches are exercised directly.
	small := testGraphs()["random"]
	if m := Triangles(small, TriangleAuto, 2).Method; m != TriangleCohen {
		t.Errorf("wedge-light graph resolved to %v, want cohen", m)
	}
	u := buildUndirected(small, 1, false)
	if m := resolveTriangleMethod(u, cohenWedgeBudget+1); m != TriangleBurkhardt {
		t.Errorf("low-skew graph past the wedge budget resolved to %v, want burkhardt", m)
	}
	star := buildUndirected(testGraphs()["star"], 1, false)
	if m := resolveTriangleMethod(star, cohenWedgeBudget+1); m != TriangleSandiaLL {
		t.Errorf("heavy-tailed graph past the wedge budget resolved to %v, want sandia-ll", m)
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
			u := buildUndirected(g, par, false)
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

// TestIntersectSortedGallop pins the galloping path against the linear
// merge on skewed, overlapping, and disjoint list pairs.
func TestIntersectSortedGallop(t *testing.T) {
	linear := func(a, b []NodeID) []NodeID {
		var out []NodeID
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				out = append(out, a[i])
				i++
				j++
			}
		}
		return out
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
		sortDedup := func(s []NodeID) []NodeID {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			out := s[:0]
			for i, v := range s {
				if i == 0 || s[i-1] != v {
					out = append(out, v)
				}
			}
			return out
		}
		short, long = sortDedup(short), sortDedup(long)
		// Both argument orders: positions must come back in the order
		// the lists went in, whichever one gallops.
		for _, pair := range [][2][]NodeID{{short, long}, {long, short}} {
			a, b := pair[0], pair[1]
			var got []NodeID
			intersectSorted(a, b, func(i, j int) {
				if a[i] != b[j] {
					t.Errorf("emitted positions (%d, %d) hold %d and %d", i, j, a[i], b[j])
				}
				got = append(got, a[i])
			})
			if !reflect.DeepEqual(got, linear(short, long)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSampleClusteringSizeContract pins the documented sampleSize
// semantics: negative selects nothing, zero and anything past the
// eligible count are the full id-ordered scan, and in-range sizes
// return exactly that many coefficients.
func TestSampleClusteringSizeContract(t *testing.T) {
	g := testGraphs()["random"]
	eligible := 0
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(NodeID(u)) > 1 {
			eligible++
		}
	}
	if eligible == 0 {
		t.Fatal("random test graph has no eligible nodes")
	}
	full := AllClustering(g, 4)
	if len(full) != eligible {
		t.Fatalf("AllClustering returned %d coefficients, want %d", len(full), eligible)
	}
	if got := SampleClustering(g, -1, nil, 4); got != nil {
		t.Errorf("sampleSize=-1: got %d coefficients, want nil", len(got))
	}
	// rng must be unused on the full-scan paths: nil would panic if
	// consulted.
	if got := SampleClustering(g, 0, nil, 4); !reflect.DeepEqual(got, full) {
		t.Errorf("sampleSize=0 differs from the full scan")
	}
	if got := SampleClustering(g, eligible, rand.New(rand.NewPCG(1, 2)), 4); len(got) != eligible {
		t.Errorf("sampleSize=eligible: got %d coefficients, want %d", len(got), eligible)
	}
	if got := SampleClustering(g, eligible+100, nil, 4); !reflect.DeepEqual(got, full) {
		t.Errorf("sampleSize>eligible differs from the full scan")
	}
	if got := SampleClustering(g, 7, rand.New(rand.NewPCG(1, 2)), 4); len(got) != 7 {
		t.Errorf("sampleSize=7: got %d coefficients", len(got))
	}
}

// TestAllClusteringMatchesSample pins AllClustering == the sampled
// path's full-scan mode, and the exact C(k) curve against a serial
// recomputation.
func TestAllClusteringMatchesSample(t *testing.T) {
	for name, g := range testGraphs() {
		all := AllClustering(g, 4)
		if got := SampleClustering(g, 0, nil, 4); !reflect.DeepEqual(got, all) {
			t.Errorf("%s: AllClustering != SampleClustering full scan", name)
		}
		byDeg := ClusteringByDegree(g, 4)
		type agg struct {
			sum float64
			n   int
		}
		want := map[int]*agg{}
		for u := 0; u < g.NumNodes(); u++ {
			if c, ok := ClusteringCoefficient(g, NodeID(u)); ok {
				k := g.OutDegree(NodeID(u))
				if want[k] == nil {
					want[k] = &agg{}
				}
				want[k].sum += c
				want[k].n++
			}
		}
		if len(byDeg) != len(want) {
			t.Fatalf("%s: %d degree buckets, want %d", name, len(byDeg), len(want))
		}
		for _, d := range byDeg {
			w := want[d.Degree]
			if w == nil || d.N != w.n {
				t.Fatalf("%s: bucket k=%d N=%d unexpected", name, d.Degree, d.N)
			}
			if diff := d.Mean - w.sum/float64(w.n); diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s: k=%d mean %v, want %v", name, d.Degree, d.Mean, w.sum/float64(w.n))
			}
		}
		var wantWedges int64
		for u := 0; u < g.NumNodes(); u++ {
			d := int64(g.OutDegree(NodeID(u)))
			wantWedges += d * (d - 1)
		}
		if got := WedgeCount(g, 4); got != wantWedges {
			t.Errorf("%s: WedgeCount = %d, want %d", name, got, wantWedges)
		}
	}
}
