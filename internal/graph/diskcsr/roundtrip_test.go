package diskcsr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gplus/internal/durable"
	"gplus/internal/graph"
	"gplus/internal/synth"
)

// testGraphs mirrors the shape spread of internal/graph's fuzz suite:
// cyclic, acyclic, disconnected, heavy-tailed, and empty graphs.
func testGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewPCG(77, 78))
	star := graph.NewBuilder(64, 0)
	for i := 1; i < 64; i++ {
		star.AddEdge(graph.NodeID(i), 0)
		if i%3 == 0 {
			star.AddEdge(0, graph.NodeID(i))
		}
	}
	chain := graph.NewBuilder(40, 0)
	for i := 0; i < 39; i++ {
		chain.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0, 0).Build(),
		"triangle": graph.FromEdges(3, 0, 1, 1, 2, 2, 0),
		"isolated": graph.FromEdges(6, 0, 1, 5, 0),
		"star":     star.Build(),
		"chain":    chain.Build(),
		"random":   randomGraph(300, 1200, rng),
		"sparse":   randomGraph(500, 600, rng),
	}
}

func randomGraph(n, m int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	b.EnsureNode(graph.NodeID(n - 1))
	return b.Build()
}

// mustOpen writes g as v2 under dir and opens it fully verified.
func mustOpen(t testing.TB, dir string, g *graph.Graph) *Mapped {
	t.Helper()
	path := filepath.Join(dir, "graph.v2")
	if err := WriteGraph(path, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	m, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// viewsEqual compares two views row by row.
func viewsEqual(t *testing.T, want, got graph.View) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("size mismatch: want %d nodes/%d edges, got %d/%d",
			want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
	}
	for u := 0; u < want.NumNodes(); u++ {
		id := graph.NodeID(u)
		if want.OutDegree(id) != got.OutDegree(id) || want.InDegree(id) != got.InDegree(id) {
			t.Fatalf("node %d: degree mismatch", u)
		}
		if !rowsEqual(want.Out(id), got.Out(id)) {
			t.Fatalf("node %d: out rows differ: %v vs %v", u, want.Out(id), got.Out(id))
		}
		if !rowsEqual(want.In(id), got.In(id)) {
			t.Fatalf("node %d: in rows differ: %v vs %v", u, want.In(id), got.In(id))
		}
	}
}

func rowsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWriteOpenRoundtrip(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			m := mustOpen(t, t.TempDir(), g)
			viewsEqual(t, g, m)
			back, err := m.Materialize()
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if !reflect.DeepEqual(g, back) {
				t.Fatal("materialized graph differs from the original")
			}
		})
	}
}

// TestWorkPrefixMatchesGraph pins that both backends price sharding
// identically, so degree-balanced shard cuts (and with them, every
// kernel's work split) agree across backends.
func TestWorkPrefixMatchesGraph(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			m := mustOpen(t, t.TempDir(), g)
			for u := 0; u <= g.NumNodes(); u++ {
				if g.WorkPrefix(u) != m.WorkPrefix(u) {
					t.Fatalf("WorkPrefix(%d): graph %d, mapped %d", u, g.WorkPrefix(u), m.WorkPrefix(u))
				}
			}
		})
	}
}

// staleView is the kernel matrix's hostile View. Its Out and In panic,
// so a kernel that falls back to the allocating path fails; its cursors
// hand out private copies of each row and scribble over the copy handed
// out before in that direction, so a kernel that keeps a row across the
// next call in its direction — or shares one cursor between goroutines
// — reads garbage ids.
type staleView struct{ graph.View }

func (staleView) Out(graph.NodeID) []graph.NodeID { panic("kernel used the allocating path") }
func (staleView) In(graph.NodeID) []graph.NodeID  { panic("kernel used the allocating path") }

func (v staleView) Rows() graph.Rows { return &staleRows{inner: v.View.Rows()} }

// WorkPrefix keeps the wrapped view's shard cuts.
func (v staleView) WorkPrefix(u int) int64 { return v.View.(graph.WorkPrefixer).WorkPrefix(u) }

type staleRows struct {
	inner   graph.Rows
	out, in []graph.NodeID // the copies handed out last
}

func (r *staleRows) Out(u graph.NodeID) []graph.NodeID {
	r.out = handOut(r.out, r.inner.Out(u))
	return r.out
}

func (r *staleRows) In(u graph.NodeID) []graph.NodeID {
	r.in = handOut(r.in, r.inner.In(u))
	return r.in
}

func handOut(last, row []graph.NodeID) []graph.NodeID {
	for i := range last {
		last[i] = ^graph.NodeID(0)
	}
	return append([]graph.NodeID(nil), row...)
}

// matrixViews is the view axis of the kernel matrix: g behind the
// hostile view, g written out and mapped, the mapped form behind the
// hostile view, and g built the way a crawl builds it — segments under
// provisional ids, compacted through a Remap — and mapped.
func matrixViews(t *testing.T, g *graph.Graph) map[string]graph.View {
	m := mustOpen(t, t.TempDir(), g)
	return map[string]graph.View{"ram/stale": staleView{g}, "mapped": m, "mapped/stale": staleView{m}, "compacted": compactedView(t, g)}
}

// compactedView streams g's edges, each twice, into small segments
// under a seeded permutation of its ids, compacts them with the inverse
// permutation as Remap, and opens the result fully verified.
func compactedView(t *testing.T, g *graph.Graph) *Mapped {
	t.Helper()
	n := g.NumNodes()
	prov, remap := make([]graph.NodeID, n), make([]graph.NodeID, n)
	for node, p := range rand.New(rand.NewPCG(5, 6)).Perm(n) {
		prov[node], remap[p] = graph.NodeID(p), graph.NodeID(node)
	}
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segs")
	w, err := NewWriter(segDir, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for u := 0; u < n; u++ {
			for _, v := range g.Out(graph.NodeID(u)) {
				if err := w.Add(prov[u], prov[v]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "graph.v2")
	if _, err := Compact(segDir, out, CompactOptions{NumNodes: n, Remap: remap}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	m, err := Open(out, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// matrixParallelisms is the parallelism axis of the kernel matrix.
var matrixParallelisms = []int{1, 2, 3, 8}

// TestKernelEquivalence is the differential kernel matrix: every
// analysis kernel must give the in-RAM graph's answer over the mapped
// backend — written directly or compacted from segments — and over
// both backends behind staleView, at every parallelism level. The triad pass must also give, on each graph, the
// answers of the routes that share nothing with it: Cohen's triangles
// and the per-node ClusteringCoefficient of every node.
func TestKernelEquivalence(t *testing.T) {
	paths := func(v graph.View, dir graph.Direction, par int) any {
		return graph.SamplePathLengths(context.Background(), v, dir, graph.PathLengthOptions{
			MinSources: 8, MaxSources: 24, BatchSize: 8, Parallelism: par,
			Rand: rand.New(rand.NewPCG(3, 4)),
		})
	}
	kernels := map[string]func(v graph.View, par int) any{
		"InDegrees":         func(v graph.View, par int) any { return graph.InDegrees(v, par) },
		"OutDegrees":        func(v graph.View, par int) any { return graph.OutDegrees(v, par) },
		"TopByInDegree":     func(v graph.View, par int) any { return graph.TopByInDegree(v, 10, par) },
		"WCC":               func(v graph.View, par int) any { return graph.WCC(v, par) },
		"SCC":               func(v graph.View, _ int) any { return graph.SCC(v) },
		"ReciprocalCounts":  func(v graph.View, par int) any { return graph.ReciprocalCounts(v, par) },
		"AllReciprocities":  func(v graph.View, par int) any { return graph.AllReciprocities(v, par) },
		"GlobalReciprocity": func(v graph.View, par int) any { return graph.GlobalReciprocity(v, par) },
		"AllClustering":     func(v graph.View, par int) any { return graph.AllClustering(v, par) },
		"Triads":            func(v graph.View, par int) any { return triadsOf(v, par) },
		"TrianglesCohen":    func(v graph.View, par int) any { return graph.Triangles(v, graph.TriangleCohen, par) },
		"ClusteringByDegree": func(v graph.View, par int) any {
			return graph.ClusteringByDegree(v, triadsOf(v, par).Links)
		},
		"ClusteringCoefficient": func(v graph.View, _ int) any { return coefficientsOf(v) },
		"PathsDirected":         func(v graph.View, par int) any { return paths(v, graph.Directed, par) },
		"PathsUndirected":       func(v graph.View, par int) any { return paths(v, graph.Undirected, par) },
		"DiameterDirected": func(v graph.View, par int) any {
			return graph.DoubleSweepDiameter(context.Background(), v, graph.Directed, 3, rand.New(rand.NewPCG(7, 8)), par)
		},
		"DiameterUndirected": func(v graph.View, par int) any {
			return graph.DoubleSweepDiameter(context.Background(), v, graph.Undirected, 3, rand.New(rand.NewPCG(7, 8)), par)
		},
		"LinkedPairs": func(v graph.View, par int) any {
			// Every node asked about its next three, so each bucket
			// holds several questions and rows interleave across buckets.
			var pairs [][2]graph.NodeID
			for u := 0; u < v.NumNodes(); u++ {
				for d := 1; d <= 3; d++ {
					pairs = append(pairs, [2]graph.NodeID{graph.NodeID(u), graph.NodeID((u + d) % v.NumNodes())})
				}
			}
			linked := make([]bool, len(pairs))
			graph.LinkedPairs(v, pairs, linked, par)
			return linked
		},
	}
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			triads, cohen := triadsOf(g, 1), graph.Triangles(g, graph.TriangleCohen, 1)
			cohen.Method = triads.Triangles.Method
			if !reflect.DeepEqual(&triads.Triangles, cohen) {
				t.Errorf("Triads counts triangles %+v, the Cohen reference %+v", triads.Triangles, cohen)
			}
			if got, want := graph.ClusteringFromLinks(g, triads.Links), coefficientsOf(g); !slices.Equal(got, want) {
				t.Errorf("coefficients of Triads.Links = %v, ClusteringCoefficient = %v", got, want)
			}
			views := matrixViews(t, g)
			for kname, run := range kernels {
				want := run(g, 1)
				for vname, v := range views {
					for _, par := range matrixParallelisms {
						if got := run(v, par); !reflect.DeepEqual(want, got) {
							t.Errorf("%s over %s at P=%d diverged from RAM:\n got %v\nwant %v", kname, vname, par, got, want)
						}
					}
				}
			}
		})
	}
}

// triadsOf is graph.Triads under a context that is never cancelled.
func triadsOf(v graph.View, par int) *graph.TriadResult {
	res, err := graph.Triads(context.Background(), v, par)
	if err != nil {
		panic(err)
	}
	return res
}

// coefficientsOf is Figure 4(b) node by node: the ClusteringCoefficient
// of every node with out-degree > 1, in id order, by a wedge scan that
// shares nothing with Triads.
func coefficientsOf(v graph.View) []float64 {
	var cs []float64
	for u := range v.NumNodes() {
		if c, ok := graph.ClusteringCoefficient(v, graph.NodeID(u)); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// TestTriadsAllocationShape pins what the triad pass holds: the ranked
// half of the projection, filled at degree offsets into one 4-byte word
// per projection degree (8 bytes an undirected edge), and a handful of
// per-node arrays, never the projection itself. The bound is in bytes
// allocated by one call at P=1, over RAM and mapped.
func TestTriadsAllocationShape(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(20_000))
	if err != nil {
		t.Fatal(err)
	}
	g := u.Graph
	census := graph.Motifs(g, 1)
	bound := uint64(8*(census.MutualDyads+census.AsymDyads) + 64*int64(g.NumNodes()))
	for name, v := range map[string]graph.View{"ram": g, "mapped": mustOpen(t, t.TempDir(), g)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		triadsOf(v, 1)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s: one Triads call allocated %d bytes, over 8·m_u + 64·n = %d", name, got, bound)
		} else {
			t.Logf("%s: %d bytes allocated, bound %d", name, got, bound)
		}
	}
}

// TestStaleViewCatches proves the harness has teeth: a loop that holds
// an out-row across the cursor's next Out call must misread it.
func TestStaleViewCatches(t *testing.T) {
	g := testGraphs()["star"]
	rows := staleView{g}.Rows()
	held := rows.Out(3)
	want := append([]graph.NodeID(nil), held...)
	rows.In(3) // the other direction leaves it alone
	if !rowsEqual(held, want) {
		t.Fatal("an In call disturbed the live out-row")
	}
	rows.Out(6)
	if rowsEqual(held, want) {
		t.Fatal("a stale out-row still reads as valid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View.Out did not panic")
		}
	}()
	staleView{g}.Out(0)
}

// TestCursorSweepAllocatesNothing pins the cursor's point: once its two
// buffers have grown to the longest row, a full out+in sweep of a
// mapped graph makes no allocation at all.
func TestCursorSweepAllocatesNothing(t *testing.T) {
	g := testGraphs()["random"]
	m := mustOpen(t, t.TempDir(), g)
	rows := m.Rows()
	sweep := func() {
		for u := 0; u < m.NumNodes(); u++ {
			if len(rows.Out(graph.NodeID(u))) != g.OutDegree(graph.NodeID(u)) ||
				len(rows.In(graph.NodeID(u))) != g.InDegree(graph.NodeID(u)) {
				t.Fatalf("node %d: cursor row length differs from the graph's degree", u)
			}
		}
	}
	sweep() // grow the buffers
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Fatalf("a warmed-up sweep of %d rows made %v allocations", 2*m.NumNodes(), allocs)
	}
}

// TestPathSampleAllocationsIndependentOfRows pins the BFS scratch: the
// same number of sources over a graph four times the size visits four
// times the rows and must not allocate with them — only the handful of
// extra doublings the larger buffers take.
func TestPathSampleAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		m := mustOpen(t, t.TempDir(), randomGraph(n, 8*n, rand.New(rand.NewPCG(11, 12))))
		return testing.AllocsPerRun(3, func() {
			graph.SamplePathLengths(context.Background(), m, graph.Undirected, graph.PathLengthOptions{
				MinSources: 16, MaxSources: 16, BatchSize: 8, Parallelism: 2,
				Rand: rand.New(rand.NewPCG(3, 4)),
			})
		})
	}
	small, large := allocs(500), allocs(2000)
	if large > small+24 {
		t.Fatalf("16 BFS sources made %v allocations over 500 nodes but %v over 2000: allocations follow the rows", small, large)
	}
}

// TestSegmentCompactEquivalence drives the LSM path: the same edge
// stream pushed through tiny segments and compacted must equal the
// Builder's graph — including cross-segment duplicate collapse and
// self-loop dropping — at the default parallelism and with four flushes
// in flight and four workers in each compaction pass.
func TestSegmentCompactEquivalence(t *testing.T) {
	segmentCompactEquivalence(t)
	t.Run("procs=4", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		segmentCompactEquivalence(t)
	})
}

func segmentCompactEquivalence(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			// Tiny buffers force many segments; 1 is one segment per edge
			// — past a thousand of them for the random graph — and a buffer
			// the stream never fills is a compaction of one.
			for _, buffer := range []int{1, 64, 1 << 20} {
				t.Run(fmt.Sprintf("buffer=%d", buffer), func(t *testing.T) {
					dir := t.TempDir()
					segDir := filepath.Join(dir, "segs")
					w, err := NewWriter(segDir, buffer, nil)
					if err != nil {
						t.Fatal(err)
					}
					n := g.NumNodes()
					for u := 0; u < n; u++ {
						for _, v := range g.Out(graph.NodeID(u)) {
							if err := w.Add(graph.NodeID(u), v); err != nil {
								t.Fatal(err)
							}
							if u%3 == 0 {
								// Duplicates and self-loops must vanish at compaction.
								if err := w.Add(graph.NodeID(u), v); err != nil {
									t.Fatal(err)
								}
								if err := w.Add(v, v); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					out := filepath.Join(dir, "graph.v2")
					stats, err := Compact(segDir, out, CompactOptions{NumNodes: n})
					if err != nil {
						t.Fatalf("Compact: %v", err)
					}
					if stats.Edges != g.NumEdges() {
						t.Fatalf("compacted %d edges, want %d", stats.Edges, g.NumEdges())
					}
					if buffer > 3*int(g.NumEdges()) && stats.Segments > 1 {
						t.Fatalf("a buffer larger than the stream made %d segments", stats.Segments)
					}
					m, err := Open(out, Options{})
					if err != nil {
						t.Fatalf("Open: %v", err)
					}
					defer m.Close()
					viewsEqual(t, g, m)
				})
			}
		})
	}
}

// TestCompactRemap checks the crawl scenario: segments written under
// provisional ids, compacted through a permutation into final ids — at
// the default parallelism and at four.
func TestCompactRemap(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	const n = 200
	remap := make([]graph.NodeID, n)
	for i := range remap {
		remap[i] = graph.NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { remap[i], remap[j] = remap[j], remap[i] })

	type edge struct{ u, v graph.NodeID }
	var edges []edge
	for i := 0; i < 900; i++ {
		edges = append(edges, edge{graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))})
	}

	// One segment per edge is the widest fan-in; it runs over a prefix of
	// the stream to keep the file count down. A buffer the stream never
	// fills is a compaction of one.
	run := func(t *testing.T) {
		for _, tc := range []struct {
			buffer int
			edges  []edge
		}{{1, edges[:300]}, {100, edges}, {2 * len(edges), edges}} {
			t.Run(fmt.Sprintf("buffer=%d", tc.buffer), func(t *testing.T) {
				dir := t.TempDir()
				segDir := filepath.Join(dir, "segs")
				w, err := NewWriter(segDir, tc.buffer, nil)
				if err != nil {
					t.Fatal(err)
				}
				b := graph.NewBuilder(n, len(tc.edges))
				for _, e := range tc.edges {
					if err := w.Add(e.u, e.v); err != nil {
						t.Fatal(err)
					}
					b.AddEdge(remap[e.u], remap[e.v])
				}
				want := b.Build()
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				before := segmentBytes(t, segDir)

				out := filepath.Join(dir, "graph.v2")
				if _, err := Compact(segDir, out, CompactOptions{NumNodes: n, Remap: remap}); err != nil {
					t.Fatalf("Compact: %v", err)
				}
				m, err := Open(out, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				viewsEqual(t, want, m)

				// The caller's segments are read, never rewritten, and the
				// scratch spill is gone.
				if after := segmentBytes(t, segDir); !reflect.DeepEqual(after, before) {
					t.Fatal("Compact with Remap modified the caller's segments")
				}
				if left := dirNames(t, dir); !slices.Equal(left, []string{"graph.v2", "segs"}) {
					t.Fatalf("Compact left %v behind, want only the output beside the segments", left)
				}
			})
		}
	}
	run(t)
	t.Run("procs=4", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		run(t)
	})
}

// segmentBytes reads every segment file under dir.
func segmentBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, s := range segs {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(s)] = string(data)
	}
	return out
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCompactRemapNoSegments is the crawl that observed no edges: a
// remapping compaction of an empty segment directory must write an
// n-node edgeless graph and create nothing outside the output's
// directory — in particular not in the working directory, which here
// nothing can be created in (it has been removed, which stops root too;
// a read-only one would not).
func TestCompactRemapNoSegments(t *testing.T) {
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := filepath.Join(t.TempDir(), "cwd")
	if err := os.Mkdir(cwd, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	if err := os.Remove(cwd); err != nil {
		t.Skipf("cannot remove the working directory here: %v", err)
	}

	const n = 7
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segs")
	if err := os.Mkdir(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "graph.v2")
	stats, err := Compact(segDir, out, CompactOptions{NumNodes: n, Remap: make([]graph.NodeID, n)})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.Segments != 0 || stats.Nodes != n || stats.Edges != 0 {
		t.Fatalf("stats %+v, want 0 segments, %d nodes, 0 edges", stats, n)
	}
	m, err := Open(out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	viewsEqual(t, graph.NewBuilder(n, 0).Build(), m)
	if left := dirNames(t, dir); !slices.Equal(left, []string{"graph.v2", "segs"}) {
		t.Fatalf("Compact left %v behind, want only the output beside the segments", left)
	}
}

// TestSegmentIsALog pins what a segment holds: every Add, in Add
// order, duplicates and self-loops included — a header saying N edges
// and a file of 32 + 8N bytes. The stream is the crawl's shape, held in
// one buffer and flushed once, so its one segment is split by record
// range in the scatter: at GOMAXPROCS 1, 2 and 8 it must compact to
// WriteGraph's bytes, with every record scattered exactly once.
func TestSegmentIsALog(t *testing.T) {
	const n, pairs = 3000, 20_000
	rng := rand.New(rand.NewPCG(43, 3))
	remap := make([]graph.NodeID, n)
	for i, p := range rng.Perm(n) {
		remap[i] = graph.NodeID(p)
	}
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segs")
	w, err := NewWriter(segDir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(n, 0)
	var added []uint64
	kept, top := 0, graph.NodeID(0)
	add := func(u, v graph.NodeID) {
		if err := w.Add(u, v); err != nil {
			t.Fatal(err)
		}
		added = append(added, graph.PackEdge(u, v))
		top = max(top, u, v)
		if u != v {
			b.AddEdge(remap[u], remap[v])
			kept++
		}
	}
	for i := 0; i < pairs; i++ {
		u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
		add(u, v)
		switch i % 5 {
		case 0:
			add(u, v) // a duplicate
		case 1:
			add(v, v) // a self-loop
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	segs, err := ListSegments(segDir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v, want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	edges := uint64(len(added))
	if got, want := len(data), segHeaderSize+8*len(added); got != want {
		t.Fatalf("segment of %d Adds is %d bytes, want 32 + 8N = %d", len(added), got, want)
	}
	header := []uint64{binary.LittleEndian.Uint64(data[8:]), binary.LittleEndian.Uint64(data[16:]), binary.LittleEndian.Uint64(data[24:])}
	if string(data[:8]) != "GPLSEG03" || !slices.Equal(header, []uint64{uint64(top) + 1, edges, 8 * edges}) {
		t.Fatalf("header %q %v, want GPLSEG03 [%d %d %d]", data[:8], header, top+1, edges, 8*edges)
	}
	for i, e := range added {
		if got := binary.LittleEndian.Uint64(data[segHeaderSize+8*i:]); got != e {
			t.Fatalf("record %d is %#x, want Add number %d, %#x", i, got, i, e)
		}
	}

	refPath := filepath.Join(dir, "ref.v2")
	if err := WriteGraph(refPath, b.Build()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		sorted int
	)
	compactSortHook = func(edges int) {
		mu.Lock()
		sorted += edges
		mu.Unlock()
	}
	defer func() { compactSortHook = nil }()
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sorted = 0
			out := filepath.Join(t.TempDir(), "graph.v2")
			if _, err := Compact(segDir, out, CompactOptions{NumNodes: n, Remap: remap}); err != nil {
				t.Fatal(err)
			}
			if sorted != 2*kept {
				t.Fatalf("the buckets sorted %d edge copies, want 2 × %d: a record was scattered more or less than once", sorted, kept)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the one-segment stream compacted to bytes that differ from WriteGraph's")
			}
		})
	}
}

// TestWriterResume pins that a writer reopened over existing segments
// continues the sequence instead of clobbering flushed edges.
func TestWriterResume(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(dir, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("want 2 segments after resume, got %v", segs)
	}
	out := filepath.Join(t.TempDir(), "graph.v2")
	stats, err := Compact(dir, out, CompactOptions{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != 2 {
		t.Fatalf("want both flushes' edges, got %d", stats.Edges)
	}
}

// TestWriterFailedFlushIsFinal pins what a failed flush leaves behind:
// a dead Writer. A background failure is seen only after Add has moved
// past the failed buffer, so no retry could make the segments whole; a
// failed Flush is final too, so that the caller has one rule, and a
// retry must fail again rather than publish part of the stream.
func TestWriterFailedFlushIsFinal(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); u < 5; u++ {
		if err := w.Add(5-u, u); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("disk full")
	durable.StepHook = func(string, string) error { return boom }
	err = w.Flush()
	durable.StepHook = nil
	if !errors.Is(err, boom) {
		t.Fatalf("Flush: %v, want the injected failure", err)
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush after a failed flush: %v, want the first failure again", err)
	}
	if segs, _ := ListSegments(dir); len(segs) != 0 {
		t.Fatalf("a failed writer published %v", segs)
	}

	// A flush that fails in the background surfaces from a later Add or
	// from Flush, and every call after that returns the same error. The
	// hook fails one named segment, whichever goroutine writes it.
	t.Run("background", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		const buffer, segments, failing = 8, 40, 3
		dir := t.TempDir()
		w, err := NewWriter(dir, buffer, nil)
		if err != nil {
			t.Fatal(err)
		}
		durable.StepHook = func(path, step string) error {
			if filepath.Base(path) == fmt.Sprintf("seg-%06d.seg", failing) {
				return boom
			}
			return nil
		}
		defer func() { durable.StepHook = nil }()
		edge := func(i int) (graph.NodeID, graph.NodeID) { return graph.NodeID(i % 50), graph.NodeID(i%50 + 1) }
		var first error
		sameFailure := func(call string, err error) {
			t.Helper()
			if first == nil {
				first = err
			} else if err != first {
				t.Fatalf("%s after the failure returned %v, want %v", call, err, first)
			}
		}
		for i := 0; i < buffer*segments; i++ {
			sameFailure("Add", w.Add(edge(i)))
		}
		sameFailure("Flush", w.Flush())
		if !errors.Is(first, boom) {
			t.Fatalf("the writer reported %v, want the injected failure", first)
		}
		sameFailure("Flush", w.Flush())
		sameFailure("Add", w.Add(edge(0)))
		durable.StepHook = nil

		// Segments are a set: whatever was published compacts, holding
		// exactly the edges of the buffers it was written from.
		segs, err := ListSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]graph.NodeID]bool{}
		for _, s := range segs {
			var k int
			if _, err := fmt.Sscanf(filepath.Base(s), "seg-%d.seg", &k); err != nil {
				t.Fatal(err)
			}
			if k == failing {
				t.Fatalf("the failed segment %s was published", s)
			}
			for i := k * buffer; i < (k+1)*buffer; i++ {
				u, v := edge(i)
				want[[2]graph.NodeID{u, v}] = true
			}
		}
		if len(segs) < failing {
			t.Fatalf("%d segments published, want at least the %d handed off before the failing one", len(segs), failing)
		}
		stats, err := Compact(dir, filepath.Join(t.TempDir(), "graph.v2"), CompactOptions{NumNodes: 51})
		if err != nil {
			t.Fatalf("Compact over the published segments: %v", err)
		}
		if stats.Edges != int64(len(want)) {
			t.Fatalf("compacted %d edges, the published segments hold %d", stats.Edges, len(want))
		}
	})
}

// edgeBuffers adds edges edges to w, flushes it, and returns how many
// distinct edge buffers Add filled: every edge buffer the Writer
// allocates is filled by Add before it is flushed.
func edgeBuffers(t *testing.T, w *Writer, edges int) int {
	t.Helper()
	seen := map[*uint64]bool{&w.buf[:1][0]: true}
	for i := 0; i < edges; i++ {
		if err := w.Add(graph.NodeID(i%97), graph.NodeID(i%89)); err != nil {
			t.Fatal(err)
		}
		seen[&w.buf[:1][0]] = true
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return len(seen)
}

// TestWriterEdgeBufferBound pins the Writer's RAM bound: with four
// flushes in flight, a 40-segment stream runs through at most five edge
// buffers, four of them spares.
func TestWriterEdgeBufferBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const buffer, segments = 64, 40
	dir := t.TempDir()
	w, err := NewWriter(dir, buffer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := edgeBuffers(t, w, buffer*segments); got < 2 || got > 4+1 {
		t.Fatalf("the writer filled %d edge buffers, want between 2 and GOMAXPROCS+1 = 5", got)
	}
	if w.spares > 4 {
		t.Fatalf("the writer made %d spare edge buffers, want at most GOMAXPROCS = 4", w.spares)
	}
	if segs, err := ListSegments(dir); err != nil || len(segs) != segments {
		t.Fatalf("%d segments (%v), want %d", len(segs), err, segments)
	}
}

// TestWriterSmallStreamHoldsOneBuffer: a stream that never fills the
// buffer holds what a Writer held before flushes left the caller's
// goroutine — one edge buffer, which the final flush writes from.
func TestWriterSmallStreamHoldsOneBuffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w, err := NewWriter(t.TempDir(), 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := edgeBuffers(t, w, 999); got != 1 {
		t.Fatalf("the writer filled %d edge buffers, want 1", got)
	}
	if w.spares != 0 {
		t.Fatalf("the writer made %d spare edge buffers, want 0", w.spares)
	}
}
