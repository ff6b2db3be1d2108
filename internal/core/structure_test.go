package core

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/obs/trace"
	"gplus/internal/profile"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

// TestWCCGiantFractionUsesGraphDenominator covers the regression where
// Study.WCC divided the giant component by the dataset's user-roster size
// while SCC divided by the graph's node count. Both must use the graph
// denominator (§3.3.4), even on a dataset where the roster disagrees.
func TestWCCGiantFractionUsesGraphDenominator(t *testing.T) {
	// 5-node graph: one weak component {0,1,2,3} plus isolated node 4 —
	// but a roster of 6 users. Graph denominator: 4/5. Roster: 4/6.
	g := graph.FromEdges(5, 0, 1, 1, 2, 2, 3)
	ids := []string{"a", "b", "c", "d", "e", "phantom"}
	ds := dataset.FromUniverse(&synth.Universe{Graph: g, IDs: ids, Profiles: make([]profile.Profile, len(ids))})
	if ds.NumUsers() == g.NumNodes() {
		t.Fatal("test needs users != graph nodes")
	}
	s := New(ds, Options{})
	wcc := s.WCC()
	if wcc.GiantSize != 4 {
		t.Fatalf("GiantSize = %d, want 4", wcc.GiantSize)
	}
	if want := 4.0 / 5.0; wcc.GiantFraction != want {
		t.Fatalf("GiantFraction = %v, want %v (graph-node denominator, not users)", wcc.GiantFraction, want)
	}
	// SCC and WCC must agree on the denominator convention.
	scc := s.SCC()
	if scc.GiantFraction != float64(scc.GiantSize)/float64(g.NumNodes()) {
		t.Fatalf("SCC fraction %v disagrees with graph denominator", scc.GiantFraction)
	}
}

// TestStructureParallelismInvariant runs the full structural bundle at
// different parallelism levels and demands identical results — the same
// contract the graph package promises, carried through the Study layer.
func TestStructureParallelismInvariant(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(5_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	run := func(par int) *StructureResult {
		s := New(ds, Options{
			Seed:        99,
			PathSources: 32,
			Parallelism: par,
		})
		st, err := s.Structure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(1)
	for _, par := range []int{3, 8} {
		if got := run(par); !reflect.DeepEqual(got, base) {
			t.Fatalf("Structure at parallelism %d diverged from serial", par)
		}
	}
}

// TestStructureTimingsAndSpans checks the per-stage instrumentation:
// one analyze.<stage> span per stage in the tracer's recorder, under the
// analyze.structure parent.
func TestStructureTimingsAndSpans(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0, trace.Rules{})
	s := New(dataset.FromUniverse(u), Options{
		Seed:        7,
		PathSources: 16,
		Tracer:      trace.New(trace.Config{Recorder: rec}),
	})
	if _, err := s.Structure(context.Background()); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			if sp.Dur <= 0 {
				t.Errorf("span %q has non-positive duration %v", sp.Name, sp.Dur)
			}
			spans[sp.Name]++
		}
	}
	want := map[string]int{"analyze.structure": 1}
	for _, stage := range []string{"degrees", "reciprocity", "scc", "wcc", "paths", "triads"} {
		want["analyze."+stage] = 1
	}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("recorded spans %v, want %v", spans, want)
	}
}

// TestFigure5MatchesPerSourceBFS holds Figure 5 on the 2 000-user
// fixture, a graph whose multi-source searches switch from pushing to
// pulling mid-search, to one graph.BFSDistances per drawn source: each
// histogram is the sum of the single-source histograms of the first
// Sources sources its stream draws, and its half-width is 1.96 standard
// errors of the ratio estimator over those sources' 8-source batches,
// worked here from the per-source sums. Each sample's diameter bound is
// the per-source double sweep from the first four sources its stream
// draws.
func TestFigure5MatchesPerSourceBFS(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	for _, par := range []int{1, 3, 8} {
		s := New(ds, Options{Seed: 7, Parallelism: par})
		paths := s.PathLengths(context.Background())
		n := s.g.NumNodes()
		for _, fig := range []struct {
			dir    graph.Direction
			stream uint64
			got    *graph.PathLengthDist
		}{{graph.Directed, 3, paths.Directed}, {graph.Undirected, 4, paths.Undirected}} {
			want := &graph.PathLengthDist{Sources: fig.got.Sources}
			var pairs, hops []float64 // per 8-source batch
			var starts []graph.NodeID // the double sweeps' first four
			rng := s.rng(fig.stream)
			for i := range fig.got.Sources {
				if i%8 == 0 {
					pairs, hops = append(pairs, 0), append(hops, 0)
				}
				src := graph.NodeID(rng.IntN(n))
				if i < 4 {
					starts = append(starts, src)
				}
				for _, d := range graph.BFSDistances(s.g, src, fig.dir, nil) {
					if d < 0 {
						continue
					}
					for int(d) >= len(want.Counts) {
						want.Counts = append(want.Counts, 0)
					}
					want.Counts[d]++
					want.Reachable++
					pairs[len(pairs)-1]++
					hops[len(hops)-1] += float64(d)
				}
			}
			want.HalfWidth = ratioHalfWidth(pairs, hops)
			if fig.got.Sources == 0 || fig.got.Sources%64 != 0 || math.Abs(fig.got.HalfWidth-want.HalfWidth) > 1e-9 {
				t.Errorf("P=%d %v Figure 5: %d sources, ±%v; want a whole number of 64-source passes and ±%v",
					par, fig.dir, fig.got.Sources, fig.got.HalfWidth, want.HalfWidth)
			}
			if fig.got.Sources < s.opts.PathSources && fig.got.HalfWidth > 0.1 {
				t.Errorf("P=%d %v Figure 5 stopped at %d sources with half-width %v, above 0.1", par, fig.dir, fig.got.Sources, fig.got.HalfWidth)
			}
			want.HalfWidth = fig.got.HalfWidth
			if want.Diameter = doubleSweep(s.g, fig.dir, starts); want.Diameter == 0 {
				t.Errorf("P=%d %v: the per-source double sweeps from %v found no path", par, fig.dir, starts)
			}
			if !reflect.DeepEqual(fig.got, want) {
				t.Errorf("P=%d %v Figure 5:\n got %+v\nwant %+v (one BFSDistances per source, per-source double sweeps)", par, fig.dir, fig.got, want)
			}
		}
	}
}

// doubleSweep is the per-source double sweep over g from each start: a
// BFS, then one back from its lowest-id farthest node — over in-rows
// alone for the directed bound — keeping the greatest eccentricity met.
func doubleSweep(g graph.View, dir graph.Direction, starts []graph.NodeID) int {
	bound := 0
	for _, src := range starts {
		for hop := 0; hop < 2; hop++ {
			var dist []int32
			if dir == graph.Directed && hop == 1 {
				dist = inDistances(g, src)
			} else {
				dist = graph.BFSDistances(g, src, dir, nil)
			}
			far, farD := src, int32(0)
			for v, d := range dist {
				if d > farD {
					far, farD = graph.NodeID(v), d
				}
			}
			bound, src = max(bound, int(farD)), far
		}
	}
	return bound
}

// inDistances is graph.BFSDistances over the transpose graph.
func inDistances(g graph.View, src graph.NodeID) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []graph.NodeID{src}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.In(queue[0]) {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestClusteringExactPathAndMotifs checks the two per-figure entry
// points over the triad pass on study data: Figure 4(b) covers every
// eligible node with the coefficient graph.ClusteringCoefficient's own
// wedge scan gives it, the C(k) curve is that of those numerators, and
// the census and the triangle total describe the same graph.
func TestClusteringExactPathAndMotifs(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	s := New(ds, Options{Seed: 11})
	cl := s.Clustering()
	var coeffs []float64
	links := make([]int64, ds.View().NumNodes())
	for u := range links {
		c, ok := graph.ClusteringCoefficient(ds.View(), graph.NodeID(u))
		if !ok {
			continue
		}
		k := ds.View().OutDegree(graph.NodeID(u))
		coeffs = append(coeffs, c)
		links[u] = int64(math.Round(c * float64(k*(k-1))))
	}
	if cl.Sampled != len(coeffs) {
		t.Fatalf("Figure 4(b) covers %d nodes, want every eligible node (%d)", cl.Sampled, len(coeffs))
	}
	if want := stats.CDF(coeffs); !reflect.DeepEqual(cl.CDF, want) {
		t.Fatal("Figure 4(b) CDF is not that of the per-node coefficients")
	}
	if want := graph.ClusteringByDegree(ds.View(), links); len(want) == 0 || !reflect.DeepEqual(cl.ByDegree, want) {
		t.Fatal("C(k) curve is not that of the per-node numerators")
	}
	m, err := s.Motifs()
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleMethod == graph.TriangleAuto {
		t.Fatal("motif result did not resolve the auto method")
	}
	if m.Census == nil || m.Census.Triangles() != m.TriangleTotal {
		t.Fatalf("census triangles disagree with kernel total %d", m.TriangleTotal)
	}
	if want := graph.Triangles(ds.View(), graph.TriangleCohen, 2); m.TriangleTotal != want.Total || m.Transitivity != want.Transitivity() {
		t.Fatalf("%d triangles, transitivity %v; the Cohen reference has %d and %v", m.TriangleTotal, m.Transitivity, want.Total, want.Transitivity())
	}
	if m.Census.Nodes != ds.View().NumNodes() {
		t.Fatalf("census ran on %d nodes, graph has %d", m.Census.Nodes, ds.View().NumNodes())
	}
}

// countingView counts the out- and in-row reads of every node, through
// cursors and through the View itself.
type countingView struct {
	graph.View
	outs, ins []atomic.Int32
}

func newCountingView(g graph.View) *countingView {
	return &countingView{View: g, outs: make([]atomic.Int32, g.NumNodes()), ins: make([]atomic.Int32, g.NumNodes())}
}

func (v *countingView) Out(u graph.NodeID) []graph.NodeID { v.outs[u].Add(1); return v.View.Out(u) }
func (v *countingView) In(u graph.NodeID) []graph.NodeID  { v.ins[u].Add(1); return v.View.In(u) }
func (v *countingView) Rows() graph.Rows                  { return countingRows{v, v.View.Rows()} }

type countingRows struct {
	v     *countingView
	inner graph.Rows
}

func (r countingRows) Out(u graph.NodeID) []graph.NodeID { r.v.outs[u].Add(1); return r.inner.Out(u) }
func (r countingRows) In(u graph.NodeID) []graph.NodeID  { r.v.ins[u].Add(1); return r.inner.In(u) }

// TestStagesScanOnce pins the scan shape of the stages behind Figure 4
// and the motif census. Reciprocity reads each node's out-row once and
// its in-row at most once; the triad pass reads every row of either
// direction exactly twice — degrees, then the half-graph fill — over RAM
// and over the mapped dataset alike, and never goes back to the view
// while it enumerates. Figure 9(a) and the path samples with their
// diameter bounds batch their questions, so their row reads count rounds
// and levels, not pairs and sources.
func TestStagesScanOnce(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		ds, err := dataset.LoadWith(dir, dataset.Options{Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		s := New(ds, Options{Seed: 7, Parallelism: 3})
		g := s.g
		n := g.NumNodes()

		cv := newCountingView(g)
		s.g = cv
		s.reciprocity(context.Background())
		for v := 0; v < n; v++ {
			if outs, ins := cv.outs[v].Load(), cv.ins[v].Load(); outs != 1 || ins > 1 {
				t.Fatalf("mapped=%v: reciprocity read node %d's out-row %d times and in-row %d times, want 1 and at most 1", mapped, v, outs, ins)
			}
		}

		cv = newCountingView(g)
		s.g = cv
		s.triads(context.Background())
		for v := 0; v < n; v++ {
			if outs, ins := cv.outs[v].Load(), cv.ins[v].Load(); outs != 2 || ins != 2 {
				t.Fatalf("mapped=%v: the triad pass read node %d's out-row %d times and in-row %d times, want 2 and 2", mapped, v, outs, ins)
			}
		}

		// Figure 9(a) reads a located user's rows once for the friend
		// pairs and once per round of random attempts — one round here,
		// where the 100 000 attempts the old loop answered one by one
		// decoded each row about 400 times — and nobody else's.
		cv = newCountingView(g)
		s.g = cv
		s.pathMiles()
		col := s.located()
		for v := 0; v < n; v++ {
			outs, ins := cv.outs[v].Load(), cv.ins[v].Load()
			if !col.is[v] && outs+ins > 0 || outs > 2 || ins > 2 {
				t.Fatalf("mapped=%v: Figure 9 read node %d's (located: %v) out-row %d times and in-row %d times, want at most 2 of a located user's and none of another's",
					mapped, v, col.is[v], outs, ins)
			}
		}

		// A path sample's sources share a multi-source search per pass,
		// and the diameter bound's return sweeps one more; each level of
		// a search either pushes from its frontier or pulls into the
		// nodes some source has not reached: one pass's row is read at
		// most once per level of the pass (as many as its histogram has
		// hops) and of the return sweeps (at most bound+1), and on the
		// undirected sample — where every search covers its start's
		// whole component — less than half as often all told as one
		// search per source and return sweep would. The bound itself is
		// the per-source double sweep's, over RAM and the mapped dataset
		// alike.
		for stream, dir := range map[uint64]graph.Direction{3: graph.Directed, 4: graph.Undirected} {
			cv = newCountingView(g)
			paths := graph.SamplePathLengths(context.Background(), cv, dir, graph.PathLengthOptions{
				MinSources: 64, MaxSources: 64, Rand: s.rng(stream),
			})
			sources := make([]graph.NodeID, 64)
			for rng, i := s.rng(stream), 0; i < len(sources); i++ {
				sources[i] = graph.NodeID(rng.IntN(n))
			}
			if want := doubleSweep(g, dir, sources[:4]); paths.Diameter != want {
				t.Fatalf("mapped=%v: the %v diameter bound is %d, the per-source double sweeps' %d", mapped, dir, paths.Diameter, want)
			}
			perRow := int32(len(paths.Counts) + paths.Diameter + 1)
			var total int64
			for v := 0; v < n; v++ {
				outs, ins := cv.outs[v].Load(), cv.ins[v].Load()
				if total += int64(outs + ins); outs > perRow || ins > perRow {
					t.Fatalf("mapped=%v: the %v sample (%d hops, bound %d) read node %d's out-row %d times and in-row %d times, want at most %d", mapped, dir, len(paths.Counts)-1, paths.Diameter, v, outs, ins, perRow)
				}
			}
			if dir == graph.Undirected {
				var perSource int64
				for _, src := range append(sources, sources[:4]...) {
					for _, d := range graph.BFSDistances(g, src, dir, nil) {
						if d >= 0 {
							perSource += 2 // two rows a node
						}
					}
				}
				if 2*total > perSource {
					t.Fatalf("mapped=%v: the undirected sample made %d row reads, per-source searches make %d: want less than half", mapped, total, perSource)
				}
			}
		}
	}
}

// ratioHalfWidth is 1.96 standard errors of Σ hops / Σ pairs over
// i.i.d. batches: √(Σ (hops_b − R·pairs_b)² / (k (k−1))) / mean pairs.
func ratioHalfWidth(pairs, hops []float64) float64 {
	k := float64(len(pairs))
	var p, h float64
	for i := range pairs {
		p += pairs[i]
		h += hops[i]
	}
	var ss float64
	for i := range pairs {
		d := hops[i] - h/p*pairs[i]
		ss += d * d
	}
	return 1.96 * math.Sqrt(ss/(k*(k-1))) / (p / k)
}
