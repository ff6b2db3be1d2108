package core

import (
	"context"
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
	ds := &dataset.Dataset{
		Graph:    g,
		IDs:      ids,
		Profiles: make([]profile.Profile, len(ids)),
		Crawled:  make([]bool, len(ids)),
	}
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
			Seed:             99,
			PathSources:      32,
			ClusteringSample: 2_000,
			Parallelism:      par,
		})
		st, err := s.Structure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st.Timings = nil // wall-clock legitimately differs between runs
		return st
	}
	base := run(1)
	for _, par := range []int{3, 8} {
		if got := run(par); !reflect.DeepEqual(got, base) {
			t.Fatalf("Structure at parallelism %d diverged from serial", par)
		}
	}
}

// TestStructureTimingsAndSpans checks the per-stage instrumentation: one
// timing per stage, and analyze.<stage> spans in the tracer's recorder.
func TestStructureTimingsAndSpans(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0, trace.Rules{})
	s := New(dataset.FromUniverse(u), Options{
		Seed:             7,
		PathSources:      16,
		ClusteringSample: 500,
		Tracer:           trace.New(trace.Config{Recorder: rec}),
	})
	st, err := s.Structure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"degrees", "reciprocity", "clustering", "scc", "wcc", "paths", "motifs"}
	if len(st.Timings) != len(wantStages) {
		t.Fatalf("got %d timings, want %d", len(st.Timings), len(wantStages))
	}
	seen := map[string]bool{}
	for _, tm := range st.Timings {
		if tm.Dur <= 0 {
			t.Errorf("stage %q has non-positive duration %v", tm.Stage, tm.Dur)
		}
		seen[tm.Stage] = true
	}
	spanNames := map[string]bool{}
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			spanNames[sp.Name] = true
		}
	}
	for _, stage := range wantStages {
		if !seen[stage] {
			t.Errorf("no timing recorded for stage %q", stage)
		}
		if !spanNames["analyze."+stage] {
			t.Errorf("no analyze.%s span recorded", stage)
		}
	}
	if !spanNames["analyze.structure"] {
		t.Error("no analyze.structure parent span recorded")
	}
}

// TestClusteringExactPathAndMotifs checks that a graph whose wedge
// count fits the exact budget takes the exact clustering path — every
// eligible node scanned regardless of the configured sample size, with
// the C(k) curve filled — and that the motif stage's internal
// triangle/census cross-check holds on study data.
func TestClusteringExactPathAndMotifs(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	s := New(ds, Options{Seed: 11, ClusteringSample: 100})
	cl := s.Clustering()
	if !cl.Exact {
		t.Fatal("small graph did not take the exact clustering path")
	}
	eligible := 0
	for v := 0; v < ds.Graph.NumNodes(); v++ {
		if ds.Graph.OutDegree(graph.NodeID(v)) > 1 {
			eligible++
		}
	}
	if cl.Sampled != eligible {
		t.Fatalf("exact path scanned %d nodes, want every eligible node (%d)", cl.Sampled, eligible)
	}
	if len(cl.ByDegree) == 0 {
		t.Fatal("exact path returned no C(k) curve")
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
	if m.Census.Nodes != ds.Graph.NumNodes() {
		t.Fatalf("census ran on %d nodes, graph has %d", m.Census.Nodes, ds.Graph.NumNodes())
	}
}

// TestClusteringSampledPath drives the branch of the clustering stage
// that no fixture reaches through the wedge budget: the sampled scan. It
// must draw its nodes from rng(2) alone, report Exact=false without a
// C(k) curve, and agree across parallelism and between the RAM and the
// mapped dataset.
func TestClusteringSampledPath(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	const sample = 200
	var base *ClusteringResult
	for _, mapped := range []bool{false, true} {
		ds, err := dataset.LoadWith(dir, dataset.Options{Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		for _, par := range []int{1, 2, 4} {
			s := New(ds, Options{Seed: 11, ClusteringSample: sample, Parallelism: par})
			got := s.clusteringScan(false)
			if got.Exact || got.ByDegree != nil || got.Sampled != sample {
				t.Fatalf("mapped=%v P=%d: Exact=%v, %d C(k) points, %d nodes; want a %d-node sample and no curve",
					mapped, par, got.Exact, len(got.ByDegree), got.Sampled, sample)
			}
			if base == nil {
				base = &got
				// The draw is SampleClustering's under stream 2.
				want := stats.CDF(graph.SampleClustering(s.g, sample, s.rng(2), 1))
				if !reflect.DeepEqual(got.CDF, want) {
					t.Fatal("the sampled stage did not consume rng(2) as graph.SampleClustering does")
				}
				if exact := s.clusteringScan(true); reflect.DeepEqual(exact.CDF, got.CDF) {
					t.Fatal("fixture cannot tell the sampled scan from the exact one")
				}
			} else if !reflect.DeepEqual(got, *base) {
				t.Errorf("mapped=%v P=%d diverged from RAM at P=1", mapped, par)
			}
		}
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

// TestStagesScanOnce pins the one-scan shape of the two Figure 4 stages
// Structure runs. Reciprocity reads each node's out-row once and its
// in-row at most once; exact clustering reads a node's out-row once as
// its own (when eligible) and once per eligible in-neighbor whose
// out-neighborhood it sits in — nothing twice.
func TestStagesScanOnce(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	s := New(dataset.FromUniverse(u), Options{Seed: 7, Parallelism: 3})
	g := s.g
	n := g.NumNodes()

	cv := newCountingView(g)
	s.g = cv
	s.reciprocity(context.Background())
	for v := 0; v < n; v++ {
		if outs, ins := cv.outs[v].Load(), cv.ins[v].Load(); outs != 1 || ins > 1 {
			t.Fatalf("reciprocity read node %d's out-row %d times and in-row %d times, want 1 and at most 1", v, outs, ins)
		}
	}

	cv = newCountingView(g)
	s.g = cv
	if cl := s.clustering(context.Background()); !cl.Exact {
		t.Fatal("fixture did not take the exact clustering path")
	}
	for v := 0; v < n; v++ {
		want := int32(0)
		if g.OutDegree(graph.NodeID(v)) > 1 {
			want++
		}
		for _, w := range g.In(graph.NodeID(v)) {
			if g.OutDegree(w) > 1 {
				want++
			}
		}
		if outs, ins := cv.outs[v].Load(), cv.ins[v].Load(); outs != want || ins != 0 {
			t.Fatalf("exact clustering read node %d's out-row %d times and in-row %d times, want %d and 0", v, outs, ins, want)
		}
	}
}
