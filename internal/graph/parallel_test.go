package graph

import (
	"context"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
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
				"TopByOutDegree":    func(par int) any { return TopByOutDegree(g, 10, par) },
				"AllReciprocities":  func(par int) any { return AllReciprocities(g, par) },
				"GlobalReciprocity": func(par int) any { return GlobalReciprocity(g, par) },
				"SampleClustering": func(par int) any {
					return SampleClustering(g, 50, rand.New(rand.NewPCG(5, 6)), par)
				},
				"WCC":                func(par int) any { return WCC(g, par) },
				"SCC":                func(int) any { return SCC(g) },
				"AllClustering":      func(par int) any { return AllClustering(g, par) },
				"ClusteringByDegree": func(par int) any { return ClusteringByDegree(g, par) },
				"WedgeCount":         func(par int) any { return WedgeCount(g, par) },
				"TrianglesBurkhardt": func(par int) any { return Triangles(g, TriangleBurkhardt, par) },
				"TrianglesCohen":     func(par int) any { return Triangles(g, TriangleCohen, par) },
				"TrianglesSandiaLL":  func(par int) any { return Triangles(g, TriangleSandiaLL, par) },
				"TrianglesSandiaUU":  func(par int) any { return Triangles(g, TriangleSandiaUU, par) },
				"TrianglesAuto":      func(par int) any { return Triangles(g, TriangleAuto, par) },
				"Motifs":             func(par int) any { return Motifs(g, par) },
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
// reported NumNodes() == -1, panicking the degree analyses, and Validate
// indexed off[0] of a nil slice.
func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if n := g.NumNodes(); n != 0 {
		t.Fatalf("zero-value NumNodes = %d, want 0", n)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("zero-value Validate: %v", err)
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
	bad := Graph{inOff: []int64{0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a graph with offsets but no out array")
	}
}

// countingCtx reports cancellation only after Err has been consulted
// allowAfter times, simulating a deadline landing mid-batch.
type countingCtx struct {
	context.Context
	calls, allowed int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.allowed {
		return context.Canceled
	}
	return nil
}

// TestSamplePathLengthsCancelMidBatchAccounting covers the regression
// where cancellation inside a batch still credited the full batch to
// Sources. On a triangle every completed source reaches exactly 3 nodes,
// so Sources must equal Reachable/3.
func TestSamplePathLengthsCancelMidBatchAccounting(t *testing.T) {
	g := triangle()
	// Err call 1 is the pre-batch check; calls 2-4 admit two sources and
	// cancel on the third, mid-way through a batch of 4.
	ctx := &countingCtx{Context: context.Background(), allowed: 3}
	dist := SamplePathLengths(ctx, g, Directed, PathLengthOptions{
		MinSources: 8, MaxSources: 8, BatchSize: 4,
		Parallelism: 1,
		Rand:        rand.New(rand.NewPCG(3, 4)),
	})
	if dist.Sources != 2 {
		t.Fatalf("Sources = %d after mid-batch cancel, want 2", dist.Sources)
	}
	if want := int64(dist.Sources) * 3; dist.Reachable != want {
		t.Fatalf("Reachable = %d, want %d (3 per completed source)", dist.Reachable, want)
	}
}

// atomicCountingCtx is countingCtx for concurrent callers: cancellation
// reports after allowed Err consultations, whichever goroutines make
// them.
type atomicCountingCtx struct {
	context.Context
	calls   atomic.Int64
	allowed int64
}

func (c *atomicCountingCtx) Err() error {
	if c.calls.Add(1) > c.allowed {
		return context.Canceled
	}
	return nil
}

// TestBFSBatchCancelPrefixConsistency covers the P>1 cancellation
// accounting regression: bfsBatch's contract is that (histogram, done)
// describes exactly the prefix sources[:done], but the strided workers
// used to merge whatever scattered subset finished before the cancel
// while reporting its size as if it were a prefix. On the chain graph
// every source reaches a different number of nodes, so crediting the
// wrong sources is visible in the histogram. The oracle is the serial
// batch over the prefix, uncancelled — checked at P=1 and P>1 for every
// possible cancellation point.
func TestBFSBatchCancelPrefixConsistency(t *testing.T) {
	g := testGraphs()["chain"]
	sources := make([]NodeID, 12)
	for i := range sources {
		sources[i] = NodeID(i * 3) // distinct reach: source i*3 sees 40-3i nodes
	}
	for _, workers := range []int{1, 4} {
		for allowed := int64(0); allowed <= int64(len(sources))+1; allowed++ {
			ctx := &atomicCountingCtx{Context: context.Background(), allowed: allowed}
			scratch := newBFSWorkers(g, workers)
			got, done := bfsBatch(ctx, Directed, sources, scratch)
			if done > len(sources) {
				t.Fatalf("P=%d allowed=%d: done = %d > %d sources", workers, allowed, done, len(sources))
			}
			want, wantDone := bfsBatchSeq(context.Background(), Directed, sources[:done], newBFSScratch(g, nil))
			if wantDone != done || !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d allowed=%d: histogram for done=%d is %v, want prefix histogram %v",
					workers, allowed, done, got, want)
			}
		}
	}
	// Uncancelled, P=1 and P>1 must agree exactly.
	base, baseDone := bfsBatch(context.Background(), Directed, sources, newBFSWorkers(g, 1))
	par, parDone := bfsBatch(context.Background(), Directed, sources, newBFSWorkers(g, 4))
	if baseDone != len(sources) || parDone != len(sources) || !reflect.DeepEqual(base, par) {
		t.Fatalf("uncancelled batch: P=1 (%v, %d) vs P=4 (%v, %d)", base, baseDone, par, parDone)
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
