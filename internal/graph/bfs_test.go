package graph

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// addHops tallies one BFSDistances result into a hop histogram.
func addHops(counts []int64, dist []int32) []int64 {
	for _, d := range dist {
		if d < 0 {
			continue
		}
		for int(d) >= len(counts) {
			counts = append(counts, 0)
		}
		counts[d]++
	}
	return counts
}

// pathLengthsOracle is the path sample computed without the
// multi-source kernel: one BFSDistances per source, in order, each
// source's pairs and hops summed into its batch (BatchSize sources,
// cut at every 64-source pass), and after each pass the half-width
// rule checked; the diameter bound is the per-source double sweep from
// the first diameterSweeps sources. opt must already be defaulted.
func pathLengthsOracle(g View, dir Direction, sources []NodeID, opt PathLengthOptions) *PathLengthDist {
	res := &PathLengthDist{}
	_, res.Diameter = doubleSweepPerSource(g, dir, sources[:min(diameterSweeps, len(sources))])
	var batches []batchSum
	var dist []int32
	for res.Sources < len(sources) {
		end := min(res.Sources+msLanes, len(sources))
		for lo := res.Sources; lo < end; lo += opt.BatchSize {
			var b batchSum
			for _, src := range sources[lo:min(lo+opt.BatchSize, end)] {
				dist = BFSDistances(g, src, dir, dist)
				res.Counts = addHops(res.Counts, dist)
				for _, d := range dist {
					if d >= 0 {
						b.pairs++
						b.hops += int64(d)
					}
				}
			}
			batches = append(batches, b)
			res.Reachable += b.pairs
		}
		res.Sources = end
		res.HalfWidth = ratioHalfWidth(batches)
		if res.Sources >= opt.MinSources && res.HalfWidth <= opt.Tolerance {
			break
		}
	}
	return res
}

// TestPathLengthsMatchPerSourceBFS is the differential test of the
// multi-source kernel: over every test graph, direction, parallelism,
// sample size around the 64-lane boundary and batch size around it,
// SamplePathLengths must return exactly what the per-source oracle
// does. Sources are drawn with replacement, so on the small graphs many
// lanes of a pass start on the same node. The loose half-width target
// lets some configurations stop early (dropping speculative passes)
// while others run to MaxSources; the test checks it saw both. It also
// checks that the table's levels both pushed and pulled, tallied on
// each configuration's first pass run on its own — the kernel is
// deterministic, so that is the sample's own first pass.
func TestPathLengthsMatchPerSourceBFS(t *testing.T) {
	early, full := 0, 0
	var steps levelTally
	for name, g := range testGraphs() {
		for _, dir := range []Direction{Directed, Undirected} {
			for _, maxSrc := range []int{1, 31, 32, 33, 64, 65, 100, 256} {
				for _, batch := range []int{1, 4, 32, 64, 100} {
					opt := PathLengthOptions{
						MinSources: max(1, maxSrc/4), MaxSources: maxSrc,
						BatchSize: batch, Tolerance: 0.3,
					}
					want := &PathLengthDist{}
					if n := g.NumNodes(); n > 0 {
						rng := rand.New(rand.NewPCG(uint64(maxSrc), uint64(batch)))
						sources := make([]NodeID, maxSrc)
						for i := range sources {
							sources[i] = NodeID(rng.IntN(n))
						}
						def := opt
						def.setDefaults()
						want = pathLengthsOracle(g, dir, sources, def)
						if want.Sources < maxSrc {
							early++
						} else {
							full++
						}
						ms := newMSBFS(g)
						ms.run(context.Background(), sources[:min(msLanes, maxSrc)], def.BatchSize, true, dir == Undirected)
						steps.add(ms)
					}
					for _, par := range []int{1, 2, 4, 7} {
						opt.Parallelism = par
						opt.Rand = rand.New(rand.NewPCG(uint64(maxSrc), uint64(batch)))
						got := SamplePathLengths(context.Background(), g, dir, opt)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %v MaxSources=%d BatchSize=%d P=%d:\n got %+v\nwant %+v",
								name, dir, maxSrc, batch, par, got, want)
						}
					}
				}
			}
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("table is one-sided: %d configurations stopped early, %d ran to MaxSources", early, full)
	}
	steps.check(t)
}

// levelTally counts the levels of msBFS runs by step kind.
type levelTally struct{ pushes, pulls int }

func (l *levelTally) add(s *msBFS) {
	l.pulls += s.pulls
	l.pushes += len(s.hist)/len(s.masks) - s.pulls
}

// check fails a table whose levels never pushed or never pulled.
func (l *levelTally) check(t *testing.T) {
	t.Helper()
	if l.pushes == 0 || l.pulls == 0 {
		t.Fatalf("table is one-sided: %d levels pushed, %d pulled", l.pushes, l.pulls)
	}
}

// TestPathLengthsDuplicateSources puts every lane of a pass on one
// node, and then alternates two nodes, so lanes sharing a frontier word
// from level 0 on are counted once each.
func TestPathLengthsDuplicateSources(t *testing.T) {
	g := testGraphs()["random"]
	for name, pick := range map[string]func(i int) NodeID{
		"all-same":  func(int) NodeID { return 17 },
		"alternate": func(i int) NodeID { return NodeID(5 + 200*(i%2)) },
	} {
		sources := make([]NodeID, 100)
		for i := range sources {
			sources[i] = pick(i)
		}
		opt := PathLengthOptions{MinSources: len(sources), MaxSources: len(sources), BatchSize: 24}
		opt.setDefaults()
		for _, dir := range []Direction{Directed, Undirected} {
			want := pathLengthsOracle(g, dir, sources, opt)
			for _, par := range []int{1, 4} {
				opt.Parallelism = par
				if got := pathLengthsFrom(context.Background(), g, dir, sources, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v P=%d:\n got %+v\nwant %+v", name, dir, par, got, want)
				}
			}
		}
	}
}

// karateClub is Zachary's karate club (34 members, 78 friendships) as a
// symmetric digraph.
func karateClub() *Graph {
	edges := [][2]NodeID{
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
	b := NewBuilder(34, 2*len(edges))
	for _, e := range edges {
		b.AddEdge(e[0]-1, e[1]-1)
		b.AddEdge(e[1]-1, e[0]-1)
	}
	return b.Build()
}

// TestPathLengthKnownAnswers checks exact all-pairs hop histograms that
// are known from the shape of the graph rather than from another kernel
// of this package: every node is a source once, so the sample is the
// full ordered-pair distance distribution. The 100-node ring and the
// 70-node chain exceed 64 sources, so their samples fold two passes.
// The double sweeps from nodes 0 to 3 find each fixture's diameter: the
// ring's and the chain's from node 0's far end, the star's through the
// hub (no leaf reaches another along out-edges, so 1 directed), the
// karate club's 5 from member 1's far node.
func TestPathLengthKnownAnswers(t *testing.T) {
	ring := NewBuilder(100, 100)
	for i := 0; i < 100; i++ {
		ring.AddEdge(NodeID(i), NodeID((i+1)%100))
	}
	chain := NewBuilder(70, 69)
	for i := 0; i < 69; i++ {
		chain.AddEdge(NodeID(i), NodeID(i+1))
	}
	star := NewBuilder(65, 64)
	for i := 1; i < 65; i++ {
		star.AddEdge(NodeID(i), 0)
	}
	complete := NewBuilder(20, 380)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			complete.AddEdge(NodeID(i), NodeID(j)) // the builder drops i == j
		}
	}
	seq := func(n int, f func(h int) int64) []int64 {
		out := make([]int64, n)
		for h := range out {
			out[h] = f(h)
		}
		return out
	}
	// Zachary's club: 78, 265, 137, 73 and 8 unordered pairs at 1..5
	// hops (mean 2.408, diameter 5), doubled for ordered pairs.
	karate := []int64{34, 156, 530, 274, 146, 16}
	fixtures := []struct {
		name                 string
		g                    *Graph
		directed, undirected []int64
		diameter             [2]int // directed, undirected
	}{
		{"ring", ring.Build(),
			seq(100, func(int) int64 { return 100 }),
			seq(51, func(h int) int64 {
				if h == 0 || h == 50 {
					return 100
				}
				return 200
			}), [2]int{99, 50}},
		{"chain", chain.Build(),
			seq(70, func(h int) int64 { return int64(70 - h) }),
			seq(70, func(h int) int64 {
				if h == 0 {
					return 70
				}
				return 2 * int64(70-h)
			}), [2]int{69, 69}},
		{"star", star.Build(), []int64{65, 64}, []int64{65, 128, 64 * 63}, [2]int{1, 2}},
		{"complete", complete.Build(), []int64{20, 380}, []int64{20, 380}, [2]int{1, 1}},
		{"karate", karateClub(), karate, karate, [2]int{5, 5}},
	}
	for _, fx := range fixtures {
		n := fx.g.NumNodes()
		sources := make([]NodeID, n)
		for i := range sources {
			sources[i] = NodeID(i)
		}
		for _, batch := range []int{n, 32} {
			for _, par := range []int{1, 3} {
				opt := PathLengthOptions{MinSources: n, MaxSources: n, BatchSize: batch, Parallelism: par}
				opt.setDefaults()
				for dir, want := range map[Direction][]int64{Directed: fx.directed, Undirected: fx.undirected} {
					got := pathLengthsFrom(context.Background(), fx.g, dir, sources, opt)
					if got.Sources != n || !reflect.DeepEqual(got.Counts, want) || got.Diameter != fx.diameter[dir] {
						t.Errorf("%s %v BatchSize=%d P=%d: %d sources, histogram %v, diameter bound %d, want %d, %v and %d",
							fx.name, dir, batch, par, got.Sources, got.Counts, got.Diameter, n, want, fx.diameter[dir])
					}
				}
			}
		}
	}
	if tri := Triangles(karateClub(), TriangleAuto, 1); tri.Total != 45 {
		t.Errorf("karate club fixture has %d triangles, want 45: the edge list is wrong", tri.Total)
	}
}

// TestMaxSourcesIsACap covers the regression where a caller setting
// only MaxSources below the default MinSources of 64 had it silently
// raised to 64.
func TestMaxSourcesIsACap(t *testing.T) {
	g := testGraphs()["random"]
	for _, opt := range []PathLengthOptions{
		{MaxSources: 8},
		{MaxSources: 3, BatchSize: 2},
		{MinSources: 100, MaxSources: 40},
	} {
		opt.Rand = rand.New(rand.NewPCG(1, 2))
		if got := SamplePathLengths(context.Background(), g, Directed, opt); got.Sources != opt.MaxSources {
			t.Errorf("MinSources=%d MaxSources=%d: ran %d sources, want exactly MaxSources",
				opt.MinSources, opt.MaxSources, got.Sources)
		}
	}
	// An explicit MinSources above the default cap still lifts it.
	unset := PathLengthOptions{MinSources: 5000}
	unset.setDefaults()
	if unset.MinSources != 5000 || unset.MaxSources != 5000 {
		t.Errorf("MinSources 5000 with no cap defaulted to [%d, %d]", unset.MinSources, unset.MaxSources)
	}
}

// cancelAfter reports cancellation once Err has been consulted more
// than allowed times, by whichever goroutines: a deadline landing at an
// arbitrary point of the sample.
type cancelAfter struct {
	context.Context
	calls   atomic.Int64
	allowed int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.allowed {
		return context.Canceled
	}
	return nil
}

// checkCancelPrefix runs the sample under every cancellation point,
// from "cancelled before the first level" up to the first run that
// finishes unhindered, at P = 1, 2, 3 and 8, and requires the property
// cancellation accounting exists for: whatever Sources a cancelled run
// reports, the result — half-width included — is the oracle's over
// exactly the first Sources sources, and never runs past where the
// uncancelled sample stops. Crediting a source whose BFS did not
// finish, or a finished one out of order, breaks the equality. The
// diameter bound may instead be the first sweeps' alone, when the
// cancellation landed in the return sweeps. opt must be defaulted.
func checkCancelPrefix(t *testing.T, g View, dir Direction, sources []NodeID, opt PathLengthOptions) {
	t.Helper()
	full := pathLengthsOracle(g, dir, sources, opt)
	for _, par := range []int{1, 2, 3, 8} {
		opt.Parallelism = par
		for allowed := int64(0); ; allowed++ {
			ctx := &cancelAfter{Context: context.Background(), allowed: allowed}
			got := pathLengthsFrom(ctx, g, dir, sources, opt)
			if got.Sources > full.Sources {
				t.Fatalf("P=%d allowed=%d: Sources = %d, past the uncancelled sample's %d", par, allowed, got.Sources, full.Sources)
			}
			if allowed == 0 && got.Sources != 0 {
				t.Fatalf("P=%d: a sample cancelled before its first level credited %d sources", par, got.Sources)
			}
			want := pathLengthsOracle(g, dir, sources[:got.Sources], opt)
			// Only a one-pass sample can have been cut in its return
			// sweeps: they finish before the second pass starts.
			if first, _ := doubleSweepPerSource(g, dir, sources[:min(diameterSweeps, got.Sources)]); got.Sources > 0 && got.Sources <= msLanes && got.Diameter == first {
				want.Diameter = first
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d allowed=%d: cancelled sample\n got %+v\nwant %+v (the first %d sources, uncancelled)",
					par, allowed, got, want, got.Sources)
			}
			if ctx.calls.Load() <= allowed {
				if !reflect.DeepEqual(got, full) {
					t.Fatalf("P=%d: an uncancelled sample\n got %+v\nwant %+v", par, got, full)
				}
				break
			}
		}
	}
}

// TestSamplePathLengthsCancelMidBatchAccounting covers the regression
// where cancellation inside a batch still credited the whole batch to
// Sources. On a triangle every completed source reaches exactly 3
// nodes, so the prefix property reads Reachable = 3·Sources; the 150
// sources span three passes, each ending in a 4-lane remainder batch.
func TestSamplePathLengthsCancelMidBatchAccounting(t *testing.T) {
	g := triangle()
	sources := make([]NodeID, 150)
	for i := range sources {
		sources[i] = NodeID(i % 3)
	}
	opt := PathLengthOptions{MinSources: len(sources), MaxSources: len(sources), BatchSize: 20}
	opt.setDefaults()
	checkCancelPrefix(t, g, Directed, sources, opt)
}

// TestBFSBatchCancelPrefixConsistency covers the P>1 cancellation
// regression: concurrent workers finish a scattered subset of the
// sample, and merging all of it while reporting its size as a prefix
// credits later sources' distances to earlier positions. On the chain
// every start node reaches a different number of nodes, so crediting
// the wrong sources shows in the histogram.
func TestBFSBatchCancelPrefixConsistency(t *testing.T) {
	g := testGraphs()["chain"]
	sources := make([]NodeID, 300)
	for i := range sources {
		sources[i] = NodeID(i * 7 % 40)
	}
	opt := PathLengthOptions{MinSources: len(sources), MaxSources: len(sources), BatchSize: 24}
	opt.setDefaults()
	for _, dir := range []Direction{Directed, Undirected} {
		t.Run(fmt.Sprint(dir), func(t *testing.T) { checkCancelPrefix(t, g, dir, sources, opt) })
	}
}

// TestPathLengthsStopAtHalfWidth checks the stopping rule itself. The
// oracle gives the half-width after each 64-source pass; with the
// target set to the smallest of them between the first and the last
// pass, the sample must end at the first pass within it and report that
// pass's half-width, at P = 1, 2, 3 and 8 and under every cancellation
// point. A MinSources past that pass must hold the stop back.
func TestPathLengthsStopAtHalfWidth(t *testing.T) {
	for _, name := range []string{"random", "sparse"} {
		g := testGraphs()[name]
		rng := rand.New(rand.NewPCG(31, 32))
		sources := make([]NodeID, 6*msLanes)
		for i := range sources {
			sources[i] = NodeID(rng.IntN(g.NumNodes()))
		}
		for _, dir := range []Direction{Directed, Undirected} {
			opt := PathLengthOptions{MinSources: len(sources), MaxSources: len(sources)}
			opt.setDefaults()
			var hw []float64
			for end := msLanes; end <= len(sources); end += msLanes {
				hw = append(hw, pathLengthsOracle(g, dir, sources[:end], opt).HalfWidth)
			}
			opt.Tolerance = slices.Min(hw[1 : len(hw)-1])
			stop := slices.IndexFunc(hw, func(h float64) bool { return h <= opt.Tolerance })
			if stop == 0 {
				t.Fatalf("%s %v: half-widths %v reach their inner minimum at the first pass", name, dir, hw)
			}
			opt.MinSources = msLanes
			want := pathLengthsOracle(g, dir, sources, opt)
			if want.Sources != (stop+1)*msLanes || want.HalfWidth != hw[stop] || want.HalfWidth > opt.Tolerance {
				t.Fatalf("%s %v: oracle stopped at %d sources, ±%v; half-widths per pass %v, target %v",
					name, dir, want.Sources, want.HalfWidth, hw, opt.Tolerance)
			}
			for _, par := range []int{1, 2, 3, 8} {
				opt.Parallelism = par
				if got := pathLengthsFrom(context.Background(), g, dir, sources, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v P=%d:\n got %+v\nwant %+v", name, dir, par, got, want)
				}
			}
			checkCancelPrefix(t, g, dir, sources, opt)
			opt.MinSources = want.Sources + 1
			if got := pathLengthsFrom(context.Background(), g, dir, sources, opt); got.Sources <= want.Sources {
				t.Fatalf("%s %v: MinSources %d, but the sample stopped at %d", name, dir, opt.MinSources, got.Sources)
			}
		}
	}
}

// TestRatioHalfWidth checks the estimator against half-widths worked by
// hand.
func TestRatioHalfWidth(t *testing.T) {
	for _, tc := range []struct {
		batches []batchSum
		want    float64
	}{
		// R = 3, residuals ∓10, s² = 200, SE = √(200/2)/10 = 1.
		{[]batchSum{{10, 20}, {10, 40}}, 1.96},
		// Unequal batches: R = 48/16 = 3, residuals −4, 0, 4, s² = 16,
		// SE = √(16/3)/(16/3) = √3/4.
		{[]batchSum{{4, 8}, {8, 24}, {4, 16}}, 1.96 * math.Sqrt(3) / 4},
		// Every batch at the same mean: no spread.
		{[]batchSum{{5, 10}, {7, 14}}, 0},
		{[]batchSum{{5, 10}}, math.Inf(1)},
		{nil, math.Inf(1)},
	} {
		if got := ratioHalfWidth(tc.batches); math.Abs(got-tc.want) > 1e-12 && got != tc.want {
			t.Errorf("ratioHalfWidth(%v) = %v, want %v", tc.batches, got, tc.want)
		}
	}
}
