package graph

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSCCTriangle(t *testing.T) {
	res := SCC(triangle())
	if res.Count != 1 {
		t.Fatalf("SCC count = %d, want 1", res.Count)
	}
	if res.GiantSize() != 3 {
		t.Fatalf("giant = %d, want 3", res.GiantSize())
	}
}

func TestSCCChain(t *testing.T) {
	// 0->1->2->3: four singleton components.
	g := FromEdges(4, 0, 1, 1, 2, 2, 3)
	res := SCC(g)
	if res.Count != 4 {
		t.Fatalf("SCC count = %d, want 4", res.Count)
	}
	if res.GiantSize() != 1 {
		t.Fatalf("giant = %d, want 1", res.GiantSize())
	}
}

func TestSCCTwoCyclesBridged(t *testing.T) {
	// cycle {0,1,2}, cycle {3,4}, bridge 2->3.
	g := FromEdges(5, 0, 1, 1, 2, 2, 0, 3, 4, 4, 3, 2, 3)
	res := SCC(g)
	if res.Count != 2 {
		t.Fatalf("SCC count = %d, want 2", res.Count)
	}
	if res.Comp[0] != res.Comp[1] || res.Comp[1] != res.Comp[2] {
		t.Errorf("nodes 0,1,2 should share a component: %v", res.Comp)
	}
	if res.Comp[3] != res.Comp[4] {
		t.Errorf("nodes 3,4 should share a component: %v", res.Comp)
	}
	if res.Comp[0] == res.Comp[3] {
		t.Errorf("the two cycles must be distinct components: %v", res.Comp)
	}
}

func TestSCCDeepChainIterative(t *testing.T) {
	// A 200k-node path would blow a recursive Tarjan's stack; the
	// iterative version must handle it.
	const n = 200_000
	b := NewBuilder(n, n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	res := SCC(b.Build())
	if res.Count != n {
		t.Fatalf("SCC count = %d, want %d", res.Count, n)
	}
}

// sccRefCheck verifies the SCC partition: u,v share a component iff v is
// reachable from u and u from v. O(n^2) — small graphs only.
func sccRefCheck(g *Graph, res *SCCResult) bool {
	n := g.NumNodes()
	reach := make([][]bool, n)
	var dist []int32
	for u := 0; u < n; u++ {
		dist = BFSDistances(g, NodeID(u), Directed, dist)
		reach[u] = make([]bool, n)
		for v, d := range dist {
			reach[u][v] = d >= 0
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			same := res.Comp[u] == res.Comp[v]
			mutual := reach[u][v] && reach[v][u]
			if same != mutual {
				return false
			}
		}
	}
	return true
}

func TestSCCPropertyMatchesReachability(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed*2654435761))
		n := 2 + r.IntN(25)
		g := randomGraph(n, 2*n, r)
		return sccRefCheck(g, SCC(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCPropertySizesPartition(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed+7))
		n := 1 + r.IntN(60)
		g := randomGraph(n, 3*n, r)
		res := SCC(g)
		var total int32
		for _, s := range res.Sizes {
			if s <= 0 {
				return false
			}
			total += s
		}
		return int(total) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWCC(t *testing.T) {
	// Two weak components: {0,1,2} and {3,4}.
	g := FromEdges(5, 0, 1, 2, 1, 3, 4)
	res := WCC(g, 1)
	if res.Count != 2 {
		t.Fatalf("WCC count = %d, want 2", res.Count)
	}
	if res.GiantSize() != 3 {
		t.Fatalf("giant WCC = %d, want 3", res.GiantSize())
	}
	if res.Comp[0] != res.Comp[2] {
		t.Errorf("0 and 2 weakly connected through 1")
	}
}

func TestWCCPropertyCoarserThanSCC(t *testing.T) {
	// Every SCC must be contained in exactly one WCC.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^42))
		n := 2 + r.IntN(40)
		g := randomGraph(n, 2*n, r)
		scc, wcc := SCC(g), WCC(g, 1)
		owner := make(map[int32]int32)
		for u := 0; u < n; u++ {
			c := scc.Comp[u]
			if w, ok := owner[c]; ok {
				if w != wcc.Comp[u] {
					return false
				}
			} else {
				owner[c] = wcc.Comp[u]
			}
		}
		return wcc.Count <= scc.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSDistances(t *testing.T) {
	// 0->1->2->3, plus shortcut 0->2.
	g := FromEdges(4, 0, 1, 1, 2, 2, 3, 0, 2)
	d := BFSDistances(g, 0, Directed, nil)
	want := []int32{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	// Node 3 cannot reach anything in the directed view.
	d = BFSDistances(g, 3, Directed, d)
	if d[0] != -1 || d[3] != 0 {
		t.Errorf("directed from 3: %v", d)
	}
	// Undirected view reaches everything.
	d = BFSDistances(g, 3, Undirected, d)
	if d[0] != 2 { // 3-2-0 via shortcut
		t.Errorf("undirected dist 3->0 = %d, want 2", d[0])
	}
}

func TestSamplePathLengths(t *testing.T) {
	// Directed ring of 8: distances from any source are 0..7 exactly once.
	b := NewBuilder(8, 8)
	for i := 0; i < 8; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%8))
	}
	g := b.Build()
	rng := rand.New(rand.NewPCG(5, 6))
	dist := SamplePathLengths(context.Background(), g, Directed, PathLengthOptions{
		MinSources: 4, MaxSources: 16, BatchSize: 4, Rand: rng,
	})
	if dist.Sources == 0 || dist.Reachable == 0 {
		t.Fatalf("no samples collected: %+v", dist)
	}
	if len(dist.Counts) != 8 || dist.Counts[7] == 0 {
		t.Errorf("hop counts = %v, want the largest observed distance to be 7", dist.Counts)
	}
	// Ring distances are uniform on 0..7 so the mean is 3.5.
	if m := dist.Mean(); math.Abs(m-3.5) > 1e-9 {
		t.Errorf("Mean = %v, want 3.5", m)
	}
	prob := dist.Probability()
	var sum float64
	for _, p := range prob {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestSamplePathLengthsParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g := randomGraph(400, 2000, rng)
	run := func(par int) *PathLengthDist {
		return SamplePathLengths(context.Background(), g, Directed, PathLengthOptions{
			MinSources: 32, MaxSources: 128, BatchSize: 16,
			Parallelism: par,
			Rand:        rand.New(rand.NewPCG(9, 9)),
		})
	}
	base := run(1)
	for _, par := range []int{2, 4, 7} {
		got := run(par)
		if got.Sources != base.Sources || got.Reachable != base.Reachable {
			t.Fatalf("parallelism %d changed totals: %+v vs %+v", par, got, base)
		}
		for h := range base.Counts {
			if got.Counts[h] != base.Counts[h] {
				t.Fatalf("parallelism %d changed histogram at hop %d", par, h)
			}
		}
	}
}

func TestSamplePathLengthsCancel(t *testing.T) {
	g := triangle()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dist := SamplePathLengths(ctx, g, Directed, PathLengthOptions{Rand: rand.New(rand.NewPCG(1, 1))})
	if dist.Sources != 0 {
		t.Fatalf("cancelled sampling still ran %d sources", dist.Sources)
	}
}

func TestSamplePathLengthsMatchesExactAllPairs(t *testing.T) {
	// On a small graph, sampling every node as a source must equal the
	// exact all-pairs distance histogram.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed+13))
		n := 5 + r.IntN(30)
		g := randomGraph(n, 3*n, r)

		exact := make(map[int]int64)
		var total int64
		var dist []int32
		for u := 0; u < n; u++ {
			dist = BFSDistances(g, NodeID(u), Directed, dist)
			for _, d := range dist {
				if d >= 0 {
					exact[int(d)]++
					total++
				}
			}
		}

		// Force the sampler to use n sources drawn uniformly; with
		// replacement it will not be exact, so instead verify that a
		// no-early-stop full pass over *sampled* sources is internally
		// consistent and bounded by the exact support.
		res := SamplePathLengths(context.Background(), g, Directed, PathLengthOptions{
			MinSources: n, MaxSources: n, BatchSize: n, Tolerance: 1e-12,
			Rand: rand.New(rand.NewPCG(seed, 1)),
		})
		if res.Sources != n {
			return false
		}
		maxExact := 0
		for h := range exact {
			if h > maxExact {
				maxExact = h
			}
		}
		for h, c := range res.Counts {
			if c > 0 && h > maxExact {
				return false // sampled a distance that cannot exist
			}
		}
		var sum int64
		for _, c := range res.Counts {
			sum += c
		}
		return sum == res.Reachable && res.Reachable <= total*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleSweepDiameter(t *testing.T) {
	// Undirected path 0-1-2-3-4 has diameter 4.
	g := FromEdges(5, 0, 1, 1, 2, 2, 3, 3, 4)
	rng := rand.New(rand.NewPCG(9, 9))
	for _, par := range []int{1, 3} {
		if got := DoubleSweepDiameter(context.Background(), g, Undirected, 4, rng, par); got != 4 {
			t.Errorf("undirected diameter bound at P=%d = %d, want 4", par, got)
		}
		if got := DoubleSweepDiameter(context.Background(), g, Directed, 4, rng, par); got != 4 {
			t.Errorf("directed diameter bound at P=%d = %d, want 4", par, got)
		}
	}
}

// farthest scans one BFS's distances for the lowest-id node at the
// greatest distance, src itself when nothing else is reachable.
func farthest(dist []int32, src NodeID) (far NodeID, farD int32) {
	far = src
	for v, d := range dist {
		if d > farD {
			far, farD = NodeID(v), d
		}
	}
	return far, farD
}

// doubleSweepPerSource is the reference double sweep: one BFS per
// restart and hop.
func doubleSweepPerSource(g View, dir Direction, sweeps int, rng *rand.Rand) int {
	starts := make([]NodeID, sweeps)
	for i := range starts {
		starts[i] = NodeID(rng.IntN(g.NumNodes()))
	}
	scratch, best := newBFSScratch(g, nil), int32(0)
	for _, src := range starts {
		for hop := 0; hop < 2; hop++ {
			back := dir == Directed && hop == 1
			far, farD := farthest(scratch.run(src, !back, back || dir == Undirected), src)
			best, src = max(best, farD), far
		}
	}
	return int(best)
}

// TestDoubleSweepMatchesPerSourceBFS: riding the multi-source kernel
// changes no bound. Sparse seeded random graphs keep isolated nodes
// (restarts that go nowhere), several components and ties for the far
// node; 70 restarts cross the 64-lane boundary. The lanes' own far
// nodes and eccentricities are held to the scan as well, since the
// bound is a max that could hide one wrong lane; those runs must have
// both pushed and pulled.
func TestDoubleSweepMatchesPerSourceBFS(t *testing.T) {
	isolatedStart := false
	var steps levelTally
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 28))
		n := 1 + rng.IntN(80)
		g := randomGraph(n, rng.IntN(2*n), rng)
		for _, dir := range []Direction{Directed, Undirected} {
			for _, sweeps := range []int{1, 4, 70} {
				want := doubleSweepPerSource(g, dir, sweeps, rand.New(rand.NewPCG(seed, 5)))
				for _, par := range []int{1, 3} {
					if got := DoubleSweepDiameter(context.Background(), g, dir, sweeps, rand.New(rand.NewPCG(seed, 5)), par); got != want {
						t.Fatalf("seed %d, %d nodes, %v, %d sweeps, P=%d: bound %d, per-source reference %d", seed, n, dir, sweeps, par, got, want)
					}
				}
			}
		}
		ms, scratch := newMSBFS(g), newBFSScratch(g, nil)
		ms.trackFar()
		sources := make([]NodeID, msLanes)
		for i := range sources {
			sources[i] = NodeID(rng.IntN(n))
		}
		for _, mode := range [][2]bool{{true, false}, {false, true}, {true, true}} {
			ms.run(context.Background(), sources, len(sources), mode[0], mode[1])
			steps.add(ms)
			for lane, src := range sources {
				if far, ecc := farthest(scratch.run(src, mode[0], mode[1]), src); ms.far[lane] != far || ms.ecc[lane] != ecc {
					t.Fatalf("seed %d, out=%v in=%v, lane %d from %d: far %d at %d, the scan finds %d at %d",
						seed, mode[0], mode[1], lane, src, ms.far[lane], ms.ecc[lane], far, ecc)
				}
			}
		}
		first := NodeID(rand.New(rand.NewPCG(seed, 5)).IntN(n))
		isolatedStart = isolatedStart || g.OutDegree(first)+g.InDegree(first) == 0
	}
	if !isolatedStart {
		t.Fatal("no graph started a sweep on an isolated node")
	}
	steps.check(t)
}

func TestClusteringCoefficient(t *testing.T) {
	// 0 points at 1,2,3; among them only 1->2 exists.
	// C(0) = 1 / (3*2) = 1/6.
	g := FromEdges(4, 0, 1, 0, 2, 0, 3, 1, 2)
	c, ok := ClusteringCoefficient(g, 0)
	if !ok {
		t.Fatal("node 0 should be eligible")
	}
	if math.Abs(c-1.0/6.0) > 1e-12 {
		t.Errorf("C(0) = %v, want 1/6", c)
	}
	// Node 1 has out-degree 1: ineligible.
	if _, ok := ClusteringCoefficient(g, 1); ok {
		t.Error("node 1 should be ineligible (out-degree < 2)")
	}
	// Fully reciprocal triangle: every pair of out-neighbors connected.
	full := FromEdges(3, 0, 1, 0, 2, 1, 0, 1, 2, 2, 0, 2, 1)
	c, ok = ClusteringCoefficient(full, 0)
	if !ok || c != 1.0 {
		t.Errorf("complete digraph C(0) = %v, want 1", c)
	}
}

func TestClusteringPropertyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed|1))
		n := 3 + r.IntN(40)
		g := randomGraph(n, 4*n, r)
		for u := 0; u < n; u++ {
			if c, ok := ClusteringCoefficient(g, NodeID(u)); ok {
				if c < 0 || c > 1 || math.IsNaN(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalReciprocity(t *testing.T) {
	// 3 edges, 2 of them in a mutual pair => 2/3.
	g := FromEdges(3, 0, 1, 1, 0, 0, 2)
	got := GlobalReciprocity(g, 1)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("GlobalReciprocity = %v, want 2/3", got)
	}
	if r := GlobalReciprocity(NewBuilder(0, 0).Build(), 1); r != 0 {
		t.Errorf("empty graph reciprocity = %v", r)
	}
}

func TestReciprocityPropertyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed<<1|1))
		n := 2 + r.IntN(50)
		g := randomGraph(n, 3*n, r)
		gr := GlobalReciprocity(g, 1)
		if gr < 0 || gr > 1 {
			return false
		}
		for _, rr := range AllReciprocities(g, 1) {
			if rr < 0 || rr > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFullyReciprocalGraph(t *testing.T) {
	// An undirected-style graph (all edges mutual) has reciprocity 1.
	b := NewBuilder(10, 40)
	r := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 20; i++ {
		u, v := NodeID(r.IntN(10)), NodeID(r.IntN(10))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		b.AddEdge(v, u)
	}
	g := b.Build()
	if gr := GlobalReciprocity(g, 1); gr != 1.0 {
		t.Errorf("GlobalReciprocity = %v, want 1", gr)
	}
	for _, rr := range AllReciprocities(g, 1) {
		if rr != 1.0 {
			t.Errorf("RR = %v, want 1", rr)
		}
	}
}

func TestTopByInDegree(t *testing.T) {
	// in-degrees: node0=0, node1=1, node2=2, node3=3.
	g := FromEdges(4,
		0, 3, 1, 3, 2, 3,
		0, 2, 1, 2,
		0, 1)
	top := TopByInDegree(g, 2, 1)
	if len(top) != 2 || top[0] != 3 || top[1] != 2 {
		t.Fatalf("top = %v, want [3 2]", top)
	}
	all := TopByInDegree(g, 10, 1)
	if len(all) != 4 {
		t.Fatalf("top-10 of 4 nodes = %v", all)
	}
	want := []NodeID{3, 2, 1, 0}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("all = %v, want %v", all, want)
		}
	}
	if got := TopByInDegree(g, 0, 1); got != nil {
		t.Fatalf("top-0 = %v, want nil", got)
	}
}

func TestTopByInDegreeTies(t *testing.T) {
	// Both 1 and 2 have in-degree 1: smaller id wins the tie.
	g := FromEdges(3, 0, 1, 0, 2)
	top := TopByInDegree(g, 1, 1)
	if len(top) != 1 || top[0] != 1 {
		t.Fatalf("top = %v, want [1]", top)
	}
}

func TestInOutDegreeSlices(t *testing.T) {
	g := FromEdges(3, 0, 1, 0, 2, 1, 2)
	in, out := InDegrees(g, 1), OutDegrees(g, 1)
	if in[2] != 2 || out[0] != 2 || in[0] != 0 || out[2] != 0 {
		t.Fatalf("in=%v out=%v", in, out)
	}
}
