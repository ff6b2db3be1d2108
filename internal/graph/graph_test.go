package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// triangle builds 0->1->2->0.
func triangle() *Graph { return FromEdges(3, 0, 1, 1, 2, 2, 0) }

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 1) // self-loop
	b.AddEdge(2, 0)
	g := b.Build()
	if got := g.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dup and self-loop dropped)", got)
	}
	if !HasArc(g, 0, 1) || !HasArc(g, 2, 0) {
		t.Fatalf("expected edges 0->1 and 2->0")
	}
	if HasArc(g, 1, 1) {
		t.Fatalf("self-loop should have been dropped")
	}
	if err := validate(g); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestDegrees(t *testing.T) {
	g := FromEdges(4, 0, 1, 0, 2, 0, 3, 1, 0)
	if got := g.OutDegree(0); got != 3 {
		t.Errorf("OutDegree(0) = %d, want 3", got)
	}
	if got := g.InDegree(0); got != 1 {
		t.Errorf("InDegree(0) = %d, want 1", got)
	}
	if got := g.InDegree(2); got != 1 {
		t.Errorf("InDegree(2) = %d, want 1", got)
	}
	if got := AvgDegree(g); got != 1.0 {
		t.Errorf("AvgDegree = %v, want 1.0", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if AvgDegree(g) != 0 {
		t.Fatalf("AvgDegree of empty graph = %v", AvgDegree(g))
	}
	scc := SCC(g)
	if scc.Count != 0 {
		t.Fatalf("SCC count = %d, want 0", scc.Count)
	}
	if f := scc.GiantFraction(); f != 0 {
		t.Fatalf("GiantFraction = %v, want 0", f)
	}
}

func TestIsolatedNodes(t *testing.T) {
	// Node 5 forces node count to 6 with nodes 3,4 isolated.
	g := FromEdges(6, 0, 1, 5, 0)
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
	if d := g.OutDegree(3); d != 0 {
		t.Fatalf("isolated node out-degree = %d", d)
	}
	w := WCC(g, 1)
	if w.Count != 4 { // {0,1,5}, {2}, {3}, {4}
		t.Fatalf("WCC count = %d, want 4", w.Count)
	}
}

func randomGraph(n, m int, rng *rand.Rand) *Graph {
	b := NewBuilder(n, m)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	if b.n < n {
		b.n = n
	}
	return b.Build()
}

func TestGraphPropertyAdjacencySorted(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 2 + r.IntN(50)
		g := randomGraph(n, 3*n, r)
		return validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphPropertyInOutConsistent(t *testing.T) {
	// Every out-edge u->v must appear as an in-edge at v, and totals match.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, ^seed))
		n := 2 + r.IntN(40)
		g := randomGraph(n, 4*n, r)
		var outTotal, inTotal int
		for u := 0; u < n; u++ {
			outTotal += g.OutDegree(NodeID(u))
			inTotal += g.InDegree(NodeID(u))
			for _, v := range g.Out(NodeID(u)) {
				found := false
				for _, w := range g.In(v) {
					if w == NodeID(u) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return outTotal == inTotal && int64(outTotal) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHasArc(t *testing.T) {
	g := triangle()
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {1, 2, true}, {2, 0, true},
		{1, 0, false}, {2, 1, false}, {0, 2, false},
	}
	for _, c := range cases {
		if got := HasArc(g, c.u, c.v); got != c.want {
			t.Errorf("HasArc(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

// TestLinkedPairsMatchesHasArc: the batched kernel answers every pair
// as two HasArc probes do — repeated pairs, self pairs and nodes that
// are never asked about included — at any parallelism.
func TestLinkedPairsMatchesHasArc(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 29))
		n := 1 + rng.IntN(60)
		g := randomGraph(n, rng.IntN(4*n), rng)
		pairs := make([][2]NodeID, rng.IntN(6*n))
		for i := range pairs {
			pairs[i] = [2]NodeID{NodeID(rng.IntN(n)), NodeID(rng.IntN(n))}
		}
		for _, par := range []int{1, 2, 5} {
			linked := make([]bool, len(pairs))
			LinkedPairs(g, pairs, linked, par)
			for i, p := range pairs {
				if want := HasArc(g, p[0], p[1]) || HasArc(g, p[1], p[0]); linked[i] != want {
					t.Fatalf("seed %d P=%d: pair %d %v linked=%v, HasArc says %v", seed, par, i, p, linked[i], want)
				}
			}
		}
	}
}
