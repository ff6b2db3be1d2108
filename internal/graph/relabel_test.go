package graph

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// randomPermutation is a seeded random numbering of n nodes: perm[v] is
// node v's new id.
func randomPermutation(n int, seed uint64) []NodeID {
	perm := make([]NodeID, n)
	for v := range perm {
		perm[v] = NodeID(v)
	}
	rand.New(rand.NewPCG(seed, seed^0x5851f42d)).Shuffle(n, func(i, j int) {
		perm[i], perm[j] = perm[j], perm[i]
	})
	return perm
}

// relabel is g under the numbering perm: node v becomes perm[v], and
// every arc u→v becomes perm[u]→perm[v]. Any exact output that is a
// property of the graph must come out equal, or equal after mapping
// per-node slots through perm (permuteSlots).
func relabel(g View, perm []NodeID) *Graph {
	n := g.NumNodes()
	b := NewBuilder(n, int(g.NumEdges()))
	if n > 0 {
		b.EnsureNode(NodeID(n - 1))
	}
	rows := g.Rows()
	for u := 0; u < n; u++ {
		for _, v := range rows.Out(NodeID(u)) {
			b.AddEdge(perm[u], perm[v])
		}
	}
	return b.Build()
}

// permuteSlots maps a per-node slice of the original graph onto the
// relabelled one: out[perm[v]] = in[v].
func permuteSlots[T any](in []T, perm []NodeID) []T {
	out := make([]T, len(in))
	for v, x := range in {
		out[perm[v]] = x
	}
	return out
}

// heavyTailedGraph is a small digraph with a preferential head: half of
// every node's arcs land in the first 2% of ids, and a third of all
// arcs are reciprocated, so the projection has hubs, all three dyad
// kinds and many closed triples.
func heavyTailedGraph(n int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	b := NewBuilder(n, 10*n)
	for u := 0; u < n; u++ {
		for e := 1 + rng.IntN(12); e > 0; e-- {
			v := NodeID(rng.IntN(n))
			if rng.IntN(2) == 0 {
				v = NodeID(rng.IntN(max(1, n/50)))
			}
			b.AddEdge(NodeID(u), v)
			if rng.IntN(3) == 0 {
				b.AddEdge(v, NodeID(u))
			}
		}
	}
	return b.Build()
}

// TestTriadsRelabelInvariant: the half rows are filled in the view's id
// order, not rank order, so the enumeration must not depend on how the
// nodes are numbered. Under a seeded random relabelling the census and
// triangle total are equal, and the per-node triangle counts and
// clustering links equal after mapping through the permutation, at
// P = 1, 2 and 8.
func TestTriadsRelabelInvariant(t *testing.T) {
	graphs := testGraphs()
	graphs["heavy"] = heavyTailedGraph(3000, 11)
	for name, g := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			perm := randomPermutation(g.NumNodes(), seed)
			h := relabel(g, perm)
			want := triads(g, 1)
			wantPerNode := permuteSlots(want.Triangles.PerNode, perm)
			wantLinks := permuteSlots(want.Links, perm)
			for _, par := range []int{1, 2, 8} {
				got := triads(h, par)
				where := fmt.Sprintf("%s seed %d P=%d", name, seed, par)
				if got.Census != want.Census {
					t.Errorf("%s: census %+v, original numbering %+v", where, got.Census, want.Census)
				}
				if got.Triangles.Total != want.Triangles.Total {
					t.Errorf("%s: %d triangles, original numbering %d", where, got.Triangles.Total, want.Triangles.Total)
				}
				if !reflect.DeepEqual(got.Triangles.PerNode, wantPerNode) {
					t.Errorf("%s: per-node triangle counts differ after mapping through the permutation", where)
				}
				if !reflect.DeepEqual(got.Links, wantLinks) {
					t.Errorf("%s: clustering links differ after mapping through the permutation", where)
				}
			}
		}
	}
}
