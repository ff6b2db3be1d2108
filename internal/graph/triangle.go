package graph

import (
	"context"
	"fmt"
	"sort"
)

// Exact triangle counting over the undirected projection of the crawl
// graph (u—v iff u→v or v→u), replacing the sampled clustering estimate
// of §3.3.3 with exact counts. The production kernel is Triads — the
// Sandia lowest-rank orientation over a degree-ordered half-graph
// streamed from the view. This file holds the result type and the
// reference the tests compare the kernel against: Cohen's wedge-check
// over the materialized projection, which shares neither the
// orientation nor the marking enumeration with it. Both honor the package
// determinism contract: results are byte-identical at any parallelism.

// TriangleMethod selects a triangle-counting kernel.
type TriangleMethod int

const (
	// TriangleAuto is the production kernel, TriangleSandiaLL.
	TriangleAuto TriangleMethod = iota
	// TriangleCohen is the wedge-check: for every wedge (v, u, w)
	// centered at u with v < w, probe whether the closing edge {v,w}
	// exists. Work is Σ_u C(deg(u),2) probes — quadratic on the
	// heavy-tailed head, so it is the reference for test-sized graphs,
	// not a kernel for crawl-sized ones.
	TriangleCohen
	// TriangleSandiaLL orients each edge from lower to higher degree
	// rank and intersects the oriented rows, counting each triangle
	// exactly once at its lowest-rank corner. The orientation bounds
	// every list by O(√m) on arbitrary graphs — the method of choice
	// for skewed degree distributions.
	TriangleSandiaLL
)

func (m TriangleMethod) String() string {
	switch m {
	case TriangleAuto:
		return "auto"
	case TriangleCohen:
		return "cohen"
	case TriangleSandiaLL:
		return "sandia-ll"
	}
	return fmt.Sprintf("TriangleMethod(%d)", int(m))
}

// TriangleResult holds an exact triangle census of the undirected
// projection.
type TriangleResult struct {
	// Method is the kernel that ran (the resolved method, never
	// TriangleAuto).
	Method TriangleMethod
	// Total is the number of distinct triangles in the projection.
	Total int64
	// PerNode[u] is the number of triangles containing node u;
	// Σ PerNode = 3·Total.
	PerNode []int64
	// Wedges is the number of unordered wedges (paths of length two),
	// Σ_u C(deg(u), 2) over the projection — the denominator of the
	// global transitivity ratio.
	Wedges int64
}

// Transitivity returns the global transitivity ratio 3·Total/Wedges
// (the fraction of wedges that close), or 0 for a wedge-free graph.
func (r *TriangleResult) Transitivity() float64 {
	if r.Wedges == 0 {
		return 0
	}
	return 3 * float64(r.Total) / float64(r.Wedges)
}

// undirected is the symmetrized projection of a Graph in CSR form:
// adj[off[u]:off[u+1]] lists, sorted ascending, every v ≠ u with u→v or
// v→u. Only the Cohen reference materializes it.
type undirected struct {
	off []int64
	adj []NodeID
}

func (u *undirected) numNodes() int { return len(u.off) - 1 }

func (u *undirected) nbr(v NodeID) []NodeID { return u.adj[u.off[v]:u.off[v+1]] }

func (u *undirected) deg(v NodeID) int { return int(u.off[v+1] - u.off[v]) }

// hasEdge reports whether {a, b} is an edge, probing the smaller
// adjacency list.
func (u *undirected) hasEdge(a, b NodeID) bool {
	if u.deg(a) > u.deg(b) {
		a, b = b, a
	}
	n := u.nbr(a)
	i := sort.Search(len(n), func(k int) bool { return n[k] >= b })
	return i < len(n) && n[i] == b
}

// buildUndirected symmetrizes g: each node's out- and in-lists (both
// already sorted) merge into one sorted, deduplicated neighbor list. Two
// passes — size then fill — so the CSR arrays are allocated exactly
// once; both passes shard over the directed workBounds.
func buildUndirected(g View, parallelism int) *undirected {
	n := g.NumNodes()
	u := &undirected{off: make([]int64, n+1)}
	bounds := viewWorkBounds(g, parallelism)
	// Pass 1: per-node union sizes into off[v+1].
	runShards(bounds, func(_, lo, hi int) {
		rows := g.Rows()
		for v := lo; v < hi; v++ {
			out, in := rows.Out(NodeID(v)), rows.In(NodeID(v))
			u.off[v+1] = int64(len(out) + len(in) - sortedIntersectionSize(out, in))
		}
	})
	for v := 0; v < n; v++ {
		u.off[v+1] += u.off[v]
	}
	u.adj = make([]NodeID, u.off[n])
	// Pass 2: fill each node's slice; shards own disjoint ranges.
	runShards(bounds, func(_, lo, hi int) {
		rows := g.Rows()
		for v := lo; v < hi; v++ {
			row := u.nbr(NodeID(v))[:0]
			out, in := rows.Out(NodeID(v)), rows.In(NodeID(v))
			for i, j := 0, 0; i < len(out) || j < len(in); {
				var w NodeID
				w, _, i, j = nextDyad(out, in, i, j)
				row = append(row, w)
			}
		}
	})
	return u
}

// Triangles counts every triangle in the undirected projection of g
// exactly, using the requested kernel: the Triangles of Triads, or the
// Cohen reference. The result — total, per-node counts, and wedge count
// — is byte-identical for any parallelism.
func Triangles(g View, method TriangleMethod, parallelism int) *TriangleResult {
	switch method {
	case TriangleAuto, TriangleSandiaLL:
		res, _ := Triads(context.Background(), g, parallelism) // never cancelled
		tri := res.Triangles                                   // a copy: the result must not pin Links
		return &tri
	case TriangleCohen:
		return triCohen(buildUndirected(g, parallelism), parallelism)
	}
	panic(fmt.Sprintf("graph: unknown triangle method %v", method))
}

// triCohen: for each center v, probe every neighbor pair {a,b} with
// a < b for the closing edge. Each triangle is found exactly once per
// corner (as that corner's wedge), so PerNode[v] accumulates
// shard-locally with plain writes — the center always belongs to the
// shard.
func triCohen(u *undirected, parallelism int) *TriangleResult {
	n := u.numNodes()
	res := &TriangleResult{Method: TriangleCohen, PerNode: make([]int64, n)}
	bounds := prefixWorkBounds(n, parallelism, func(v int) int64 { return u.off[v] + int64(v) })
	runShards(bounds, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := u.nbr(NodeID(v))
			var c int64
			for i, a := range nv {
				for _, b := range nv[i+1:] {
					if u.hasEdge(a, b) {
						c++
					}
				}
			}
			res.PerNode[v] = c
		}
	})
	var corners int64
	for v, c := range res.PerNode {
		corners += c
		d := int64(u.deg(NodeID(v)))
		res.Wedges += d * (d - 1) / 2
	}
	res.Total = corners / 3
	return res
}
