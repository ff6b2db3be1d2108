package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Exact triangle counting over the undirected projection of the crawl
// graph (u—v iff u→v or v→u), replacing the sampled clustering estimate
// of §3.3.3 with exact counts. Three independent kernels — Burkhardt's
// edge-iterator, Cohen's wedge-check, and the Sandia lowest/highest-
// rank orientation over a degree-ordered presort — compute the same
// result by entirely different routes, so the tests can cross-check
// them against each other (and against the clustering-coefficient
// numerators) on every graph they see. All kernels shard with the
// degree-balanced prefixWorkBounds machinery and honor the package
// determinism contract: per-node tallies are exact integer sums
// (atomic adds commute), so results are byte-identical at any
// parallelism.

// TriangleMethod selects a triangle-counting kernel.
type TriangleMethod int

const (
	// TriangleAuto picks a kernel from the graph's shape (wedge count
	// and degree skew); the choice is a deterministic function of the
	// graph, never of the environment.
	TriangleAuto TriangleMethod = iota
	// TriangleBurkhardt is the edge-iterator: for every undirected edge
	// {u,v}, count |N(u) ∩ N(v)|; each triangle is seen by its three
	// edges, so the total divides by three. Work is Σ_edges min-degree
	// intersections — robust on most shapes.
	TriangleBurkhardt
	// TriangleCohen is the wedge-check: for every wedge (v, u, w)
	// centered at u with v < w, probe whether the closing edge {v,w}
	// exists. Work is Σ_u C(deg(u),2) probes — cheap on wedge-light
	// graphs, quadratic on the heavy-tailed head.
	TriangleCohen
	// TriangleSandiaLL orients each edge from lower to higher degree
	// rank and intersects lower-neighborhoods, counting each triangle
	// exactly once at its lowest-rank corner. The orientation bounds
	// every list by O(√m) on arbitrary graphs — the method of choice
	// for skewed degree distributions.
	TriangleSandiaLL
	// TriangleSandiaUU is the mirror orientation (higher to lower
	// rank); same bounds, counted at the highest-rank corner. Kept as
	// an independent implementation for cross-checking.
	TriangleSandiaUU
)

func (m TriangleMethod) String() string {
	switch m {
	case TriangleAuto:
		return "auto"
	case TriangleBurkhardt:
		return "burkhardt"
	case TriangleCohen:
		return "cohen"
	case TriangleSandiaLL:
		return "sandia-ll"
	case TriangleSandiaUU:
		return "sandia-uu"
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
// v→u. Built once and shared by the triangle and motif kernels.
type undirected struct {
	off []int64
	adj []NodeID
	// kind, present only when the motif census asked for it, holds the
	// dyadKind of every adj entry at 2 bits each (see kindBase), so the
	// census never goes back to the directed rows.
	kind []byte
}

func (u *undirected) numNodes() int { return len(u.off) - 1 }

func (u *undirected) nbr(v NodeID) []NodeID { return u.adj[u.off[v]:u.off[v+1]] }

func (u *undirected) deg(v NodeID) int { return int(u.off[v+1] - u.off[v]) }

// kindBase is the index in kind of the byte holding v's first entry.
// Every row starts on a fresh byte (one spare byte per node, no second
// offset array), so rows filled by different shards share no byte.
func (u *undirected) kindBase(v NodeID) int64 { return u.off[v]>>2 + int64(v) }

// kindAt returns the dyad kind of the i-th neighbor of the row whose
// kindBase is base.
func (u *undirected) kindAt(base int64, i int) dyadKind {
	return dyadKind(u.kind[base+int64(i>>2)]>>(2*(i&3))) & 3
}

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

// workBounds is the projection's analogue of viewWorkBounds: shard
// cuts balanced on undirected degree.
func (u *undirected) workBounds(parallelism int) []int {
	return prefixWorkBounds(u.numNodes(), parallelism, func(v int) int64 {
		return u.off[v] + int64(v)
	})
}

// buildUndirected symmetrizes g: each node's out- and in-lists (both
// already sorted) merge into one sorted, deduplicated neighbor list,
// with each neighbor's dyad kind alongside when kinds is set. Two
// passes — size then fill — so the CSR arrays are allocated exactly
// once; both passes shard over the directed workBounds.
func buildUndirected(g View, parallelism int, kinds bool) *undirected {
	n := g.NumNodes()
	u := &undirected{off: make([]int64, n+1)}
	if n == 0 {
		return u
	}
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
	if kinds {
		u.kind = make([]byte, u.kindBase(NodeID(n)))
	}
	// Pass 2: fill each node's slice; shards own disjoint ranges.
	runShards(bounds, func(_, lo, hi int) {
		rows := g.Rows()
		for v := lo; v < hi; v++ {
			var kind []byte
			if kinds {
				kind = u.kind[u.kindBase(NodeID(v)):]
			}
			mergeDyads(u.nbr(NodeID(v)), kind, rows.Out(NodeID(v)), rows.In(NodeID(v)))
		}
	})
	return u
}

// dyadKind is how a node is tied to one neighbor of the projection.
type dyadKind uint8

const (
	dyadOut dyadKind = iota // node→neighbor only
	dyadIn                  // neighbor→node only
	dyadMut                 // both
)

// mergeDyads merges a node's sorted out- and in-rows into dst, which
// has exactly the union's length, and, when kind is non-nil, ORs each
// entry's dyadKind into kind at 2 bits per entry (kind starts zeroed).
func mergeDyads(dst []NodeID, kind []byte, out, in []NodeID) {
	i, j := 0, 0
	for p := range dst {
		var k dyadKind
		switch {
		case j == len(in) || (i < len(out) && out[i] < in[j]):
			dst[p], k = out[i], dyadOut
			i++
		case i == len(out) || in[j] < out[i]:
			dst[p], k = in[j], dyadIn
			j++
		default:
			dst[p], k = out[i], dyadMut
			i++
			j++
		}
		if kind != nil {
			kind[p>>2] |= byte(k) << (2 * (p & 3))
		}
	}
}

// wedgeTotal returns Σ_v C(deg(v), 2) over the projection.
func (u *undirected) wedgeTotal(parallelism int) int64 {
	bounds := uniformBounds(u.numNodes(), parallelism)
	parts := make([]int64, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		var s int64
		for v := lo; v < hi; v++ {
			d := int64(u.deg(NodeID(v)))
			s += d * (d - 1) / 2
		}
		parts[shard] = s
	})
	var total int64
	for _, p := range parts {
		total += p
	}
	return total
}

// Method-selector thresholds. Both are deterministic functions of the
// graph, so TriangleAuto resolves identically everywhere.
const (
	// cohenWedgeBudget caps the wedge-probe count Cohen is allowed; past
	// it the probes dominate the intersections the other methods do.
	cohenWedgeBudget = 4 << 20
	// burkhardtSkewLimit is the max-degree / mean-degree ratio past
	// which the unoriented edge-iterator starts paying the heavy head's
	// full list on every incident edge, and the Sandia orientation's
	// O(√m) row bound wins.
	burkhardtSkewLimit = 8
)

// resolveTriangleMethod picks the kernel for TriangleAuto from the
// projection's shape: wedge-light graphs take the cheap probe kernel;
// low-skew graphs take the edge-iterator; heavy-tailed graphs — the
// crawl's regime — take the oriented kernel.
func resolveTriangleMethod(u *undirected, wedges int64) TriangleMethod {
	if wedges <= cohenWedgeBudget {
		return TriangleCohen
	}
	n := u.numNodes()
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := u.deg(NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if int64(maxDeg)*int64(n) < burkhardtSkewLimit*u.off[n] {
		return TriangleBurkhardt
	}
	return TriangleSandiaLL
}

// Triangles counts every triangle in the undirected projection of g
// exactly, using the requested kernel (or an automatic choice). The
// result — total, per-node counts, and wedge count — is byte-identical
// for any parallelism.
func Triangles(g View, method TriangleMethod, parallelism int) *TriangleResult {
	u := buildUndirected(g, parallelism, false)
	return trianglesOn(u, method, parallelism)
}

func trianglesOn(u *undirected, method TriangleMethod, parallelism int) *TriangleResult {
	wedges := u.wedgeTotal(parallelism)
	if method == TriangleAuto {
		method = resolveTriangleMethod(u, wedges)
	}
	res := &TriangleResult{Method: method, Wedges: wedges, PerNode: make([]int64, u.numNodes())}
	switch method {
	case TriangleBurkhardt:
		triBurkhardt(u, res.PerNode, parallelism)
	case TriangleCohen:
		triCohen(u, res.PerNode, parallelism)
	case TriangleSandiaLL:
		triSandia(u, res.PerNode, parallelism, false)
	case TriangleSandiaUU:
		triSandia(u, res.PerNode, parallelism, true)
	default:
		panic(fmt.Sprintf("graph: unknown triangle method %v", method))
	}
	var sum int64
	for _, c := range res.PerNode {
		sum += c
	}
	res.Total = sum / 3
	return res
}

// triBurkhardt: for each undirected edge {v,w} with v < w, every common
// neighbor x closes a triangle {v,w,x}; crediting x per edge visits
// each triangle once per corner, so per fills with exact per-node
// counts directly. Shards own contiguous v-ranges; x may belong to any
// shard, so its tally is an atomic add (integer addition commutes —
// determinism holds).
func triBurkhardt(u *undirected, per []int64, parallelism int) {
	runShards(u.workBounds(parallelism), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := u.nbr(NodeID(v))
			// Only edges toward higher ids; each {v,w} handled once.
			i := sort.Search(len(nv), func(k int) bool { return int(nv[k]) > v })
			for _, w := range nv[i:] {
				intersectSorted(nv, u.nbr(w), func(x, _ int) {
					atomic.AddInt64(&per[nv[x]], 1)
				})
			}
		}
	})
}

// triCohen: for each center v, probe every neighbor pair {a,b} with
// a < b for the closing edge. Each triangle is found exactly once per
// corner (as that corner's wedge), so per[v] accumulates shard-locally
// with plain writes — the center always belongs to the shard.
func triCohen(u *undirected, per []int64, parallelism int) {
	runShards(u.workBounds(parallelism), func(_, lo, hi int) {
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
			per[v] = c
		}
	})
}

// oriented is the projection with each edge kept in one direction only,
// from lower to higher degree rank (ties by id), in rank space: row r
// lists the higher-rank endpoints of r's edges, sorted by rank. Every
// row is O(√m) long regardless of the original degree distribution.
type oriented struct {
	off []int64
	adj []NodeID // rank ids
	// perm[rank] = original node id.
	perm []NodeID
}

// orient builds the rank-ordered half graph. With reverse=false, row r
// keeps neighbors of higher rank (the LL orientation); with
// reverse=true, lower rank (UU). Rank order is (degree asc, id asc) —
// a total order, so the orientation is canonical and results cannot
// depend on scheduling.
func orient(u *undirected, parallelism int, reverse bool) *oriented {
	n := u.numNodes()
	o := &oriented{off: make([]int64, n+1), perm: make([]NodeID, n)}
	for v := range o.perm {
		o.perm[v] = NodeID(v)
	}
	sort.Slice(o.perm, func(i, j int) bool {
		di, dj := u.deg(o.perm[i]), u.deg(o.perm[j])
		if di != dj {
			return di < dj
		}
		return o.perm[i] < o.perm[j]
	})
	rank := make([]uint32, n)
	for r, v := range o.perm {
		rank[v] = uint32(r)
	}
	// keep reports whether the edge v→w survives in this orientation,
	// from v's perspective.
	keep := func(rv, rw uint32) bool {
		if reverse {
			return rw < rv
		}
		return rw > rv
	}
	bounds := uniformBounds(n, parallelism)
	// Pass 1: surviving-degree of each rank row.
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			v := o.perm[r]
			c := int64(0)
			for _, w := range u.nbr(v) {
				if keep(uint32(r), rank[w]) {
					c++
				}
			}
			o.off[r+1] = c
		}
	})
	for r := 0; r < n; r++ {
		o.off[r+1] += o.off[r]
	}
	o.adj = make([]NodeID, o.off[n])
	// Pass 2: fill rows with surviving neighbors' ranks, sorted.
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			v := o.perm[r]
			row := o.adj[o.off[r]:o.off[r]]
			for _, w := range u.nbr(v) {
				if rw := rank[w]; keep(uint32(r), rw) {
					row = append(row, rw)
				}
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		}
	})
	return o
}

// triSandia intersects oriented rows: for each kept edge (r, s), every
// common oriented neighbor t closes triangle {r,s,t}, found exactly
// once (at its lowest-rank corner under LL, highest under UU). All
// three corners' tallies are atomic adds into the original id space.
func triSandia(u *undirected, per []int64, parallelism int, reverse bool) {
	o := orient(u, parallelism, reverse)
	n := len(o.perm)
	bounds := prefixWorkBounds(n, parallelism, func(r int) int64 {
		return o.off[r] + int64(r)
	})
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := o.adj[o.off[r]:o.off[r+1]]
			for i, s := range row {
				srow := o.adj[o.off[s]:o.off[s+1]]
				// The third corner ranks beyond s in the orientation's
				// direction — after it under LL, before it under UU —
				// so each triangle is generated from its extreme
				// corner only.
				rest := row[i+1:]
				if reverse {
					rest = row[:i]
				}
				intersectSorted(rest, srow, func(t, _ int) {
					atomic.AddInt64(&per[o.perm[r]], 1)
					atomic.AddInt64(&per[o.perm[s]], 1)
					atomic.AddInt64(&per[o.perm[rest[t]]], 1)
				})
			}
		}
	})
}
