package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Exact triangle counting over the undirected projection of the crawl
// graph (u—v iff u→v or v→u), replacing the sampled clustering estimate
// of §3.3.3 with exact counts. One production kernel — the Sandia
// lowest-rank orientation over a degree-ordered presort — and one
// reference the tests compare it against: Cohen's wedge-check, which
// shares neither the orientation nor intersectSorted with it. Both
// shard with the degree-balanced prefixWorkBounds machinery and honor
// the package determinism contract: per-node tallies are exact integer
// sums (atomic adds commute), so results are byte-identical at any
// parallelism.

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

// Triangles counts every triangle in the undirected projection of g
// exactly, using the requested kernel. The result — total, per-node
// counts, and wedge count — is byte-identical for any parallelism.
func Triangles(g View, method TriangleMethod, parallelism int) *TriangleResult {
	if method == TriangleAuto {
		method = TriangleSandiaLL
	}
	u := buildUndirected(g, parallelism, false)
	res := &TriangleResult{Method: method, Wedges: u.wedgeTotal(parallelism), PerNode: make([]int64, u.numNodes())}
	switch method {
	case TriangleCohen:
		triCohen(u, res.PerNode, parallelism)
	case TriangleSandiaLL:
		triSandia(u, res.PerNode, parallelism)
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

// orient builds the rank-ordered half graph: row r keeps r's neighbors
// of higher rank. Rank order is (degree asc, id asc) — a total order, so
// the orientation is canonical and results cannot depend on scheduling.
func orient(u *undirected, parallelism int) *oriented {
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
	bounds := uniformBounds(n, parallelism)
	// Pass 1: surviving-degree of each rank row.
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			c := int64(0)
			for _, w := range u.nbr(o.perm[r]) {
				if rank[w] > uint32(r) {
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
			row := o.adj[o.off[r]:o.off[r]]
			for _, w := range u.nbr(o.perm[r]) {
				if rw := rank[w]; rw > uint32(r) {
					row = append(row, rw)
				}
			}
			slices.Sort(row)
		}
	})
	return o
}

// triSandia intersects oriented rows: for each kept edge (r, s), every
// common oriented neighbor t closes triangle {r,s,t}, found exactly
// once, at its lowest-rank corner. All three corners' tallies are atomic
// adds into the original id space.
func triSandia(u *undirected, per []int64, parallelism int) {
	o := orient(u, parallelism)
	n := len(o.perm)
	bounds := prefixWorkBounds(n, parallelism, func(r int) int64 {
		return o.off[r] + int64(r)
	})
	runShards(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := o.adj[o.off[r]:o.off[r+1]]
			for i, s := range row {
				// The third corner ranks after s, so each triangle is
				// generated from its lowest-rank corner only.
				rest := row[i+1:]
				intersectSorted(rest, o.adj[o.off[s]:o.off[s+1]], func(t, _ int) {
					atomic.AddInt64(&per[o.perm[r]], 1)
					atomic.AddInt64(&per[o.perm[s]], 1)
					atomic.AddInt64(&per[o.perm[rest[t]]], 1)
				})
			}
		}
	})
}
