package graph

import (
	"slices"
	"sync/atomic"
)

// Everything triangle-shaped comes from one enumeration of the closed
// triples of the undirected projection (u—v iff u→v or v→u): the exact
// triangle counts that replace the sampled clustering estimate of
// §3.3.3, the 16-class directed triad census of Schiöberg et al.
// (PAPERS.md), and the integer numerator of every node's clustering
// coefficient behind Figure 4(b). The projection itself is never held:
// three passes over the view's rows build the degree-ranked half of it,
// and the Sandia lowest-rank intersection walks that half once.

// TriadResult is what one closed-triple enumeration of a graph yields.
type TriadResult struct {
	// Triangles is the exact triangle count of the undirected projection.
	Triangles TriangleResult
	// Census is the directed triad census.
	Census MotifCensus
	// Links[u] is the number of directed edges among u's out-neighbors,
	// the numerator of C(u): ClusteringLinks of every node at once (0
	// where the out-degree is below two).
	Links []int64
}

// dyadKind is how a node is tied to one neighbor of the projection.
type dyadKind uint8

const (
	dyadOut dyadKind = iota // node→neighbor only
	dyadIn                  // neighbor→node only
	dyadMut                 // both
)

// eachDyad merges a node's sorted out- and in-rows: emit sees every
// neighbor of the projection once, ascending, with its dyad kind.
func eachDyad(out, in []NodeID, emit func(w NodeID, k dyadKind)) {
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		switch {
		case j == len(in) || (i < len(out) && out[i] < in[j]):
			emit(out[i], dyadOut)
			i++
		case i == len(out) || in[j] < out[i]:
			emit(in[j], dyadIn)
			j++
		default:
			emit(out[i], dyadMut)
			i++
			j++
		}
	}
}

// halfGraph is the projection with each edge kept once, at its endpoint
// of lower degree rank (degree ascending, ties by id — a total order, so
// the orientation is canonical), in rank space: row r lists the
// higher-ranked neighbors of node perm[r], ascending, and kind holds
// each entry's dyad as seen from the row's node. Every row is O(√m) long
// whatever the degree distribution.
type halfGraph struct {
	off  []int64
	adj  []NodeID // rank ids
	kind []dyadKind
	perm []NodeID // perm[rank] = node id
}

func (h *halfGraph) row(r NodeID) ([]NodeID, []dyadKind) {
	lo, hi := h.off[r], h.off[r+1]
	return h.adj[lo:hi], h.kind[lo:hi]
}

// Triads enumerates every closed triple of g once and returns the
// triangle counts, the triad census and the clustering numerators, all
// byte-identical for any parallelism: every tally is an exact integer
// sum, and atomic adds commute.
func Triads(g View, parallelism int) *TriadResult {
	n := g.NumNodes()
	res := &TriadResult{
		Triangles: TriangleResult{Method: TriangleSandiaLL, PerNode: make([]int64, n)},
		Census:    MotifCensus{Nodes: n},
		Links:     make([]int64, n),
	}
	if n == 0 {
		return res
	}
	bounds := viewWorkBounds(g, parallelism)

	// Pass 1, every node as the center of its own dyads: the projection
	// degree (kept in rank until the sort below), and from the
	// mutual/out-only/in-only split the dyad totals, the wedge total and
	// the open-triad combinatorics — each unordered pair of v's dyads is
	// a triple whose class, *assuming the far pair is unconnected*,
	// depends only on the two kinds. Pairs whose far nodes are connected
	// are overcounts, retracted per closed triple below.
	type centers struct {
		open                 [NumTriadClasses]int64
		mutual, asym, wedges int64
	}
	rank := make([]uint32, n)
	parts := make([]centers, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		rows := g.Rows()
		var c centers
		for v := lo; v < hi; v++ {
			out, in := rows.Out(NodeID(v)), rows.In(NodeID(v))
			mut := int64(sortedIntersectionSize(out, in))
			dOut, dIn := int64(len(out))-mut, int64(len(in))-mut
			deg := mut + dOut + dIn
			rank[v] = uint32(deg)
			c.mutual += mut
			c.asym += dOut // each asymmetric dyad counted once, at its source
			c.wedges += deg * (deg - 1) / 2
			c.open[Triad021D] += dOut * (dOut - 1) / 2
			c.open[Triad021U] += dIn * (dIn - 1) / 2
			c.open[Triad021C] += dOut * dIn
			c.open[Triad111U] += dOut * mut
			c.open[Triad111D] += dIn * mut
			c.open[Triad201] += mut * (mut - 1) / 2
		}
		parts[shard] = c
	})
	var mutual int64
	for i := range parts {
		c := &parts[i]
		for class, v := range c.open {
			res.Census.Counts[class] += v
		}
		mutual += c.mutual
		res.Census.AsymDyads += c.asym
		res.Triangles.Wedges += c.wedges
	}
	res.Census.MutualDyads = mutual / 2 // both endpoints counted it

	h := buildHalfGraph(g, rank, bounds)

	// For each kept edge (r, s), every common higher-ranked neighbor t
	// closes the triple {r, s, t}, found exactly once, at its
	// lowest-rank corner, with its three dyad kinds at the positions the
	// intersection reports. Per-node tallies go to the original id
	// space; r's and s's are summed locally first.
	add := func(to []int64, r NodeID, v int64) {
		if v != 0 {
			atomic.AddInt64(&to[h.perm[r]], v)
		}
	}
	ebounds := prefixWorkBounds(n, parallelism, func(r int) int64 { return h.off[r] + int64(r) })
	closed := make([][len(triadTable)]int64, len(ebounds)-1)
	runShards(ebounds, func(shard, lo, hi int) {
		tally := &closed[shard]
		for r := NodeID(lo); r < NodeID(hi); r++ {
			row, kinds := h.row(r)
			var rTri, rLinks int64
			for i, s := range row {
				rest, restKinds := row[i+1:], kinds[i+1:]
				srow, sKinds := h.row(s)
				rs := 9 * int(kinds[i])
				var sTri, sLinks int64
				intersectSorted(rest, srow, func(p, q int) {
					k := rs + 3*int(restKinds[p]) + int(sKinds[q])
					tally[k]++
					links := &linkTable[k]
					rLinks += links[0]
					sLinks += links[1]
					sTri++
					add(res.Triangles.PerNode, rest[p], 1)
					add(res.Links, rest[p], links[2])
				})
				rTri += sTri
				add(res.Triangles.PerNode, s, sTri)
				add(res.Links, s, sLinks)
			}
			add(res.Triangles.PerNode, r, rTri)
			add(res.Links, r, rLinks)
		}
	})
	// A closed triple counts once in its own class and retracts the open
	// class each of its three corners credited it with in pass 1.
	for i := range closed {
		for k, v := range closed[i] {
			e := &triadTable[k]
			res.Census.Counts[e.closed] += v
			for _, class := range e.open {
				res.Census.Counts[class] -= v
			}
			res.Triangles.Total += v
		}
	}
	res.Census.countDyadTriples()
	return res
}

// buildHalfGraph streams the rows of g twice more — sizes, then fill —
// so the CSR arrays are allocated exactly once. rank arrives holding
// every node's projection degree and leaves holding its rank. Both
// passes walk nodes in id order (sequential over a mapped file) and each
// node writes only its own rank row.
func buildHalfGraph(g View, rank []uint32, bounds []int) *halfGraph {
	n := len(rank)
	h := &halfGraph{off: make([]int64, n+1), perm: make([]NodeID, n)}
	// Counting sort by degree; a stable pass in id order breaks ties by id.
	var maxDeg uint32
	for _, d := range rank {
		maxDeg = max(maxDeg, d)
	}
	start := make([]uint32, maxDeg+2)
	for _, d := range rank {
		start[d+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	for v, d := range rank {
		rank[v] = start[d]
		start[d]++
		h.perm[rank[v]] = NodeID(v)
	}

	runShards(bounds, func(_, lo, hi int) {
		rows := g.Rows()
		for v := lo; v < hi; v++ {
			r, kept := rank[v], int64(0)
			eachDyad(rows.Out(NodeID(v)), rows.In(NodeID(v)), func(w NodeID, _ dyadKind) {
				if rank[w] > r {
					kept++
				}
			})
			h.off[r+1] = kept
		}
	})
	for r := 0; r < n; r++ {
		h.off[r+1] += h.off[r]
	}
	h.adj = make([]NodeID, h.off[n])
	h.kind = make([]dyadKind, h.off[n])
	runShards(bounds, func(_, lo, hi int) {
		rows := g.Rows()
		var buf []uint64 // rank<<2 | kind: one sort orders both
		for v := lo; v < hi; v++ {
			r := rank[v]
			buf = buf[:0]
			eachDyad(rows.Out(NodeID(v)), rows.In(NodeID(v)), func(w NodeID, k dyadKind) {
				if rw := rank[w]; rw > r {
					buf = append(buf, uint64(rw)<<2|uint64(k))
				}
			})
			slices.Sort(buf)
			row, kinds := h.row(r)
			for i, x := range buf {
				row[i], kinds[i] = NodeID(x>>2), dyadKind(x&3)
			}
		}
	})
	return h
}
