package graph

import (
	"context"
	"fmt"
	"slices"
)

// Everything triangle-shaped comes from one enumeration of the closed
// triples of the undirected projection (u—v iff u→v or v→u): the exact
// triangle counts that replace the sampled clustering estimate of
// §3.3.3, the 16-class directed triad census of Schiöberg et al.
// (PAPERS.md), and the integer numerator of every node's clustering
// coefficient behind Figure 4(b). The projection itself is never held:
// two passes over the view's rows build the degree-ranked half of it,
// one packed 4-byte word per kept edge, and the Sandia lowest-rank
// enumeration walks that half once, marking each row and scanning its
// neighbors' rows against the marks. The enumeration's workers pull
// chunks of rank rows from one counter (runChunks), so the worker with
// the heaviest rows does not bound the pass, and each tallies in rank
// space in its own arrays, summed exactly at the end.

// TriadResult is what one closed-triple enumeration of a graph yields.
type TriadResult struct {
	// Triangles is the exact triangle count of the undirected projection.
	Triangles TriangleResult
	// Census is the directed triad census.
	Census MotifCensus
	// Links[u] is the number of directed edges among u's out-neighbors,
	// the numerator of C(u) (0 where the out-degree is below two);
	// ClusteringFromLinks and ClusteringByDegree read Figure 4(b) off it.
	Links []int64
}

// dyadKind is how a node is tied to one neighbor of the projection.
type dyadKind uint8

const (
	dyadOut dyadKind = iota // node→neighbor only
	dyadIn                  // neighbor→node only
	dyadMut                 // both
)

// nextDyad steps the merge of a node's sorted out- and in-rows past
// out[:i] and in[:j]: it returns the least neighbor left, its dyad kind,
// and the positions after it. Walked from 0, 0 while i < len(out) ||
// j < len(in), it yields every neighbor of the projection once,
// ascending. It is small enough to inline, so a merge costs no call per
// neighbor.
func nextDyad(out, in []NodeID, i, j int) (NodeID, dyadKind, int, int) {
	switch {
	case j == len(in) || (i < len(out) && out[i] < in[j]):
		return out[i], dyadOut, i + 1, j
	case i == len(out) || in[j] < out[i]:
		return in[j], dyadIn, i, j + 1
	}
	return out[i], dyadMut, i + 1, j + 1
}

// A packed half-graph entry is rank<<kindBits | kind: entry>>kindBits
// is the neighbor's rank, and ranks must stay below maxTriadNodes.
const (
	kindBits      = 2
	kindMask      = 1<<kindBits - 1
	maxTriadNodes = 1 << (32 - kindBits)
)

// halfGraph is the projection with each edge kept once, at its endpoint
// of lower degree rank (degree ascending, ties by id — a total order, so
// the orientation is canonical), in rank space: row r lists the
// higher-ranked neighbors of node perm[r], in the view's id order, each
// packed as rank<<kindBits | kind with the dyad seen from the row's
// node. Every row is O(√m) long whatever the degree distribution.
type halfGraph struct {
	off  []int64
	adj  []uint32 // packed entries
	perm []NodeID // perm[rank] = node id
}

func (h *halfGraph) row(r uint32) []uint32 { return h.adj[h.off[r]:h.off[r+1]] }

// triadChunk is how many rank rows the enumeration walks between two
// looks at its context.
const triadChunk = 1024

// Triads enumerates every closed triple of g once and returns the
// triangle counts, the triad census and the clustering numerators, all
// byte-identical for any parallelism: every tally is an exact integer
// sum. ctx is consulted before each pass and once per chunk of rank
// rows; a cancelled call returns nil and the context's error, and a
// call cancelled before it starts reads no row. A graph of
// maxTriadNodes (2^30) nodes or more does not fit the packed half
// graph, and Triads panics on one.
func Triads(ctx context.Context, g View, parallelism int) (*TriadResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n >= maxTriadNodes {
		panic(fmt.Sprintf("graph: Triads packs ranks into %d bits; %d nodes do not fit", 32-kindBits, n))
	}
	res := &TriadResult{
		Triangles: TriangleResult{Method: TriangleSandiaLL, PerNode: make([]int64, n)},
		Census:    MotifCensus{Nodes: n},
		Links:     make([]int64, n),
	}
	if n == 0 {
		return res, nil
	}
	bounds := viewWorkBounds(g, parallelism)

	// Pass 1, every node as the center of its own dyads: the projection
	// degree (kept in rank until buildHalfGraph ranks it), and from the
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

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := buildHalfGraph(g, rank, bounds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// For each kept edge (r, s), every common higher-ranked neighbor t
	// closes the triple {r, s, t}, found exactly once, at its
	// lowest-rank corner. Every entry of row(s) outranks s, so the
	// common neighbors are the entries of row(s) that r's row marks:
	// mark[t] holds kind(r, t)+1 while row r is walked, and the word
	// t<<kindBits | mark[t]-1 is r's entry for t. Workers pull chunks of
	// triadChunk rank rows and tally in rank space, each in its own
	// arrays; the workers are summed and mapped to node ids once, at the
	// end.
	tallies := make([]triadTally, normShards(n, parallelism))
	runChunks(n, triadChunk, parallelism, func(w, lo, hi int) bool {
		if ctx.Err() != nil {
			return false
		}
		t := &tallies[w]
		if t.perRank == nil {
			t.perRank, t.mark = make([][2]int64, n), make([]uint8, n)
		}
		mark := t.mark
		for r := uint32(lo); r < uint32(hi); r++ {
			row := h.row(r)
			for _, e := range row {
				mark[e>>kindBits] = uint8(e&kindMask) + 1
			}
			for _, e := range row {
				s := e >> kindBits
				rs := 9 * int(e&kindMask)
				for _, b := range h.row(s) {
					if m := mark[b>>kindBits]; m != 0 {
						t.closed(r, s, rs, b>>kindBits<<kindBits|uint32(m-1), b)
					}
				}
			}
			for _, e := range row {
				mark[e>>kindBits] = 0
			}
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Drop the workers that took no chunk.
	tallies = slices.DeleteFunc(tallies, func(t triadTally) bool { return t.perRank == nil })
	for r, v := range h.perm {
		for i := range tallies {
			c := &tallies[i].perRank[r]
			res.Triangles.PerNode[v] += c[0]
			res.Links[v] += c[1]
		}
	}
	// A closed triple counts once in its own class and retracts the open
	// class each of its three corners credited it with in pass 1.
	for i := range tallies {
		for k, v := range tallies[i].byKind {
			e := &triadTable[k]
			res.Census.Counts[e.closed] += v
			for _, class := range e.open {
				res.Census.Counts[class] -= v
			}
			res.Triangles.Total += v
		}
	}
	res.Census.countDyadTriples()
	return res, nil
}

// triadTally is what one worker of the enumeration counts: closed
// triples by kind index, and per rank the triangles and clustering
// links of the node holding it. mark is the worker's row marks.
type triadTally struct {
	byKind  [len(triadTable)]int64
	perRank [][2]int64
	mark    []uint8
}

// closed tallies the triple of ranks r < s < t, where a is r's entry
// for t (rebuilt from the mark) and b is s's; rs is 9·kind(r, s).
func (c *triadTally) closed(r, s uint32, rs int, a, b uint32) {
	k := rs + 3*int(a&kindMask) + int(b&kindMask)
	c.byKind[k]++
	links := &linkTable[k]
	for corner, x := range [3]uint32{r, s, a >> kindBits} {
		t := &c.perRank[x]
		t[0]++
		t[1] += links[corner]
	}
}

// buildHalfGraph ranks the nodes and streams the rows of g once more to
// fill the half graph. rank arrives holding every node's projection
// degree and leaves holding its rank. A node's degree bounds its kept
// row, so every row is filled at its degree-prefix offset, unsorted:
// the enumeration marks rows and needs no order. One serial sweep then
// closes the gaps, moving each row down to its final offset. The fill
// walks nodes in id order (sequential over a mapped file) and each node
// writes only its own rank row.
func buildHalfGraph(g View, rank []uint32, bounds []int) *halfGraph {
	n := len(rank)
	h := &halfGraph{off: make([]int64, n+1), perm: make([]NodeID, n)}
	// Counting sort by degree; a stable pass in id order breaks ties by
	// id. The rank-ordered degrees are the rows' capacities.
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
		r := start[d]
		start[d]++
		rank[v] = r
		h.perm[r] = NodeID(v)
		h.off[r+1] = int64(d)
	}
	for r := 0; r < n; r++ {
		h.off[r+1] += h.off[r]
	}

	// Every kept entry outranks its row, so none is zero, and the zeroed
	// slack past a row's kept entries marks where the row ends.
	h.adj = make([]uint32, h.off[n])
	runShards(bounds, func(_, lo, hi int) {
		rows := g.Rows()
		for v := lo; v < hi; v++ {
			r := rank[v]
			row := h.adj[h.off[r]:h.off[r]:h.off[r+1]]
			out, in := rows.Out(NodeID(v)), rows.In(NodeID(v))
			for i, j := 0, 0; i < len(out) || j < len(in); {
				var w NodeID
				var k dyadKind
				w, k, i, j = nextDyad(out, in, i, j)
				if rw := rank[w]; rw > r {
					row = append(row, rw<<kindBits|uint32(k))
				}
			}
		}
	})
	var kept, lo int64 // lo: row r's fill offset, before off[r] moved
	for r := 0; r < n; r++ {
		hi, end := h.off[r+1], lo
		for end < hi && h.adj[end] != 0 {
			end++
		}
		kept += int64(copy(h.adj[kept:], h.adj[lo:end]))
		h.off[r+1], lo = kept, hi
	}
	h.adj = h.adj[:kept]
	return h
}
