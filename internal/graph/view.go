package graph

import "sort"

// View is the read surface every analysis kernel in this package is
// written against. Two implementations exist: the in-RAM *Graph and the
// memory-mapped diskcsr.Mapped form, which pages adjacency in lazily
// from a compressed file. The contract mirrors Graph exactly:
//
//   - Nodes are dense ids 0..NumNodes()-1.
//   - Rows are strictly ascending neighbor lists and must not be
//     modified by the caller.
//   - Rows returns a row cursor, the form every kernel reads through.
//     A cursor belongs to one goroutine: a parallel kernel takes one
//     per worker, never one per node.
//   - Out and In are the convenience form of the same rows for callers
//     outside a hot loop: the slice is the caller's to keep, and on
//     Mapped it costs one allocation per call.
//   - WorkPrefix(u) prices shard cuts: the monotone weight of nodes
//     [0, u), from WorkPrefix(0) = 0 to the total at NumNodes(). Both
//     backends answer it in O(1) off their offset arrays, with the same
//     weight (outdeg + indeg + 1 per node), so they cut shards alike.
//     A price changes only a kernel's speed, never its output.
//   - Every method of the View itself is safe for concurrent use.
//
// Kernels accept a View rather than *Graph so the same code runs — and
// by the package's determinism contract produces byte-identical results
// — over both backends.
type View interface {
	NumNodes() int
	NumEdges() int64
	OutDegree(u NodeID) int
	InDegree(u NodeID) int
	Rows() Rows
	Out(u NodeID) []NodeID
	In(u NodeID) []NodeID
	WorkPrefix(u int) int64
}

// Rows is a row cursor over a View. The slice Out returns is valid
// until the cursor's next Out call, and likewise In until the next In:
// the two directions have separate buffers, so one out-row and one
// in-row of the same cursor may be held at once, while two live rows of
// one direction need two cursors. *Graph is its own cursor (rows alias
// the CSR arrays and never go stale); Mapped decodes each row into a
// buffer the cursor owns, so a pass over the graph decodes every row
// once and allocates nothing after the buffers have grown. A View is
// itself a Rows whose rows never go stale, at Mapped's per-call price.
type Rows interface {
	Out(u NodeID) []NodeID
	In(u NodeID) []NodeID
}

// viewWorkBounds splits [0, NumNodes()) into contiguous shard ranges
// of near-equal View.WorkPrefix weight: degree-balanced cuts.
func viewWorkBounds(g View, parallelism int) []int {
	return prefixWorkBounds(g.NumNodes(), parallelism, g.WorkPrefix)
}

// HasArc reports whether the directed edge u->v exists. It probes the
// shorter of u's out-row and v's in-row so celebrity endpoints don't
// slow the test. It reads through View.Out/In, one row per question;
// a batch of questions belongs to LinkedPairs.
func HasArc(g View, u, v NodeID) bool {
	if g.OutDegree(u) <= g.InDegree(v) {
		adj := g.Out(u)
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		return i < len(adj) && adj[i] == v
	}
	adj := g.In(v)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= u })
	return i < len(adj) && adj[i] == u
}

// LinkedPairs answers a batch of adjacency questions with one read of
// each row it needs: linked[i] reports whether an arc joins pairs[i]'s
// u and v in either direction, HasArc(u, v) || HasArc(v, u). The pairs
// are counting-sorted by u; each distinct u's out- and in-row is then
// read once and stamped into a per-worker array that answers every v
// asked of it in O(1). Buckets are cut into parallelism node ranges of
// near-equal pair count, one Rows cursor each. linked must be as long
// as pairs, at most math.MaxInt32.
func LinkedPairs(g View, pairs [][2]NodeID, linked []bool, parallelism int) {
	n := g.NumNodes()
	// order lists the pair indices bucket by bucket. end[u] counts up
	// from where u's bucket starts as the bucket fills, and is left
	// where it ends — which is where u+1's starts.
	end := make([]int32, n+1)
	for _, p := range pairs {
		end[p[0]+1]++
	}
	for u := 0; u < n; u++ {
		end[u+1] += end[u]
	}
	order := make([]int32, len(pairs))
	for i, p := range pairs {
		order[end[p[0]]] = int32(i)
		end[p[0]]++
	}
	bucketStart := func(u int) int64 {
		if u == 0 {
			return 0
		}
		return int64(end[u-1])
	}
	runShards(prefixWorkBounds(n, parallelism, bucketStart), func(_, lo, hi int) {
		rows := g.Rows()
		// stamp[v] == u+1 only ever marks a neighbour of u, so the array
		// needs no clearing between buckets.
		stamp := make([]NodeID, n)
		for u := lo; u < hi; u++ {
			bucket := order[bucketStart(u):end[u]]
			if len(bucket) == 0 {
				continue
			}
			mark := NodeID(u) + 1
			for _, v := range rows.Out(NodeID(u)) {
				stamp[v] = mark
			}
			for _, v := range rows.In(NodeID(u)) {
				stamp[v] = mark
			}
			for _, i := range bucket {
				linked[i] = stamp[pairs[i][1]] == mark
			}
		}
	})
}

// AvgDegree returns the average degree (edges / nodes). Because every
// directed edge contributes one out-stub and one in-stub, the average in-
// and out-degrees are identical.
func AvgDegree(g View) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes())
}
