package graph

import "sort"

// View is the read surface every analysis kernel in this package is
// written against. Two implementations exist: the in-RAM *Graph and the
// memory-mapped diskcsr.Mapped form, which pages adjacency in lazily
// from a compressed file. The contract mirrors Graph exactly:
//
//   - Nodes are dense ids 0..NumNodes()-1.
//   - Out and In return strictly ascending neighbor lists. Callers must
//     not modify the returned slice; implementations may either share
//     backing storage (Graph) or allocate per call (Mapped), so no
//     caller may retain a row across a second Out/In call on the same
//     receiver unless the implementation documents sharing.
//   - All methods are safe for concurrent use.
//
// Kernels accept a View rather than *Graph so the same code runs — and
// by the package's determinism contract produces byte-identical results
// — over both backends.
type View interface {
	NumNodes() int
	NumEdges() int64
	Out(u NodeID) []NodeID
	In(u NodeID) []NodeID
	OutDegree(u NodeID) int
	InDegree(u NodeID) int
}

// WorkPrefixer is an optional View extension for degree-balanced
// sharding. WorkPrefix(u) is the monotone prefix weight of nodes
// [0, u): the sum of outdeg+indeg+1 over them, so WorkPrefix(0) = 0 and
// WorkPrefix(NumNodes()) is the total work. Views that can answer this
// in O(1) (both backends here: it reads straight off the CSR offset
// arrays) get the same heavy-tail-aware shard cuts as *Graph; others
// fall back to node-uniform sharding, which by the determinism contract
// changes only the speed of a kernel, never its output.
type WorkPrefixer interface {
	WorkPrefix(u int) int64
}

// viewWorkBounds splits [0, NumNodes()) into contiguous shard ranges:
// degree-balanced cuts when the view can price them, uniform cuts
// otherwise.
func viewWorkBounds(g View, parallelism int) []int {
	if wp, ok := g.(WorkPrefixer); ok {
		return prefixWorkBounds(g.NumNodes(), parallelism, wp.WorkPrefix)
	}
	return uniformBounds(g.NumNodes(), parallelism)
}

// HasArc reports whether the directed edge u->v exists, probing the
// shorter of u's out-row and v's in-row so celebrity endpoints don't
// slow the test.
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

// AvgDegree returns the average degree (edges / nodes). Because every
// directed edge contributes one out-stub and one in-stub, the average in-
// and out-degrees are identical.
func AvgDegree(g View) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes())
}
