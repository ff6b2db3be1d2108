package graph

import "fmt"

// Builder accumulates edges and freezes them into an immutable Graph.
// The zero value is ready to use. Builder is not safe for concurrent use.
type Builder struct {
	n     int
	edges []uint64 // PackEdge(from, to)
}

// NewBuilder returns a Builder pre-sized for n nodes and capacity for
// edgeHint edges. Both arguments are hints; the builder grows as needed.
func NewBuilder(n int, edgeHint int) *Builder {
	return &Builder{n: n, edges: make([]uint64, 0, edgeHint)}
}

// EnsureNode grows the node count so that id is a valid node.
func (b *Builder) EnsureNode(id NodeID) {
	if int(id) >= b.n {
		b.n = int(id) + 1
	}
}

// AddEdge records the directed edge u->v, growing the node count to cover
// both endpoints. Self-loops and duplicates are accepted here and removed
// by Build: the Google+ crawl data model has no self-circles and each user
// appears in another user's circle list at most once.
func (b *Builder) AddEdge(u, v NodeID) {
	b.EnsureNode(u)
	b.EnsureNode(v)
	b.edges = append(b.edges, PackEdge(u, v))
}

// Build freezes the accumulated edges into an immutable Graph, discarding
// self-loops and duplicate edges. The Builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	// Sorted by (from, to), CSR rows come out sorted. Truncate the
	// builder to the kept list: without this the dropped-duplicate tail
	// stays live past Build, a reused builder would re-sort and re-emit
	// the stale records alongside any new edges, and the capacity pinned
	// by duplicates never shrinks.
	kept := SortEdges(b.edges, make([]uint64, len(b.edges)))
	b.edges = kept

	n := b.n
	g := &Graph{
		outOff: make([]int64, n+1),
		outAdj: make([]NodeID, len(kept)),
		inOff:  make([]int64, n+1),
		inAdj:  make([]NodeID, len(kept)),
	}

	// Forward CSR straight from the sorted edge list.
	for i, e := range kept {
		from, to := UnpackEdge(e)
		g.outOff[from+1]++
		g.outAdj[i] = to
	}
	for u := 0; u < n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}

	// Reverse CSR by counting sort on destination; rows come out sorted by
	// source because the edge list is already source-ordered.
	for _, to := range g.outAdj {
		g.inOff[to+1]++
	}
	for u := 0; u < n; u++ {
		g.inOff[u+1] += g.inOff[u]
	}
	cursor := make([]int64, n)
	for _, e := range kept {
		from, to := UnpackEdge(e)
		g.inAdj[g.inOff[to]+cursor[to]] = from
		cursor[to]++
	}
	return g
}

// FromEdges is a convenience that builds a graph with n nodes from an edge
// list given as (from, to) pairs. It panics if the list has odd length.
func FromEdges(n int, pairs ...NodeID) *Graph {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("graph: FromEdges needs an even number of ids, got %d", len(pairs)))
	}
	b := NewBuilder(n, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		b.AddEdge(pairs[i], pairs[i+1])
	}
	if b.n < n {
		b.n = n
	}
	return b.Build()
}
