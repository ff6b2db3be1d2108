// Package graph provides a compact directed-graph representation and the
// structural algorithms used throughout the Google+ study: strongly and
// weakly connected components, BFS distance sampling, clustering
// coefficients, and reciprocity metrics.
//
// Graphs are built incrementally with a Builder and then frozen into an
// immutable Graph backed by compressed sparse row (CSR) adjacency in both
// directions. The immutable form is safe for concurrent readers.
package graph

import (
	"fmt"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses IDs
// 0..N-1.
type NodeID = uint32

// Graph is an immutable directed graph in CSR form. It stores both the
// forward (out-edge) and reverse (in-edge) adjacency so that in-degree
// queries and bidirectional traversals are O(degree).
type Graph struct {
	outOff []int64
	outAdj []NodeID
	inOff  []int64
	inAdj  []NodeID
}

// NumNodes returns the number of nodes. A zero-value Graph (no offset
// arrays yet) has zero nodes, not -1, so the degree and component
// analyses are safe on it.
func (g *Graph) NumNodes() int {
	if len(g.outOff) == 0 {
		return 0
	}
	return len(g.outOff) - 1
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.outAdj)) }

// Out returns the out-neighbors of u (the users u has added to circles).
// The returned slice is shared with the graph and must not be modified.
// Neighbors are sorted in ascending order.
func (g *Graph) Out(u NodeID) []NodeID {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// In returns the in-neighbors of u (the users that added u to circles).
// The returned slice is shared with the graph and must not be modified.
// Neighbors are sorted in ascending order.
func (g *Graph) In(u NodeID) []NodeID {
	return g.inAdj[g.inOff[u]:g.inOff[u+1]]
}

// Rows implements View: the graph is its own cursor, because its rows
// alias the CSR arrays and never go stale.
func (g *Graph) Rows() Rows { return g }

// OutDegree returns |Out(u)|.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns |In(u)|.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inOff[u+1] - g.inOff[u])
}

// FromCSR assembles a Graph from CSR arrays — offsets plus sorted
// adjacency for both directions — that its caller has decoded and
// checked row by row: diskcsr, whose decode is where a stored graph's
// rows are checked. FromCSR checks only the arrays' shape, in O(1):
// offsets of n+1 entries each, from 0 to their adjacency's length, and
// as many in-edges as out-edges. The arrays are retained, not copied;
// the caller must not modify them afterwards.
func FromCSR(outOff []int64, outAdj []NodeID, inOff []int64, inAdj []NodeID) (*Graph, error) {
	n := len(outOff) - 1
	if n < 0 || len(inOff) != n+1 || outOff[0] != 0 || inOff[0] != 0 ||
		outOff[n] != int64(len(outAdj)) || inOff[n] != int64(len(inAdj)) || len(outAdj) != len(inAdj) {
		return nil, fmt.Errorf("graph: CSR arrays out of shape: %d out and %d in offsets over %d out and %d in edges",
			len(outOff), len(inOff), len(outAdj), len(inAdj))
	}
	return &Graph{outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}, nil
}
