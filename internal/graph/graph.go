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

// FromCSR assembles a Graph directly from prebuilt CSR arrays — offsets
// plus sorted adjacency for both directions — validating the invariants
// the Builder would have established. It is the constructor the
// on-disk decoder (diskcsr's Materialize) uses: it already holds the
// arrays and must not pay the Builder's edge-list resort. The arrays are retained, not copied; the caller must not
// modify them afterwards.
func FromCSR(outOff []int64, outAdj []NodeID, inOff []int64, inAdj []NodeID) (*Graph, error) {
	g := &Graph{outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate checks internal CSR invariants. It is used by tests and by
// FromCSR to reject corrupt inputs.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.outOff) == 0 {
		// Zero-value graph: valid exactly when every array is empty, so
		// validateCSR never indexes off[0] of a nil slice.
		if len(g.inOff) != 0 || len(g.outAdj) != 0 || len(g.inAdj) != 0 {
			return fmt.Errorf("graph: zero-value graph with non-empty arrays: %d in offsets, %d out adj, %d in adj",
				len(g.inOff), len(g.outAdj), len(g.inAdj))
		}
		return nil
	}
	if len(g.inOff) != len(g.outOff) {
		return fmt.Errorf("graph: offset arrays disagree: %d out vs %d in", len(g.outOff), len(g.inOff))
	}
	if len(g.outAdj) != len(g.inAdj) {
		return fmt.Errorf("graph: adjacency arrays disagree: %d out vs %d in", len(g.outAdj), len(g.inAdj))
	}
	if err := validateCSR(g.outOff, g.outAdj, n, "out"); err != nil {
		return err
	}
	return validateCSR(g.inOff, g.inAdj, n, "in")
}

func validateCSR(off []int64, adj []NodeID, n int, name string) error {
	if off[0] != 0 {
		return fmt.Errorf("graph: %s offsets must start at 0, got %d", name, off[0])
	}
	if off[n] != int64(len(adj)) {
		return fmt.Errorf("graph: %s offsets end at %d, want %d", name, off[n], len(adj))
	}
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		if lo > hi {
			return fmt.Errorf("graph: %s offsets decrease at node %d", name, u)
		}
		for i := lo; i < hi; i++ {
			if int(adj[i]) >= n {
				return fmt.Errorf("graph: %s edge from %d to out-of-range node %d", name, u, adj[i])
			}
			if i > lo && adj[i] <= adj[i-1] {
				return fmt.Errorf("graph: %s adjacency of node %d not strictly sorted", name, u)
			}
		}
	}
	return nil
}
