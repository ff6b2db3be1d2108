package graph

import "sync/atomic"

// WCCResult describes the weakly connected components of a graph.
type WCCResult struct {
	// Comp maps each node to its component index in [0, Count). Component
	// indices are assigned in order of first appearance by node id.
	Comp []int32
	// Sizes holds the node count of each component.
	Sizes []int32
	// Count is the number of components.
	Count int
}

// GiantSize returns the size of the largest weak component.
func (r *WCCResult) GiantSize() int {
	max := int32(0)
	for _, s := range r.Sizes {
		if s > max {
			max = s
		}
	}
	return int(max)
}

// GiantFraction returns the fraction of graph nodes inside the largest
// weak component. The denominator is the node count of the analyzed
// graph — the same denominator SCCResult.GiantFraction uses — matching
// the paper's §3.3.4 reading where connectivity fractions are over the
// 35.1M-node graph G, not any external user roster.
func (r *WCCResult) GiantFraction() float64 {
	if len(r.Comp) == 0 {
		return 0
	}
	return float64(r.GiantSize()) / float64(len(r.Comp))
}

// WCC computes weakly connected components with a lock-free union-find
// (CAS union toward the smaller root, atomic path halving) whose edge
// scan fans out over parallelism workers on degree-balanced node ranges.
// Components are then labeled canonically — by first appearance in node
// id order — so the result is byte-identical for any parallelism.
//
// A bidirectional snowball crawl such as the paper's yields a single WCC;
// isolated or uncrawled users show up as additional components.
func WCC(g View, parallelism int) *WCCResult {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	// Scanning out-edges alone covers every edge; in-edges are mirrors.
	// Shard weight follows the out-CSR so the celebrity head does not pile
	// onto one worker.
	runShards(viewWorkBounds(g, parallelism), func(_, lo, hi int) {
		rows := g.Rows()
		for u := lo; u < hi; u++ {
			for _, v := range rows.Out(NodeID(u)) {
				ufUnion(parent, int32(u), int32(v))
			}
		}
	})

	// Fully collapse every node to its root in parallel, then assign
	// canonical labels serially in node order.
	comp := make([]int32, n)
	runShards(uniformBounds(n, parallelism), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			comp[u] = ufFind(parent, int32(u))
		}
	})
	sizes := relabelByFirstAppearance(comp, n)
	return &WCCResult{Comp: comp, Sizes: sizes, Count: len(sizes)}
}

// ufFind returns the root of x with atomic path halving. Parent pointers
// only ever decrease (unions point the larger root at the smaller), so a
// halving store can only shortcut toward an ancestor — concurrent finds
// and unions stay correct.
func ufFind(parent []int32, x int32) int32 {
	for {
		p := atomic.LoadInt32(&parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&parent[p])
		if gp == p {
			return p
		}
		// Best-effort halving; a lost race just means one extra hop later.
		atomic.CompareAndSwapInt32(&parent[x], p, gp)
		x = gp
	}
}

// ufUnion merges the components of a and b. The CAS succeeds only while
// the larger root is still a root, and always points it at a smaller id,
// so the parent forest is acyclic and the loop terminates.
func ufUnion(parent []int32, a, b int32) {
	for {
		ra, rb := ufFind(parent, a), ufFind(parent, b)
		if ra == rb {
			return
		}
		if ra < rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&parent[ra], ra, rb) {
			return
		}
	}
}
