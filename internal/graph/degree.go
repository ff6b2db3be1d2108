package graph

// InDegrees returns the in-degree of every node, computed over
// parallelism workers on disjoint node ranges. The result is identical
// for any parallelism.
func InDegrees(g View, parallelism int) []int {
	n := g.NumNodes()
	out := make([]int, n)
	runShards(uniformBounds(n, parallelism), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			out[u] = g.InDegree(NodeID(u))
		}
	})
	return out
}

// OutDegrees returns the out-degree of every node, computed over
// parallelism workers on disjoint node ranges. The result is identical
// for any parallelism.
func OutDegrees(g View, parallelism int) []int {
	n := g.NumNodes()
	out := make([]int, n)
	runShards(uniformBounds(n, parallelism), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			out[u] = g.OutDegree(NodeID(u))
		}
	})
	return out
}

// TopByInDegree returns the k nodes with the largest in-degree, in
// descending order, breaking ties by node id. This ranking drives Table 1
// ("how many circles these users are added to by others"). Each of
// parallelism workers keeps a top-k heap over its node range; the merged
// selection is by the same (degree, id) total order, so the result is
// identical for any parallelism.
func TopByInDegree(g View, k, parallelism int) []NodeID {
	return topBy(g.NumNodes(), k, parallelism, func(u NodeID) int { return g.InDegree(u) })
}

// topEntry orders candidates by degree, breaking ties toward the smaller
// node id: a is "smaller" (worse) than b when its degree is lower, or
// equal with a larger id.
type topEntry struct {
	d int
	u NodeID
}

func topLess(a, b topEntry) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.u > b.u
}

// topBy selects the global top k over [0, n) by fanning per-range top-k
// min-heaps (O(n log k) total) out over the shards and then picking the
// top k of the ≤ shards*k survivors. Selection is by the strict total
// order (degree desc, id asc), so every parallelism level picks the same
// set in the same order.
func topBy(n, k, parallelism int, deg func(NodeID) int) []NodeID {
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	bounds := uniformBounds(n, parallelism)
	parts := make([]mergeHeap, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		h := make(mergeHeap, 0, k)
		for u := lo; u < hi; u++ {
			h.offer(topEntry{deg(NodeID(u)), NodeID(u)}, k)
		}
		parts[shard] = h
	})
	merged := parts[0]
	for _, part := range parts[1:] {
		for _, e := range part {
			merged.offer(e, k)
		}
	}
	entries := merged.descending()
	out := make([]NodeID, len(entries))
	for i, e := range entries {
		out[i] = e.u
	}
	return out
}

// mergeHeap is a size-bounded min-heap over topEntry with the smallest
// candidate on top.
type mergeHeap []topEntry

func (h *mergeHeap) offer(e topEntry, k int) {
	if len(*h) < k {
		*h = append(*h, e)
		h.up(len(*h) - 1)
		return
	}
	if topLess((*h)[0], e) {
		(*h)[0] = e
		h.down(0)
	}
}

func (h mergeHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && topLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && topLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

func (h mergeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !topLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// descending pops everything; results come out ascending, so reverse.
func (h *mergeHeap) descending() []topEntry {
	out := make([]topEntry, len(*h))
	for i := len(*h) - 1; i >= 0; i-- {
		out[i] = (*h)[0]
		(*h)[0] = (*h)[len(*h)-1]
		*h = (*h)[:len(*h)-1]
		h.down(0)
	}
	return out
}
