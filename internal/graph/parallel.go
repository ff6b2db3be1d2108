package graph

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file holds the shared fan-out machinery behind every parallelized
// analysis in the package. The contract, inherited from SamplePathLengths
// and extended to all of internal/graph by this layer, is strict
// determinism: for a fixed graph (and RNG seed, where one applies) the
// result is byte-identical for any parallelism. The helpers guarantee it
// structurally — nodes are split into contiguous ranges, every shard
// writes only its own slot, and merges either preserve shard order
// (concatenation) or are exact (integer sums, total-order selection,
// canonical component relabeling). Nothing here depends on goroutine
// scheduling.

// normShards clamps a requested parallelism to [1, n] shards for n items.
func normShards(n, parallelism int) int {
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// uniformBounds splits [0, n) into s contiguous ranges of near-equal node
// count: cut points bounds[0] = 0 <= bounds[1] <= ... <= bounds[s] = n.
func uniformBounds(n, parallelism int) []int {
	s := normShards(n, parallelism)
	bounds := make([]int, s+1)
	for k := 1; k <= s; k++ {
		bounds[k] = k * n / s
	}
	return bounds
}

// prefixWorkBounds splits [0, n) into contiguous ranges of near-equal
// weight, given a monotonic prefix-weight function w (w(0) <= w(1) <=
// ... <= w(n), with w(n) the total). Each cut point is a binary search
// on w, so no prefix array is materialized. It is the shared core of
// the degree-balanced sharding used by viewWorkBounds and by the
// undirected projection behind the triangle/motif kernels.
func prefixWorkBounds(n, parallelism int, w func(int) int64) []int {
	s := normShards(n, parallelism)
	bounds := make([]int, s+1)
	bounds[s] = n
	if s == 1 {
		return bounds
	}
	total := w(n)
	for k := 1; k < s; k++ {
		target := total * int64(k) / int64(s)
		lo := bounds[k-1]
		bounds[k] = lo + sort.Search(n-lo, func(i int) bool { return w(lo+i) >= target })
	}
	return bounds
}

// WorkPrefix implements View: the total sharding weight of nodes
// [0, u), where node weight is outdeg + indeg + 1, read straight off
// the CSR offset arrays. On the crawl's heavy-tailed graphs a
// node-uniform split would hand the shard holding the celebrity head
// most of the edges; weight-balanced cuts keep shard runtimes level so
// the slowest worker bounds speedup.
func (g *Graph) WorkPrefix(u int) int64 {
	return g.outOff[u] + g.inOff[u] + int64(u)
}

// runShards invokes fn(shard, lo, hi) for each consecutive bounds pair,
// concurrently when there is more than one shard, and waits for all of
// them. fn must confine its writes to shard-owned state.
func runShards(bounds []int, fn func(shard, lo, hi int)) {
	shards := len(bounds) - 1
	if shards <= 1 {
		if shards == 1 {
			fn(0, bounds[0], bounds[1])
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(shards)
	for k := 0; k < shards; k++ {
		go func(k int) {
			defer wg.Done()
			fn(k, bounds[k], bounds[k+1])
		}(k)
	}
	wg.Wait()
}

// runChunks hands [0, n) out in chunk-sized ranges to at most
// parallelism workers: each worker pulls the next unclaimed range from
// one atomic counter and calls fn(worker, lo, hi) on it, until no range
// is left or fn returns false. Which worker takes which range depends on
// scheduling, so fn must keep its results in worker-owned state whose
// merge does not depend on it (exact integer sums). Workers are
// numbered from 0 and fewer than normShards(n, parallelism). Pulling
// keeps every worker busy to the end, where contiguous cuts of skewed
// work would leave one idle.
func runChunks(n, chunk, parallelism int, fn func(worker, lo, hi int) bool) {
	chunks := (n + chunk - 1) / chunk
	workers := normShards(chunks, parallelism)
	var next atomic.Int64
	runShards(uniformBounds(workers, workers), func(w, _, _ int) {
		for {
			lo := int(next.Add(1)-1) * chunk
			if lo >= n || !fn(w, lo, min(lo+chunk, n)) {
				return
			}
		}
	})
}

// Shards is the fan-out for callers outside the package: fn(shard, lo,
// hi) runs over [0, n) cut into at most parallelism contiguous
// near-equal ranges, numbered from 0 in range order, concurrently, and
// Shards waits for all of them. fn must confine its writes to its own
// range or shard.
func Shards(n, parallelism int, fn func(shard, lo, hi int)) {
	runShards(uniformBounds(n, parallelism), fn)
}

// relabelByFirstAppearance rewrites the component labels in comp to the
// package's canonical numbering — ids count up in order of each
// component's first appearance by node id — and returns the component
// sizes under that numbering. Input labels must lie in [0, maxOld). The
// canonical form is what makes component results independent of
// discovery order: Tarjan's reverse-topological emission for SCC, and
// whatever order WCC's workers merged roots in at any parallelism.
func relabelByFirstAppearance(comp []int32, maxOld int) []int32 {
	remap := make([]int32, maxOld)
	for i := range remap {
		remap[i] = -1
	}
	var sizes []int32
	for i, c := range comp {
		id := remap[c]
		if id < 0 {
			id = int32(len(sizes))
			remap[c] = id
			sizes = append(sizes, 0)
		}
		comp[i] = id
		sizes[id]++
	}
	return sizes
}
