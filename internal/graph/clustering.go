package graph

import (
	"math/rand/v2"
	"sort"
)

// ClusteringCoefficient computes the directed clustering coefficient C(u)
// defined in §3.3.3: the number of directed edges among u's out-neighbors
// divided by the maximum possible |OS(u)| * (|OS(u)|-1). It returns
// (0, false) for nodes with fewer than two out-neighbors, which the paper
// excludes from the analysis.
func ClusteringCoefficient(g View, u NodeID) (float64, bool) {
	return clusteringCoefficient(g, g.Rows(), g.Rows(), u)
}

// clusteringCoefficient is ClusteringCoefficient through a worker's two
// cursors (see clusteringLinks).
func clusteringCoefficient(g View, own, nbr Rows, u NodeID) (float64, bool) {
	k := g.OutDegree(u)
	if k < 2 {
		return 0, false
	}
	return float64(clusteringLinks(own, nbr, u)) / float64(k*(k-1)), true
}

// clusteringLinks is the integer numerator of C(u): the number of
// directed edges among u's out-neighbors. Kept separate so exact
// aggregations (per-degree curves, motif cross-checks) can sum the
// numerators as integers instead of rounding floats back. u's own
// out-row stays live while each neighbor's out-row is read, hence the
// second cursor.
func clusteringLinks(own, nbr Rows, u NodeID) int {
	out := own.Out(u)
	links := 0
	for _, v := range out {
		// Count directed edges v->w with w also an out-neighbor of u.
		// v->v never exists (self-loops are dropped at build time), so
		// the intersection never counts the node itself.
		links += sortedIntersectionSize(nbr.Out(v), out)
	}
	return links
}

// sortedIntersectionSize returns |a ∩ b| for two sorted lists.
func sortedIntersectionSize(a, b []NodeID) int {
	count := 0
	intersectSorted(a, b, func(int, int) { count++ })
	return count
}

// gallopSkewFactor is the length ratio beyond which intersectSorted
// abandons the linear merge for galloping probes of the longer list.
// The microbenchmarks (BenchmarkIntersection*) put the crossover well
// below 16x; the conservative factor keeps near-balanced pairs on the
// branch-predictable merge.
const gallopSkewFactor = 16

// intersectSorted calls emit(i, j) for every common element a[i] ==
// b[j], in ascending order; positions rather than values, so a caller
// holding data parallel to either list can index it. Near-equal lengths
// use a linear merge; when one list dwarfs the other — a celebrity
// adjacency list against an ordinary one — it gallops through the long
// list instead, costing O(short·log(long)) rather than O(short+long).
// Exact triangle counting on a heavy-tailed graph intersects the head's
// list once per incident edge, so without this the kernel goes
// quadratic on exactly the nodes the paper's degree distribution
// promises exist.
func intersectSorted(a, b []NodeID, emit func(i, j int)) {
	if len(a) > len(b) {
		intersectSorted(b, a, func(j, i int) { emit(i, j) })
		return
	}
	if len(b) >= gallopSkewFactor*len(a) && len(a) > 0 {
		base := 0 // b[:base] is consumed
		for i, x := range a {
			// Gallop: double the probe distance until past x, binary
			// search the bracketed window, then drop the consumed
			// prefix so one full pass costs O(|a| log |b|).
			rest := b[base:]
			hi := 1
			for hi < len(rest) && rest[hi] < x {
				hi *= 2
			}
			if hi > len(rest) {
				hi = len(rest)
			}
			lo := hi / 2
			k := lo + sort.Search(hi-lo, func(k int) bool { return rest[lo+k] >= x })
			if k < len(rest) && rest[k] == x {
				emit(i, base+k)
				k++
			}
			base += k
			if base == len(b) {
				return
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			emit(i, j)
			i++
			j++
		}
	}
}

// SampleClustering computes clustering coefficients for nodes with
// out-degree > 1, mirroring the paper's one-million-node sample. It
// returns one coefficient per selected node. The sampleSize contract is
// explicit:
//
//   - sampleSize < 0 selects nothing: the caller asked for fewer than
//     zero nodes, so the result is nil and rng is not consumed;
//   - sampleSize == 0 is a full scan: every eligible node, in ascending
//     node-id order, with rng not consumed (it may be nil);
//   - 0 < sampleSize < #eligible draws a uniform sample without
//     replacement via a partial Fisher-Yates;
//   - sampleSize >= #eligible degenerates to the full scan (all
//     eligible nodes, id order, rng not consumed).
//
// The eligibility scan and the per-node coefficients fan out over
// parallelism workers; the Fisher-Yates draw stays serial so the RNG
// stream is consumed in a fixed order. For a fixed rng seed the result is
// identical for any parallelism.
func SampleClustering(g View, sampleSize int, rng *rand.Rand, parallelism int) []float64 {
	if sampleSize < 0 {
		return nil
	}
	n := g.NumNodes()
	elBounds := uniformBounds(n, parallelism)
	elParts := make([][]NodeID, len(elBounds)-1)
	runShards(elBounds, func(shard, lo, hi int) {
		part := make([]NodeID, 0, hi-lo)
		for u := lo; u < hi; u++ {
			if g.OutDegree(NodeID(u)) > 1 {
				part = append(part, NodeID(u))
			}
		}
		elParts[shard] = part
	})
	eligible := concatShards(elParts)
	if sampleSize == 0 || sampleSize > len(eligible) {
		sampleSize = len(eligible)
	} else {
		// Partial Fisher-Yates: the first sampleSize entries become a
		// uniform sample without replacement.
		for i := 0; i < sampleSize; i++ {
			j := i + rng.IntN(len(eligible)-i)
			eligible[i], eligible[j] = eligible[j], eligible[i]
		}
	}
	// Each sampled node's coefficient lands in its own slot, so the
	// output order matches the serial scan over the sample.
	selected := eligible[:sampleSize]
	coeffs := make([]float64, sampleSize)
	runShards(uniformBounds(sampleSize, parallelism), func(_, lo, hi int) {
		own, nbr := g.Rows(), g.Rows()
		for i := lo; i < hi; i++ {
			// Sampled nodes have out-degree > 1, so the coefficient is
			// always defined.
			coeffs[i], _ = clusteringCoefficient(g, own, nbr, selected[i])
		}
	})
	return coeffs
}

// AllClustering computes the exact clustering coefficient of every
// eligible node (out-degree > 1), in ascending node-id order — the
// exact replacement for SampleClustering's estimate. Work shards are
// degree-balanced and merge by concatenation, so the result is
// identical for any parallelism. It equals SampleClustering(g, 0, nil,
// parallelism) and exists as the named entry point of the exact path.
func AllClustering(g View, parallelism int) []float64 {
	bounds := viewWorkBounds(g, parallelism)
	parts := make([][]float64, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		var part []float64
		own, nbr := g.Rows(), g.Rows()
		for u := lo; u < hi; u++ {
			if c, ok := clusteringCoefficient(g, own, nbr, NodeID(u)); ok {
				part = append(part, c)
			}
		}
		parts[shard] = part
	})
	return concatShards(parts)
}

// DegreeClustering is one point of the C(k) curve: the mean clustering
// coefficient over the eligible nodes sharing one out-degree.
type DegreeClustering struct {
	Degree int
	// N is the number of eligible nodes with this out-degree.
	N int
	// Mean is their average clustering coefficient.
	Mean float64
}

// ClusteringByDegree computes the exact C(k) curve: for every
// out-degree k > 1 present in the graph, the mean coefficient over all
// nodes of that out-degree, ascending by k. Shards accumulate the
// integer link numerators, which merge by exact sums, so the curve is
// byte-identical for any parallelism.
func ClusteringByDegree(g View, parallelism int) []DegreeClustering {
	type acc struct{ links, n int64 }
	bounds := viewWorkBounds(g, parallelism)
	parts := make([]map[int]acc, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		m := map[int]acc{}
		own, nbr := g.Rows(), g.Rows()
		for u := lo; u < hi; u++ {
			k := g.OutDegree(NodeID(u))
			if k < 2 {
				continue
			}
			a := m[k]
			a.links += int64(clusteringLinks(own, nbr, NodeID(u)))
			a.n++
			m[k] = a
		}
		parts[shard] = m
	})
	merged := map[int]acc{}
	for _, m := range parts {
		for k, a := range m {
			t := merged[k]
			t.links += a.links
			t.n += a.n
			merged[k] = t
		}
	}
	degs := make([]int, 0, len(merged))
	for k := range merged {
		degs = append(degs, k)
	}
	sort.Ints(degs)
	out := make([]DegreeClustering, len(degs))
	for i, k := range degs {
		a := merged[k]
		out[i] = DegreeClustering{
			Degree: k,
			N:      int(a.n),
			Mean:   float64(a.links) / (float64(a.n) * float64(k) * float64(k-1)),
		}
	}
	return out
}

// WedgeCount returns the number of ordered out-wedges, Σ_u d_out(u)·
// (d_out(u)−1) — the work upper bound of the exact clustering scan. The
// study layer uses it to decide whether the exact path is affordable or
// the paper's sampled estimate must stand in.
func WedgeCount(g View, parallelism int) int64 {
	bounds := uniformBounds(g.NumNodes(), parallelism)
	parts := make([]int64, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		var s int64
		for u := lo; u < hi; u++ {
			d := int64(g.OutDegree(NodeID(u)))
			s += d * (d - 1)
		}
		parts[shard] = s
	})
	var total int64
	for _, p := range parts {
		total += p
	}
	return total
}

// GlobalClustering returns the mean clustering coefficient over a sample
// (convenience for Table 4-style summaries).
func GlobalClustering(g View, sampleSize int, rng *rand.Rand, parallelism int) float64 {
	coeffs := SampleClustering(g, sampleSize, rng, parallelism)
	if len(coeffs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range coeffs {
		sum += c
	}
	return sum / float64(len(coeffs))
}
