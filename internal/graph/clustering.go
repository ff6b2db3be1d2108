package graph

import (
	"context"
	"sort"
)

// ClusteringCoefficient computes the directed clustering coefficient C(u)
// defined in §3.3.3: the number of directed edges among u's out-neighbors
// divided by the maximum possible |OS(u)| * (|OS(u)|-1). It returns
// (0, false) for nodes with fewer than two out-neighbors, which the paper
// excludes from the analysis.
func ClusteringCoefficient(g View, u NodeID) (float64, bool) {
	k := g.OutDegree(u)
	if k < 2 {
		return 0, false
	}
	return coefficient(clusteringLinks(g.Rows(), g.Rows(), u), k), true
}

// coefficient is C(u) from its integer numerator and out-degree k >= 2.
func coefficient(links int64, k int) float64 {
	return float64(links) / float64(k*(k-1))
}

// clusteringLinks is the integer numerator of C(u): the number of
// directed edges among u's out-neighbors. u's own out-row stays live
// while each neighbor's out-row is read, hence the second cursor.
func clusteringLinks(own, nbr Rows, u NodeID) int64 {
	out := own.Out(u)
	var links int64
	for _, v := range out {
		// Count directed edges v->w with w also an out-neighbor of u.
		// v->v never exists (self-loops are dropped at build time), so
		// the intersection never counts the node itself.
		links += int64(sortedIntersectionSize(nbr.Out(v), out))
	}
	return links
}

// gallopSkewFactor is the length ratio beyond which
// sortedIntersectionSize abandons the linear merge for galloping probes
// of the longer list. The microbenchmarks (BenchmarkIntersect) put the
// crossover well below 16x; the conservative factor keeps near-balanced
// pairs on the branch-predictable merge.
const gallopSkewFactor = 16

// sortedIntersectionSize returns |a ∩ b| for two sorted lists.
// Near-equal lengths use a linear merge; when one list dwarfs the
// other it gallops through the long list instead, costing
// O(short·log(long)) rather than O(short+long). Most callers intersect
// one node's out-row with its in-row, and on a celebrity the in-row is
// orders of magnitude the longer, so each node of the heavy-tailed head
// the paper's degree distribution promises costs O(out·log(in)), not a
// walk of all its followers.
func sortedIntersectionSize(a, b []NodeID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	count := 0
	if len(a) > 0 && len(b) >= gallopSkewFactor*len(a) {
		base := 0 // b[:base] is consumed
		for _, x := range a {
			// Gallop: double the probe distance until past x, binary
			// search the bracketed window, then drop the consumed
			// prefix so one full pass costs O(|a| log |b|).
			rest := b[base:]
			hi := 1
			for hi < len(rest) && rest[hi] < x {
				hi *= 2
			}
			hi = min(hi, len(rest))
			lo := hi / 2
			k := lo + sort.Search(hi-lo, func(k int) bool { return rest[lo+k] >= x })
			if k < len(rest) && rest[k] == x {
				count++
				k++
			}
			if base += k; base == len(b) {
				break
			}
		}
		return count
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i], b[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// ClusteringFromLinks derives Figure 4(b) from TriadResult.Links: the
// clustering coefficient of every node with out-degree > 1, in ascending
// node-id order — every node the paper's one-million-node sample drew
// from.
func ClusteringFromLinks(g View, links []int64) []float64 {
	var coeffs []float64
	for u, l := range links {
		if k := g.OutDegree(NodeID(u)); k > 1 {
			coeffs = append(coeffs, coefficient(l, k))
		}
	}
	return coeffs
}

// AllClustering computes the exact clustering coefficient of every
// eligible node (out-degree > 1), in ascending node-id order: one Triads
// pass read through ClusteringFromLinks.
func AllClustering(g View, parallelism int) []float64 {
	res, _ := Triads(context.Background(), g, parallelism) // never cancelled
	return ClusteringFromLinks(g, res.Links)
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

// ClusteringByDegree derives the C(k) curve from TriadResult.Links: for
// every out-degree k > 1, the mean coefficient over the nodes of that
// out-degree, ascending by k. The link numerators are summed as integers
// per degree, so the curve is exact.
func ClusteringByDegree(g View, links []int64) []DegreeClustering {
	type acc struct{ links, n int64 }
	byDeg := map[int]acc{}
	for u, l := range links {
		k := g.OutDegree(NodeID(u))
		if k < 2 {
			continue
		}
		a := byDeg[k]
		a.links += l
		a.n++
		byDeg[k] = a
	}
	degs := make([]int, 0, len(byDeg))
	for k := range byDeg {
		degs = append(degs, k)
	}
	sort.Ints(degs)
	out := make([]DegreeClustering, len(degs))
	for i, k := range degs {
		a := byDeg[k]
		out[i] = DegreeClustering{
			Degree: k,
			N:      int(a.n),
			Mean:   float64(a.links) / (float64(a.n) * float64(k) * float64(k-1)),
		}
	}
	return out
}
