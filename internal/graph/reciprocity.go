package graph

// ReciprocalCounts is the one scan behind Figure 4(a): for every node u,
// the number of reciprocated out-edges |OS(u) ∩ IS(u)|, the integer
// numerator of RR(u). Per-node ratios and the global figure are O(n)
// derivations of it. The scan fans out over parallelism workers on
// degree-balanced node ranges, each writing only its own nodes' slots, so
// the output is identical for any parallelism.
func ReciprocalCounts(g View, parallelism int) []int {
	shared := make([]int, g.NumNodes())
	runShards(viewWorkBounds(g, parallelism), func(_, lo, hi int) {
		rows := g.Rows()
		for u := lo; u < hi; u++ {
			if out := rows.Out(NodeID(u)); len(out) > 0 {
				shared[u] = sortedIntersectionSize(out, rows.In(NodeID(u)))
			}
		}
	})
	return shared
}

// AllReciprocities returns the relation reciprocity of Equation 1,
// RR(u) = |OS(u) ∩ IS(u)| / |OS(u)|, for every node with at least one
// out-edge (the others have none defined), in ascending node order: the
// population plotted in Figure 4(a).
func AllReciprocities(g View, parallelism int) []float64 {
	shared := ReciprocalCounts(g, parallelism)
	rrs := make([]float64, 0, len(shared))
	for u, c := range shared {
		if k := g.OutDegree(NodeID(u)); k > 0 {
			rrs = append(rrs, float64(c)/float64(k))
		}
	}
	return rrs
}

// GlobalReciprocity returns the fraction of directed edges that are
// reciprocated (u->v exists and v->u exists). The paper measures 32% for
// Google+ versus 22.1% reported for Twitter.
func GlobalReciprocity(g View, parallelism int) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var reciprocal int64
	for _, c := range ReciprocalCounts(g, parallelism) {
		reciprocal += int64(c)
	}
	return float64(reciprocal) / float64(g.NumEdges())
}
