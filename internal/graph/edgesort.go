package graph

import (
	"math/bits"

	"gplus/internal/stats"
)

// The one way this module orders an edge list. An edge is packed as
// key<<32 | val, so ascending uint64 order is (key, val) order, and
// the list is sorted by stats.RadixSort, the module's one radix kernel:
// no comparisons, and only as many passes as the largest id present
// needs.

// PackEdge packs the edge key→val so that packed edges order by
// (key, val).
func PackEdge(key, val NodeID) uint64 { return uint64(key)<<32 | uint64(val) }

// UnpackEdge is PackEdge's inverse.
func UnpackEdge(e uint64) (key, val NodeID) { return NodeID(e >> 32), NodeID(e) }

// radixPasses is the number of digits covering every id up to maxID.
func radixPasses(maxID NodeID) int {
	return stats.RadixPasses(bits.Len32(maxID))
}

// halfPasses is the number of digits each half of edges is sorted on:
// those covering the bits in which its ids differ. Ids that share their
// high bits — the keys of one compaction bucket — need fewer passes
// than the largest id alone would ask for.
func halfPasses(edges []uint64) (val, key int) {
	var diff uint64
	for _, e := range edges {
		diff |= e ^ edges[0]
	}
	return radixPasses(NodeID(diff)), radixPasses(NodeID(diff >> 32))
}

// sortPacked sorts packed edges ascending, using scratch (at least as
// long) as the second buffer.
func sortPacked(edges, scratch []uint64) (sorted, spare []uint64) {
	val, key := halfPasses(edges)
	edges, scratch = stats.RadixSort(edges, scratch[:len(edges)], 0, val)
	return stats.RadixSort(edges, scratch, 32, key)
}

// SortEdges puts packed edges into the canonical form every edge store
// here keeps: ascending by (key, val), self-loops and duplicates
// dropped. scratch must be at least as long as edges; both buffers are
// overwritten, and kept aliases one of them.
func SortEdges(edges, scratch []uint64) (kept []uint64) {
	sorted, _ := sortPacked(edges, scratch)
	kept = sorted[:0]
	for _, e := range sorted {
		if key, val := UnpackEdge(e); key == val {
			continue
		}
		if len(kept) > 0 && kept[len(kept)-1] == e {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}
