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

// idPasses is radixPasses of the largest id in edges, either half.
func idPasses(edges []uint64) int {
	var or uint64
	for _, e := range edges {
		or |= e
	}
	return radixPasses(NodeID(or>>32) | NodeID(or))
}

// sortPacked sorts packed edges ascending, using scratch (at least as
// long) as the second buffer.
func sortPacked(edges, scratch []uint64) (sorted, spare []uint64) {
	p := idPasses(edges)
	edges, scratch = stats.RadixSort(edges, scratch[:len(edges)], 0, p)
	return stats.RadixSort(edges, scratch, 32, p)
}

// SortEdges puts packed edges into the canonical form every edge store
// here keeps: ascending by (key, val), self-loops and duplicates
// dropped. scratch must be at least as long as edges; both buffers are
// overwritten, kept aliases one of them and spare is the other, cut to
// the input length, for ReverseEdges.
func SortEdges(edges, scratch []uint64) (kept, spare []uint64) {
	sorted, spare := sortPacked(edges, scratch)
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
	return kept, spare
}

// ReverseEdges turns edges sorted by (key, val) into the same edges
// packed val<<32 | key and sorted by (val, key), at half a sort's cost:
// swapping the halves leaves the new low half ascending, and a stable
// sort on the new key alone keeps it ascending within each key. Both
// buffers are overwritten; scratch must be at least as long as sorted.
func ReverseEdges(sorted, scratch []uint64) (reversed, spare []uint64) {
	for i, e := range sorted {
		sorted[i] = bits.RotateLeft64(e, 32)
	}
	return stats.RadixSort(sorted, scratch[:len(sorted)], 32, idPasses(sorted))
}
