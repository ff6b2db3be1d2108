package graph

import "math/bits"

// The one way this module orders an edge list. An edge is packed as
// key<<32 | val, so ascending uint64 order is (key, val) order, and
// the list is sorted by a stable LSD radix over 11-bit digits that
// ping-pongs between two caller-owned buffers: no comparisons, and only
// as many passes as the largest id present needs.

const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// PackEdge packs the edge key→val so that packed edges order by
// (key, val).
func PackEdge(key, val NodeID) uint64 { return uint64(key)<<32 | uint64(val) }

// UnpackEdge is PackEdge's inverse.
func UnpackEdge(e uint64) (key, val NodeID) { return NodeID(e >> 32), NodeID(e) }

// radixPasses is the number of digits covering every id up to maxID.
func radixPasses(maxID NodeID) int {
	return (bits.Len32(maxID) + radixBits - 1) / radixBits
}

// idPasses is radixPasses of the largest id in edges, either half.
func idPasses(edges []uint64) int {
	var or uint64
	for _, e := range edges {
		or |= e
	}
	return radixPasses(NodeID(or>>32) | NodeID(or))
}

// radixSort stably sorts src by the passes digits starting at bit
// shift, alternating between src and dst (which must be as long), and
// returns the buffer holding the result and the other one.
func radixSort(src, dst []uint64, shift uint, passes int) (sorted, spare []uint64) {
	for ; passes > 0; passes-- {
		var next [1 << radixBits]int
		for _, e := range src {
			next[e>>shift&radixMask]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, e := range src {
			d := e >> shift & radixMask
			dst[next[d]] = e
			next[d]++
		}
		src, dst = dst, src
		shift += radixBits
	}
	return src, dst
}

// sortPacked sorts packed edges ascending, using scratch (at least as
// long) as the second buffer.
func sortPacked(edges, scratch []uint64) (sorted, spare []uint64) {
	p := idPasses(edges)
	edges, scratch = radixSort(edges, scratch[:len(edges)], 0, p)
	return radixSort(edges, scratch, 32, p)
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
	return radixSort(sorted, scratch[:len(sorted)], 32, idPasses(sorted))
}
