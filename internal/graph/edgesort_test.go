package graph

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"gplus/internal/stats"
)

// TestRadixPasses pins the pass count at the digit boundaries: an id
// needs one 11-bit pass per started digit, none when every id is 0. A
// half is sorted only on the bits its ids differ in, so ids that share
// their high bits need the passes of their differences alone.
func TestRadixPasses(t *testing.T) {
	for _, tc := range []struct {
		maxID NodeID
		want  int
	}{
		{0, 0}, {1, 1}, {2047, 1}, {2048, 2}, {1<<22 - 1, 2}, {1 << 22, 3}, {1 << 31, 3}, {math.MaxUint32, 3},
	} {
		if got := radixPasses(tc.maxID); got != tc.want {
			t.Errorf("radixPasses(%d) = %d, want %d", tc.maxID, got, tc.want)
		}
		if val, key := halfPasses([]uint64{PackEdge(0, tc.maxID), PackEdge(tc.maxID/2, 0)}); max(val, key) != tc.want {
			t.Errorf("halfPasses with largest id %d = %d, %d, want %d at most", tc.maxID, val, key, tc.want)
		}
		high := tc.maxID &^ (1<<stats.RadixBits - 1)
		if val, key := halfPasses([]uint64{PackEdge(high, tc.maxID), PackEdge(tc.maxID, high)}); max(val, key) > 1 {
			t.Errorf("halfPasses over ids sharing all but their low digit (%d, %d) = %d, %d, want at most 1", high, tc.maxID, val, key)
		}
	}
}

// FuzzSortEdges is the kernel's differential test against comparison
// sorts: the radix order must be slices.Sort's order of the packed
// edges, and SortEdges that order without self-loops and duplicates.
// The input is 8 bytes per edge, ids masked to a 1-, 2- or 3-pass
// width.
func FuzzSortEdges(f *testing.F) {
	masks := []NodeID{1<<stats.RadixBits - 1, 1<<(2*stats.RadixBits) - 1, math.MaxUint32}
	encode := func(ids ...NodeID) []byte {
		var data []byte
		for _, id := range ids {
			data = binary.LittleEndian.AppendUint32(data, id)
		}
		return data
	}
	for w, mask := range masks {
		f.Add(uint8(w), []byte{})                                   // empty
		f.Add(uint8(w), encode(mask, 0))                            // length 1
		f.Add(uint8(w), encode(0, 0, 0, 0))                         // every id 0: no pass at all
		f.Add(uint8(w), encode(5, mask, 5, 0, 5, 7, 5, 7, 5, 5))    // one key; a duplicate, a self-loop
		f.Add(uint8(w), encode(mask, 0, 0, mask, mask, mask, 0, 0)) // 0 and maxID in both halves
		f.Add(uint8(w), encode(3, 1, 2, 1, 1, 3, 1, 2, 2, 3, 3, 2, 2, 1))
		f.Add(uint8(w), encode(mask/2+1, 9, mask/2, 9, 9, mask/2+1, 9, mask/2))
	}
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		mask := masks[int(width)%len(masks)]
		var edges []uint64
		for ; len(data) >= 8; data = data[8:] {
			edges = append(edges, PackEdge(binary.LittleEndian.Uint32(data)&mask, binary.LittleEndian.Uint32(data[4:])&mask))
		}

		want := slices.Clone(edges)
		slices.Sort(want)
		sorted, spare := sortPacked(slices.Clone(edges), make([]uint64, len(edges)+1))
		if !slices.Equal(sorted, want) {
			t.Fatalf("sortPacked(%x) = %x, want %x", edges, sorted, want)
		}
		if len(spare) != len(edges) {
			t.Fatalf("spare buffer has length %d, want the input's %d", len(spare), len(edges))
		}

		want = slices.Compact(slices.DeleteFunc(want, func(e uint64) bool {
			key, val := UnpackEdge(e)
			return key == val
		}))
		if kept := SortEdges(slices.Clone(edges), make([]uint64, len(edges))); !slices.Equal(kept, want) {
			t.Fatalf("SortEdges(%x) = %x, want %x", edges, kept, want)
		}
	})
}
