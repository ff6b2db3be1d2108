package graph

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"gplus/internal/stats"
)

// TestRadixPasses pins the pass count at the digit boundaries: an id
// needs one 11-bit pass per started digit, none when every id is 0.
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
		if got := idPasses([]uint64{PackEdge(0, tc.maxID), PackEdge(tc.maxID/2, 0)}); got != tc.want {
			t.Errorf("idPasses with largest id %d = %d, want %d", tc.maxID, got, tc.want)
		}
	}
}

// FuzzSortEdges is the kernel's differential test against comparison
// sorts: the radix order must be slices.Sort's order of the packed
// edges, SortEdges that order without self-loops and duplicates, and
// ReverseEdges a comparison sort by (val, key). The input is 8 bytes
// per edge, ids masked to a 1-, 2- or 3-pass width.
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
		kept, spare := SortEdges(slices.Clone(edges), make([]uint64, len(edges)))
		if !slices.Equal(kept, want) {
			t.Fatalf("SortEdges(%x) = %x, want %x", edges, kept, want)
		}

		wantRev := slices.Clone(want)
		slices.SortFunc(wantRev, func(a, b uint64) int {
			aKey, aVal := UnpackEdge(a)
			bKey, bVal := UnpackEdge(b)
			return cmp.Or(cmp.Compare(aVal, bVal), cmp.Compare(aKey, bKey))
		})
		for i, e := range wantRev {
			key, val := UnpackEdge(e)
			wantRev[i] = PackEdge(val, key)
		}
		if rev, _ := ReverseEdges(kept, spare); !slices.Equal(rev, wantRev) {
			t.Fatalf("ReverseEdges(%x) = %x, want %x", want, rev, wantRev)
		}
	})
}
