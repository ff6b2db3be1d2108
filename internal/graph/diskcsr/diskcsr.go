// Package diskcsr stores the study graph out of core: a compressed CSR
// file (format v2) that is memory-mapped and decoded lazily, so graphs
// far larger than RAM — the paper's 27.5M-profile / 575M-edge crawl —
// analyze on one machine. The package has two halves:
//
//   - The v2 file: per-direction edge-count and byte-offset index
//     arrays over a varint/delta-compressed adjacency blob. Mapped
//     implements graph.View (plus graph.WorkPrefixer), so every
//     analysis kernel in internal/graph runs over it unmodified and,
//     by the package determinism contract, byte-identically to the
//     in-RAM Graph.
//
//   - LSM-style edge segments: bounded in-memory batches of edges
//     flushed during a live crawl to segment files, each a raw log of
//     8-byte records in the order the edges were added, and compacted
//     into a v2 file by Compact, a distribution sort over key-range
//     buckets and the one place edges are sorted, deduplicated and
//     stripped of self-loops. Ingest RAM is bounded by the flush
//     threshold and compaction RAM, beside the O(n) index arrays, by
//     one bucket and its chunk buffers per worker: neither grows with
//     the crawl.
//
// v2 layout (all integers little-endian):
//
//	magic "GPLGRPH2" | u64 n | u64 m | u64 outBlobLen | u64 inBlobLen | u64 reserved
//	outCnt (n+1)×u64 | outPos (n+1)×u64 | inCnt (n+1)×u64 | inPos (n+1)×u64
//	outBlob | inBlob
//
// cnt arrays are edge-count prefix sums (cnt[u] = edges in rows < u),
// giving O(1) degrees and the same WorkPrefix the in-RAM graph uses for
// degree-balanced sharding. pos arrays are byte offsets into the blob.
// A row with degree d > 0 encodes varint(first) then varint(delta−1)
// for each further, strictly ascending, neighbor.
package diskcsr

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"gplus/internal/graph"
)

const (
	headerSize = 48
	// maxNodes/maxEdges are the hostile-input caps: a header claiming
	// more is rejected before it sizes any allocation.
	maxNodes = 1 << 31
	maxEdges = 1 << 33
)

var v2Magic = [8]byte{'G', 'P', 'L', 'G', 'R', 'P', 'H', '2'}

// header is the fixed-size prefix of a v2 file.
type header struct {
	n          uint64
	m          uint64
	outBlobLen uint64
	inBlobLen  uint64
}

func (h *header) indexBytes() uint64 { return 4 * 8 * (h.n + 1) }

func (h *header) fileSize() uint64 {
	return headerSize + h.indexBytes() + h.outBlobLen + h.inBlobLen
}

func (h *header) marshal() []byte {
	buf := make([]byte, headerSize)
	copy(buf, v2Magic[:])
	binary.LittleEndian.PutUint64(buf[8:], h.n)
	binary.LittleEndian.PutUint64(buf[16:], h.m)
	binary.LittleEndian.PutUint64(buf[24:], h.outBlobLen)
	binary.LittleEndian.PutUint64(buf[32:], h.inBlobLen)
	return buf
}

func parseHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < headerSize {
		return h, fmt.Errorf("diskcsr: file shorter than header (%d bytes)", len(buf))
	}
	if [8]byte(buf[:8]) != v2Magic {
		return h, fmt.Errorf("diskcsr: bad magic %q", buf[:8])
	}
	h.n = binary.LittleEndian.Uint64(buf[8:])
	h.m = binary.LittleEndian.Uint64(buf[16:])
	h.outBlobLen = binary.LittleEndian.Uint64(buf[24:])
	h.inBlobLen = binary.LittleEndian.Uint64(buf[32:])
	if h.n > maxNodes {
		return h, fmt.Errorf("diskcsr: node count %d exceeds limit", h.n)
	}
	if h.m > maxEdges {
		return h, fmt.Errorf("diskcsr: edge count %d exceeds limit", h.m)
	}
	return h, nil
}

// rowSize returns the encoded byte length of one strictly ascending row.
func rowSize(row []graph.NodeID) int {
	if len(row) == 0 {
		return 0
	}
	s := uvarintLen(uint64(row[0]))
	for i := 1; i < len(row); i++ {
		s += uvarintLen(uint64(row[i]-row[i-1]) - 1)
	}
	return s
}

// appendRow appends the encoding of a strictly ascending row to dst.
func appendRow(dst []byte, row []graph.NodeID) []byte {
	if len(row) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(row[0]))
	for i := 1; i < len(row); i++ {
		dst = binary.AppendUvarint(dst, uint64(row[i]-row[i-1])-1)
	}
	return dst
}

// decodeRow decodes the len(dst) neighbors of one row from blob into
// dst, returning the bytes consumed. n bounds node ids; any malformed
// varint, or a step that would carry the row to or past n (which is
// also every step that could wrap and break the ascending order), is an
// error. It is the one row decoder: Open's verification, Materialize and
// every cursor read go through it with the same checks.
func decodeRow(blob []byte, n uint64, dst []graph.NodeID) (int, error) {
	used := 0
	next := uint64(0) // the smallest id the coming element may take; <= n
	for i := range dst {
		// v is the first id, or the gap to the previous id minus one.
		// One- and two-byte varints — nearly every delta of a sorted
		// adjacency row — decode without a branch between them, which
		// matters because their mix is unpredictable; anything longer,
		// and the row's last byte, take the general decoder.
		var v uint64
		if used+1 < len(blob) && blob[used]&blob[used+1] < 0x80 {
			b0, b1 := uint64(blob[used]), uint64(blob[used+1])
			more := b0 >> 7 // 1 when the second byte belongs to v
			v = b0&0x7f | (b1<<7)&-more
			used += 1 + int(more)
		} else {
			var k int
			v, k = binary.Uvarint(blob[used:])
			if k <= 0 {
				return used, fmt.Errorf("diskcsr: truncated varint at row element %d", i)
			}
			used += k
		}
		if v >= n-next {
			return used, fmt.Errorf("diskcsr: row element %d: step %d from %d lands out of range (n=%d)", i, v, next, n)
		}
		next += v + 1
		dst[i] = graph.NodeID(next - 1)
	}
	return used, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// inParallel cuts [0, n) into at most GOMAXPROCS contiguous ranges and
// runs do on each, one goroutine per range. do works through its range
// in order and stops at its first failure, so the error returned — the
// lowest range's — is the one a serial loop over [0, n) would stop at.
func inParallel(n int, do func(lo, hi int) error) error {
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	graph.Shards(n, runtime.GOMAXPROCS(0), func(lo, hi int) { errs[lo] = do(lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bothDirections runs do(0) for the out direction and do(1) for the in
// direction, side by side when GOMAXPROCS allows. When both fail, the
// out direction's error is the one returned.
func bothDirections(do func(d int) error) error {
	return inParallel(2, func(lo, hi int) error {
		for d := lo; d < hi; d++ {
			if err := do(d); err != nil {
				return err
			}
		}
		return nil
	})
}
