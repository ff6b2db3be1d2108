package diskcsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gplus/internal/durable"
	"gplus/internal/graph"
)

// LSM-style ingest: edges accumulate in a bounded buffer and flush as
// immutable sorted segment files; Compact later k-way merges every
// segment into one v2 CSR. Each segment stores the same edge set twice
// — forward runs sorted by (src, dst) and reverse runs sorted by
// (dst, src) — so compaction builds both CSR directions as pure
// streaming merges with RAM bounded by the flush threshold, never the
// crawl size.
//
// Segment layout (little-endian):
//
//	magic "GPLSEG01" | u64 nodeBound | u64 edges | u64 fwdLen | u64 revLen
//	fwd blob | rev blob
//
// A blob is a sequence of runs, one per distinct key (src for fwd, dst
// for rev), keys strictly ascending: varint(keyGap) varint(count)
// varint(firstVal) varint(valDelta−1)... where keyGap is the distance
// from the previous run's key (the first run's key is the gap itself).
var segMagic = [8]byte{'G', 'P', 'L', 'S', 'E', 'G', '0', '1'}

const segHeaderSize = 40

// DefaultSegmentEdges is the flush threshold Writer uses when none is
// given: 4M buffered edges ≈ 32 MB of buffer, a few MB per segment.
const DefaultSegmentEdges = 4 << 20

type pair struct{ a, b graph.NodeID }

// Writer buffers edges and flushes them as sorted segment files named
// seg-NNNNNN.seg under dir. Not safe for concurrent use; callers with
// concurrent producers (the crawler's workers) serialize around it.
type Writer struct {
	dir   string
	limit int
	buf   []pair
	seq   int
	met   *Metrics
}

// NewWriter creates dir if needed and returns a Writer flushing every
// bufferEdges edges (DefaultSegmentEdges when <= 0). Existing segments
// in dir are preserved and extended — sequence numbering resumes after
// the highest present — so an interrupted crawl's segments survive a
// resume.
func NewWriter(dir string, bufferEdges int, met *Metrics) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if bufferEdges <= 0 {
		bufferEdges = DefaultSegmentEdges
	}
	existing, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	seq := 0
	for _, s := range existing {
		var k int
		if _, err := fmt.Sscanf(filepath.Base(s), "seg-%d.seg", &k); err == nil && k >= seq {
			seq = k + 1
		}
	}
	return &Writer{dir: dir, limit: bufferEdges, buf: make([]pair, 0, bufferEdges), seq: seq, met: met}, nil
}

// Add buffers the directed edge src→dst, flushing a segment when the
// buffer reaches the threshold.
func (w *Writer) Add(src, dst graph.NodeID) error {
	w.buf = append(w.buf, pair{src, dst})
	if len(w.buf) >= w.limit {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered edges as one segment file (atomically, via
// durable.WriteFile) and empties the buffer. Flushing an empty buffer is
// a no-op.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	path := filepath.Join(w.dir, fmt.Sprintf("seg-%06d.seg", w.seq))
	kept, err := writeSegment(path, w.buf)
	if err != nil {
		return err
	}
	w.seq++
	w.buf = w.buf[:0]
	if w.met != nil {
		w.met.segmentsFlushed.Inc()
		w.met.segmentEdges.Add(int64(kept))
	}
	return nil
}

// ListSegments returns dir's segment files in sequence order.
func ListSegments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// writeSegment sorts, dedups, and drops self-loops from edges (in
// place), then writes them as one segment. It returns the number of
// edges kept. Dedup here is local hygiene — the global dedup happens
// again at compaction, where duplicates across segments meet.
func writeSegment(path string, edges []pair) (int, error) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	kept := edges[:0]
	for _, e := range edges {
		if e.a == e.b {
			continue
		}
		if len(kept) > 0 && kept[len(kept)-1] == e {
			continue
		}
		kept = append(kept, e)
	}

	bound := uint64(0)
	for _, e := range kept {
		if uint64(e.a) >= bound {
			bound = uint64(e.a) + 1
		}
		if uint64(e.b) >= bound {
			bound = uint64(e.b) + 1
		}
	}
	fwd := encodeRuns(kept, func(e pair) (graph.NodeID, graph.NodeID) { return e.a, e.b })

	// Reverse view: re-sort by (dst, src) and encode with dst as key.
	rev := make([]pair, len(kept))
	copy(rev, kept)
	sort.Slice(rev, func(i, j int) bool {
		if rev[i].b != rev[j].b {
			return rev[i].b < rev[j].b
		}
		return rev[i].a < rev[j].a
	})
	revBlob := encodeRuns(rev, func(e pair) (graph.NodeID, graph.NodeID) { return e.b, e.a })

	err := durable.WriteFile(path, func(f *os.File) error {
		var hdr [segHeaderSize]byte
		copy(hdr[:], segMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], bound)
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(kept)))
		binary.LittleEndian.PutUint64(hdr[24:], uint64(len(fwd)))
		binary.LittleEndian.PutUint64(hdr[32:], uint64(len(revBlob)))
		bw := bufio.NewWriterSize(f, 1<<20)
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(fwd); err != nil {
			return err
		}
		if _, err := bw.Write(revBlob); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, err
	}
	return len(kept), nil
}

// encodeRuns encodes edges — already sorted by (key, val) with no
// duplicates — as the run format described above.
func encodeRuns(edges []pair, keyVal func(pair) (graph.NodeID, graph.NodeID)) []byte {
	var out []byte
	prevKey := uint64(0)
	first := true
	for i := 0; i < len(edges); {
		key, _ := keyVal(edges[i])
		j := i
		for j < len(edges) {
			if k, _ := keyVal(edges[j]); k != key {
				break
			}
			j++
		}
		gap := uint64(key) - prevKey
		if first {
			gap = uint64(key)
			first = false
		}
		out = binary.AppendUvarint(out, gap)
		out = binary.AppendUvarint(out, uint64(j-i))
		_, v0 := keyVal(edges[i])
		out = binary.AppendUvarint(out, uint64(v0))
		prev := v0
		for k := i + 1; k < j; k++ {
			_, v := keyVal(edges[k])
			out = binary.AppendUvarint(out, uint64(v-prev)-1)
			prev = v
		}
		prevKey = uint64(key)
		i = j
	}
	return out
}

// segHeader is a parsed segment header.
type segHeader struct {
	nodeBound uint64
	edges     uint64
	fwdLen    uint64
	revLen    uint64
}

func readSegHeader(f *os.File) (segHeader, error) {
	var buf [segHeaderSize]byte
	var h segHeader
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		return h, fmt.Errorf("reading segment header: %w", err)
	}
	if [8]byte(buf[:8]) != segMagic {
		return h, fmt.Errorf("bad segment magic %q", buf[:8])
	}
	h.nodeBound = binary.LittleEndian.Uint64(buf[8:])
	h.edges = binary.LittleEndian.Uint64(buf[16:])
	h.fwdLen = binary.LittleEndian.Uint64(buf[24:])
	h.revLen = binary.LittleEndian.Uint64(buf[32:])
	if h.nodeBound > maxNodes || h.edges > maxEdges {
		return h, fmt.Errorf("segment header out of bounds (%d nodes, %d edges)", h.nodeBound, h.edges)
	}
	return h, nil
}

// segCursor streams one direction of one segment as an ascending
// (key, val) sequence.
type segCursor struct {
	f       *os.File
	br      *bufio.Reader
	name    string
	left    uint64 // edges not yet yielded
	started bool
	key     uint64
	run     uint64 // values left in the current run
	prevVal uint64
	bound   uint64
}

// openSegCursor positions a cursor at the chosen direction's blob. The
// torn-file check is structural: header-claimed blob lengths must match
// the file size exactly, so a segment cut short by a crash is rejected
// before any run decodes.
func openSegCursor(path string, reverse bool) (*segCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h, err := readSegHeader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if uint64(st.Size()) != segHeaderSize+h.fwdLen+h.revLen {
		f.Close()
		return nil, fmt.Errorf("%s: torn segment: %d bytes, header implies %d",
			path, st.Size(), segHeaderSize+h.fwdLen+h.revLen)
	}
	offset, length := uint64(segHeaderSize), h.fwdLen
	if reverse {
		offset, length = segHeaderSize+h.fwdLen, h.revLen
	}
	if _, err := f.Seek(int64(offset), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &segCursor{
		f:     f,
		br:    bufio.NewReaderSize(io.LimitReader(f, int64(length)), 1<<16),
		name:  path,
		left:  h.edges,
		bound: h.nodeBound,
	}, nil
}

// next yields the following (key, val) pair, or ok=false at the end.
func (c *segCursor) next() (key, val graph.NodeID, ok bool, err error) {
	if c.left == 0 {
		return 0, 0, false, nil
	}
	if c.run == 0 {
		gap, e := binary.ReadUvarint(c.br)
		if e != nil {
			return 0, 0, false, fmt.Errorf("%s: truncated run key: %w", c.name, e)
		}
		if c.started && gap == 0 {
			return 0, 0, false, fmt.Errorf("%s: run keys not strictly ascending", c.name)
		}
		c.key += gap
		c.started = true
		count, e := binary.ReadUvarint(c.br)
		if e != nil || count == 0 || count > c.left {
			return 0, 0, false, fmt.Errorf("%s: bad run length", c.name)
		}
		c.run = count
		v, e := binary.ReadUvarint(c.br)
		if e != nil {
			return 0, 0, false, fmt.Errorf("%s: truncated run value: %w", c.name, e)
		}
		c.prevVal = v
	} else {
		d, e := binary.ReadUvarint(c.br)
		if e != nil {
			return 0, 0, false, fmt.Errorf("%s: truncated run value: %w", c.name, e)
		}
		c.prevVal += d + 1
	}
	c.run--
	c.left--
	if c.key >= c.bound || c.prevVal >= c.bound {
		return 0, 0, false, fmt.Errorf("%s: node id beyond segment bound %d", c.name, c.bound)
	}
	return graph.NodeID(c.key), graph.NodeID(c.prevVal), true, nil
}

func (c *segCursor) close() error { return c.f.Close() }
