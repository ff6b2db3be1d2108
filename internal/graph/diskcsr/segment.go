package diskcsr

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"gplus/internal/durable"
	"gplus/internal/graph"
)

// LSM-style ingest: edges accumulate in a bounded buffer and flush as
// immutable sorted segment files; Compact later distributes every
// segment's edges over key-range buckets and encodes them into one v2
// CSR. A segment stores its edges once, as forward runs sorted by
// (src, dst): compaction builds the reverse direction itself while it
// scatters, so the reverse order never needs to be on disk.
//
// Segment layout (little-endian):
//
//	magic "GPLSEG02" | u64 nodeBound | u64 edges | u64 blobLen | blob
//
// The blob is a sequence of runs, one per distinct src, srcs strictly
// ascending: varint(keyGap) varint(count) varint(firstDst)
// varint(dstDelta−1)... where keyGap is the distance from the previous
// run's src (the first run's src is the gap itself).
var segMagic = [8]byte{'G', 'P', 'L', 'S', 'E', 'G', '0', '2'}

const segHeaderSize = 32

// DefaultSegmentEdges is the flush threshold Writer uses when none is
// given: 4M buffered edges of 8 B each (32 MB), a few MB per segment.
// Writer documents what it holds in multiples of it.
const DefaultSegmentEdges = 4 << 20

// Writer buffers edges and flushes them as segment files named
// seg-NNNNNN.seg under dir, each holding its buffer's edges once, as
// forward runs in (src, dst) order. A full buffer is flushed on a
// goroutine of its own while Add fills another, at most GOMAXPROCS
// (read at the first flush) flushes in flight at once, so the Writer
// holds at most GOMAXPROCS+1 edge buffers and GOMAXPROCS flush slots —
// with P = GOMAXPROCS, (2P+1) × threshold × 8 B plus P encoded
// segments. A stream that never fills the buffer holds one edge buffer
// and, after Flush, one slot. Segment k holds the k-th buffer's edges whatever the
// parallelism, so the files are the same at any core count.
//
// Not safe for concurrent use; callers with concurrent producers (the
// crawler's workers) serialize around it.
type Writer struct {
	dir   string
	limit int
	buf   []uint64 // the edges Add is filling, graph.PackEdge(src, dst)
	seq   int      // the sequence number the next flush is written under
	met   *Metrics
	// idle holds the flush slots no flush is using; it is made at the
	// first flush with room for GOMAXPROCS of them, and slots counts how
	// many exist.
	idle     chan *flushSlot
	slots    int
	inFlight sync.WaitGroup
	mu       sync.Mutex
	failed   error // the first background flush failure, under mu
	// err is the first failure Add or Flush returned. A failed flush's
	// sort had already overwritten its edges, so a retry would write
	// garbage: every later call returns err instead.
	err error
}

// flushSlot is what one flush works in: the edges it writes, the sort's
// second buffer and the encoded segment, all kept for the slot's next
// flush.
type flushSlot struct {
	edges, scratch []uint64
	seg            []byte
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
	return &Writer{dir: dir, limit: bufferEdges, buf: make([]uint64, 0, bufferEdges), seq: seq, met: met}, nil
}

// Add buffers the directed edge src→dst. When the buffer reaches the
// threshold it is handed to a flush goroutine and Add goes on with an
// empty one. The first failure of a flush in the background is returned
// by the next Add that hands a buffer off, or by Flush.
func (w *Writer) Add(src, dst graph.NodeID) error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, graph.PackEdge(src, dst))
	if len(w.buf) >= w.limit {
		w.err = w.handOff()
	}
	return w.err
}

// handOff starts flushing the full buffer under the next sequence
// number, waiting first while GOMAXPROCS flushes are in flight. Add
// carries on with the slot's edge buffer, or with a new one the first
// time the slot is used.
func (w *Writer) handOff() error {
	if err := w.backgroundFailure(); err != nil {
		return err
	}
	s, seq := w.slot(), w.seq
	w.seq++
	s.edges, w.buf = w.buf, s.edges[:0]
	if w.buf == nil {
		w.buf = make([]uint64, 0, w.limit)
	}
	w.inFlight.Add(1)
	go func() {
		defer w.inFlight.Done()
		if err := w.write(s, s.edges, seq); err != nil {
			w.mu.Lock()
			if w.failed == nil {
				w.failed = err
			}
			w.mu.Unlock()
		}
		w.idle <- s
	}()
	return nil
}

// slot returns an idle flush slot: a free one, a new one while fewer
// than the first flush's GOMAXPROCS exist, or else the first one a
// flush in flight releases.
func (w *Writer) slot() *flushSlot {
	if w.idle == nil {
		w.idle = make(chan *flushSlot, runtime.GOMAXPROCS(0))
	}
	select {
	case s := <-w.idle:
		return s
	default:
	}
	if w.slots < cap(w.idle) {
		w.slots++
		return &flushSlot{}
	}
	return <-w.idle
}

func (w *Writer) backgroundFailure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Flush waits for every flush in flight, then writes the buffered edges
// as one segment file and empties the buffer; flushing an empty buffer
// writes nothing. After a failed flush, in the background or here, the
// Writer is dead: every later Add and Flush returns the same error.
func (w *Writer) Flush() error {
	w.inFlight.Wait()
	if w.err == nil {
		w.err = w.backgroundFailure()
	}
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	s := w.slot()
	w.err = w.write(s, w.buf, w.seq)
	w.idle <- s
	if w.err != nil {
		return w.err
	}
	w.seq++
	w.buf = w.buf[:0]
	return nil
}

// write sorts and encodes edges in slot s (both are overwritten) and
// writes them as segment seq, atomically, through durable.WriteFile.
func (w *Writer) write(s *flushSlot, edges []uint64, seq int) error {
	if len(s.scratch) < len(edges) {
		s.scratch = make([]uint64, len(edges))
	}
	var kept int
	s.seg, kept = encodeSegment(s.seg, edges, s.scratch)
	path := filepath.Join(w.dir, fmt.Sprintf("seg-%06d.seg", seq))
	err := durable.WriteFile(path, func(f *os.File) error {
		_, err := f.Write(s.seg)
		return err
	})
	if err != nil {
		return err
	}
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

// encodeSegment sorts, dedups, and drops self-loops from edges (both
// buffers are overwritten; scratch is at least as long), then appends
// them to out[:0] as one encoded segment. It returns the segment and
// the number of edges kept. Dedup here is local hygiene — the global
// dedup happens again at compaction, where duplicates across segments
// meet.
func encodeSegment(out []byte, edges, scratch []uint64) ([]byte, int) {
	kept := graph.SortEdges(edges, scratch)
	bound := uint64(0)
	for _, e := range kept {
		key, val := graph.UnpackEdge(e)
		bound = max(bound, uint64(key)+1, uint64(val)+1)
	}
	out = append(out[:0], make([]byte, segHeaderSize)...)
	prevKey := graph.NodeID(0)
	for i := 0; i < len(kept); {
		key, val := graph.UnpackEdge(kept[i])
		j := i + 1
		for j < len(kept) && graph.NodeID(kept[j]>>32) == key {
			j++
		}
		// The first run's gap is its key: prevKey starts at 0.
		out = binary.AppendUvarint(out, uint64(key-prevKey))
		out = binary.AppendUvarint(out, uint64(j-i))
		out = binary.AppendUvarint(out, uint64(val))
		for k := i + 1; k < j; k++ {
			// Same key, ascending, distinct: the difference is the val gap.
			out = binary.AppendUvarint(out, kept[k]-kept[k-1]-1)
		}
		prevKey = key
		i = j
	}
	copy(out, segMagic[:])
	binary.LittleEndian.PutUint64(out[8:], bound)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(kept)))
	binary.LittleEndian.PutUint64(out[24:], uint64(len(out)-segHeaderSize))
	return out, len(kept)
}

// segment is one segment file, mapped.
type segment struct {
	name         string
	bound, edges uint64
	blob         []byte
	unmap        func() error
}

// openSegment maps the segment at path and parses its header. The
// torn-file check is structural: the header-claimed blob length must
// match the file size exactly, so a segment cut short by a crash is
// rejected before any run decodes.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < segHeaderSize {
		return nil, fmt.Errorf("%s: torn segment: %d bytes, shorter than a header", path, st.Size())
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("diskcsr: mapping %s: %w", path, err)
	}
	s := &segment{
		name:  path,
		bound: binary.LittleEndian.Uint64(data[8:]),
		edges: binary.LittleEndian.Uint64(data[16:]),
		blob:  data[segHeaderSize:],
		unmap: unmap,
	}
	blobLen := binary.LittleEndian.Uint64(data[24:])
	switch {
	case [8]byte(data[:8]) != segMagic:
		err = fmt.Errorf("%s: bad segment magic %q", path, data[:8])
	case s.bound > maxNodes || s.edges > maxEdges:
		err = fmt.Errorf("%s: segment header out of bounds (%d nodes, %d edges)", path, s.bound, s.edges)
	case uint64(len(s.blob)) != blobLen:
		err = fmt.Errorf("%s: torn segment: %d bytes, header implies %d", path, st.Size(), segHeaderSize+blobLen)
	}
	if err != nil {
		unmap()
		return nil, err
	}
	return s, nil
}

// each calls fn on every edge of the segment in (src, dst) order,
// stopping at fn's first error. Runs are decoded as they are read, so a
// malformed blob is an error here: keys or values out of order, a run
// longer than the edges left, a varint cut short, an id at or past the
// header's node bound.
func (s *segment) each(fn func(src, dst graph.NodeID) error) error {
	blob, left, key := s.blob, s.edges, uint64(0)
	next := func() uint64 {
		v, n := binary.Uvarint(blob)
		if n <= 0 {
			blob = nil
			return 1 << 63 // out of any bound
		}
		blob = blob[n:]
		return v
	}
	for started := false; left > 0; started = true {
		gap, count, val := next(), next(), next()
		if started && gap == 0 || count == 0 || count > left {
			return fmt.Errorf("%s: corrupt run at key %d", s.name, key)
		}
		key += gap
		for i := uint64(0); ; {
			if key >= s.bound || val >= s.bound {
				return fmt.Errorf("%s: run at key %d runs past the segment bound %d", s.name, key, s.bound)
			}
			if err := fn(graph.NodeID(key), graph.NodeID(val)); err != nil {
				return err
			}
			if i++; i == count {
				break
			}
			val += next() + 1
		}
		left -= count
	}
	return nil
}

func (s *segment) close() error { return s.unmap() }
