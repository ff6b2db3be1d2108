package diskcsr

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

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
// given: 4M buffered edges of 8 B each (32 MB), a few MB per segment.
// Writer documents what it holds in multiples of it.
const DefaultSegmentEdges = 4 << 20

// Writer buffers edges and flushes them as sorted segment files named
// seg-NNNNNN.seg under dir. A full buffer is flushed on a goroutine of
// its own while Add fills another, at most GOMAXPROCS (read at the
// first flush) flushes in flight at once, so the Writer holds at most
// GOMAXPROCS+1 edge buffers and GOMAXPROCS flush slots — with P =
// GOMAXPROCS, (2P+1) × threshold × 8 B plus P encoded segments. A stream
// that never fills the buffer holds one edge buffer and, after Flush,
// one slot. Segment k holds the k-th buffer's edges whatever the
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
	kept, spare := graph.SortEdges(edges, scratch)
	bound := uint64(0)
	for _, e := range kept {
		key, val := graph.UnpackEdge(e)
		bound = max(bound, uint64(key)+1, uint64(val)+1)
	}
	out = append(out[:0], make([]byte, segHeaderSize)...)
	out = appendRuns(out, kept)
	fwdLen := len(out) - segHeaderSize

	// Reverse view: the same edges keyed by dst, in (dst, src) order.
	rev, _ := graph.ReverseEdges(kept, spare)
	out = appendRuns(out, rev)

	copy(out, segMagic[:])
	binary.LittleEndian.PutUint64(out[8:], bound)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(kept)))
	binary.LittleEndian.PutUint64(out[24:], uint64(fwdLen))
	binary.LittleEndian.PutUint64(out[32:], uint64(len(out)-segHeaderSize-fwdLen))
	return out, len(kept)
}

// appendRuns appends packed edges — already sorted by (key, val) with
// no duplicates — to out in the run format described above.
func appendRuns(out []byte, edges []uint64) []byte {
	prevKey := graph.NodeID(0)
	for i := 0; i < len(edges); {
		key, val := graph.UnpackEdge(edges[i])
		j := i + 1
		for j < len(edges) && graph.NodeID(edges[j]>>32) == key {
			j++
		}
		// The first run's gap is its key: prevKey starts at 0.
		out = binary.AppendUvarint(out, uint64(key-prevKey))
		out = binary.AppendUvarint(out, uint64(j-i))
		out = binary.AppendUvarint(out, uint64(val))
		for k := i + 1; k < j; k++ {
			// Same key, ascending, distinct: the difference is the val gap.
			out = binary.AppendUvarint(out, edges[k]-edges[k-1]-1)
		}
		prevKey = key
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
// sequence of packed (key, val) edges, decoding varints straight from a
// window of the blob it refills as it drains.
type segCursor struct {
	f        *os.File
	name     string
	off, end int64  // blob bytes not yet read into win
	win      []byte // current window; win[pos:] is undecoded
	pos      int
	left     uint64 // edges not yet yielded
	started  bool
	key      uint64
	run      uint64 // values left in the current run
	prevVal  uint64
	bound    uint64
}

const segWindow = 1 << 16

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
	return &segCursor{
		f:     f,
		name:  path,
		off:   int64(offset),
		end:   int64(offset + length),
		win:   make([]byte, 0, min(segWindow, length)),
		left:  h.edges,
		bound: h.nodeBound,
	}, nil
}

// uvarint decodes the next varint of the blob, refilling the window
// first when what is left of it could cut one short.
func (c *segCursor) uvarint() (uint64, error) {
	if len(c.win)-c.pos < binary.MaxVarintLen64 && c.off < c.end {
		if err := c.refill(); err != nil {
			return 0, err
		}
	}
	v, n := binary.Uvarint(c.win[c.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	c.pos += n
	return v, nil
}

// refill moves the undecoded tail to the front of the window and reads
// the blob's next bytes in behind it.
func (c *segCursor) refill() error {
	n := copy(c.win[:cap(c.win)], c.win[c.pos:])
	more := int(min(int64(cap(c.win)-n), c.end-c.off))
	if _, err := c.f.ReadAt(c.win[n:n+more], c.off); err != nil {
		return err
	}
	c.win, c.pos, c.off = c.win[:n+more], 0, c.off+int64(more)
	return nil
}

// next yields the following edge, packed (key, val), or ok=false at the
// end.
func (c *segCursor) next() (edge uint64, ok bool, err error) {
	if c.left == 0 {
		return 0, false, nil
	}
	if c.run == 0 {
		gap, e := c.uvarint()
		if e != nil {
			return 0, false, fmt.Errorf("%s: truncated run key: %w", c.name, e)
		}
		if c.started && gap == 0 {
			return 0, false, fmt.Errorf("%s: run keys not strictly ascending", c.name)
		}
		c.key += gap
		c.started = true
		count, e := c.uvarint()
		if e != nil || count == 0 || count > c.left {
			return 0, false, fmt.Errorf("%s: bad run length", c.name)
		}
		c.run = count
		v, e := c.uvarint()
		if e != nil {
			return 0, false, fmt.Errorf("%s: truncated run value: %w", c.name, e)
		}
		c.prevVal = v
	} else {
		d, e := c.uvarint()
		if e != nil {
			return 0, false, fmt.Errorf("%s: truncated run value: %w", c.name, e)
		}
		c.prevVal += d + 1
	}
	c.run--
	c.left--
	if c.key >= c.bound || c.prevVal >= c.bound {
		return 0, false, fmt.Errorf("%s: node id beyond segment bound %d", c.name, c.bound)
	}
	return graph.PackEdge(graph.NodeID(c.key), graph.NodeID(c.prevVal)), true, nil
}

func (c *segCursor) close() error { return c.f.Close() }
