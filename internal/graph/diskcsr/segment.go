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

// LSM-style ingest without the sort: edges accumulate in a bounded
// buffer and flush as immutable segment files, each a raw log of the
// edges added to it, in Add order, duplicates and self-loops kept.
// Compact is the one place edges are sorted, deduplicated and stripped
// of self-loops: it distributes every segment's records over key-range
// buckets, forward and reverse, and encodes them into one v2 CSR.
//
// Segment layout (little-endian):
//
//	magic "GPLSEG03" | u64 nodeBound | u64 edges | u64 blobLen | blob
//
// The blob is edges records of 8 bytes, each one graph.PackEdge(src,
// dst), so blobLen is 8 × edges; nodeBound is one past the largest id
// any record holds.
var segMagic = [8]byte{'G', 'P', 'L', 'S', 'E', 'G', '0', '3'}

const (
	segHeaderSize = 32
	// segWriteBuffer is the size of the buffer a flush streams the
	// header and its records through; a multiple of 8, so they fill it
	// exactly.
	segWriteBuffer = 64 << 10
)

// DefaultSegmentEdges is the flush threshold Writer uses when none is
// given: 4M buffered edges of 8 B each (32 MB), a 32 MB segment each.
// Writer documents what it holds in multiples of it.
const DefaultSegmentEdges = 4 << 20

// Writer buffers edges and flushes them as segment files named
// seg-NNNNNN.seg under dir, each holding its buffer's edges as added. A
// full buffer is flushed on a goroutine of its own while Add fills
// another, at most GOMAXPROCS (read at the first flush) flushes in
// flight at once, so with P = GOMAXPROCS the Writer holds at most P+1
// edge buffers, (P+1) × threshold × 8 B, and P write buffers of
// segWriteBuffer bytes. A stream that never fills the buffer holds one
// edge buffer. Segment k holds the k-th buffer's edges whatever the
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
	// idle holds the edge buffers no flush or Add is using; it is made at
	// the first hand-off with room for GOMAXPROCS of them, and spares
	// counts how many exist beside the first.
	idle     chan []uint64
	spares   int
	inFlight sync.WaitGroup
	mu       sync.Mutex
	failed   error // the first background flush failure, under mu
	// err is the first failure Add or Flush returned. A background
	// failure is seen only after Add has moved past the failed buffer,
	// whose edges are gone with it, so no retry could make the segments
	// whole again; a failure in Flush ends the Writer too, so that the
	// caller has one rule: once a call fails, the stream is lost, and
	// every later call returns err.
	err error
}

// NewWriter creates dir if needed and returns a Writer flushing every
// bufferEdges edges (DefaultSegmentEdges when <= 0). Existing segments
// in dir are kept, and numbering continues after the highest present,
// so a second Writer adds to a directory rather than overwriting it.
// The crawl never resumes that way: dataset.NewSegmentSink refuses a
// directory that holds segments, and a resumed crawl replays its
// journal into a fresh one.
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
// number and lets Add carry on with an idle buffer, waiting first while
// GOMAXPROCS flushes are in flight.
func (w *Writer) handOff() error {
	if err := w.backgroundFailure(); err != nil {
		return err
	}
	edges, seq := w.buf, w.seq
	w.seq++
	w.buf = w.idleBuffer()
	w.inFlight.Add(1)
	go func() {
		defer w.inFlight.Done()
		if err := w.write(edges, seq); err != nil {
			w.mu.Lock()
			if w.failed == nil {
				w.failed = err
			}
			w.mu.Unlock()
		}
		w.idle <- edges[:0]
	}()
	return nil
}

// idleBuffer returns an empty edge buffer: a free one, a new one while
// fewer than the first flush's GOMAXPROCS spares exist, or else the
// first one a flush in flight releases.
func (w *Writer) idleBuffer() []uint64 {
	if w.idle == nil {
		w.idle = make(chan []uint64, runtime.GOMAXPROCS(0))
	}
	select {
	case b := <-w.idle:
		return b
	default:
	}
	if w.spares < cap(w.idle) {
		w.spares++
		return make([]uint64, 0, w.limit)
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
	if w.err = w.write(w.buf, w.seq); w.err != nil {
		return w.err
	}
	w.seq++
	w.buf = w.buf[:0]
	return nil
}

// write writes edges as segment seq, atomically, through
// durable.WriteFile: the header, then one record per edge, streamed
// through a buffer of segWriteBuffer bytes.
func (w *Writer) write(edges []uint64, seq int) error {
	bound := uint64(0)
	for _, e := range edges {
		src, dst := graph.UnpackEdge(e)
		bound = max(bound, uint64(src)+1, uint64(dst)+1)
	}
	path := filepath.Join(w.dir, fmt.Sprintf("seg-%06d.seg", seq))
	err := durable.WriteFile(path, func(f *os.File) error {
		out := make([]byte, 0, min(segWriteBuffer, segHeaderSize+8*len(edges)))
		out = append(out, segMagic[:]...)
		out = binary.LittleEndian.AppendUint64(out, bound)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(edges)))
		out = binary.LittleEndian.AppendUint64(out, 8*uint64(len(edges)))
		for _, e := range edges {
			if len(out) == cap(out) {
				if _, err := f.Write(out); err != nil {
					return err
				}
				out = out[:0]
			}
			out = binary.LittleEndian.AppendUint64(out, e)
		}
		_, err := f.Write(out)
		return err
	})
	if err != nil {
		return err
	}
	if w.met != nil {
		w.met.segmentsFlushed.Inc()
		w.met.segmentEdges.Add(int64(len(edges)))
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

// segment is one segment file, mapped.
type segment struct {
	name         string
	bound, edges uint64
	blob         []byte
	unmap        func() error
}

// openSegment maps the segment at path and checks its header. The
// torn-file check is structural: the blob must be exactly 8 bytes per
// edge the header claims, so a segment cut short by a crash is rejected
// before any record is read. Records are checked as Compact reads them.
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
		err = fmt.Errorf("%s: bad segment magic %q, want %q", path, data[:8], segMagic[:])
	case s.bound > maxNodes || s.edges > maxEdges:
		err = fmt.Errorf("%s: segment header out of bounds (%d nodes, %d edges)", path, s.bound, s.edges)
	case blobLen != 8*s.edges:
		err = fmt.Errorf("%s: corrupt segment header: %d blob bytes for %d edges of 8", path, blobLen, s.edges)
	case uint64(len(s.blob)) != blobLen:
		err = fmt.Errorf("%s: torn segment: %d bytes, header implies %d", path, st.Size(), segHeaderSize+blobLen)
	}
	if err != nil {
		unmap()
		return nil, err
	}
	return s, nil
}

func (s *segment) close() error { return s.unmap() }
