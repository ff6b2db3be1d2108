package diskcsr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gplus/internal/durable"
	"gplus/internal/graph"
)

// LSM-style ingest without the sort: edges stream to disk as immutable
// segment files, each a raw log of the edges added to it, in Add order,
// duplicates and self-loops kept. Compact is the one place edges are
// sorted, deduplicated and stripped of self-loops: it distributes every
// segment's records over key-range buckets, forward and reverse, and
// encodes them into one v2 CSR.
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
	// segWriteBuffer is the size of the chunks Add fills with records
	// and a segment's goroutine writes: 8 192 records of 8 bytes.
	segWriteBuffer = 64 << 10
	// poolChunks is every chunk a Writer makes, whatever its threshold.
	poolChunks = 8
)

// DefaultSegmentEdges is the segment size Writer uses when none is
// given: 4M edges of 8 B each, a 32 MB segment. It sets only the size
// of the files; the Writer's memory is its chunk pool.
const DefaultSegmentEdges = 4 << 20

// writeSegment writes b, segment seq's placeholder header or one of its
// chunks, to f; tests wrap it to stall or fail a segment mid-stream.
var writeSegment = func(f *os.File, b []byte, seq int) error { _, err := f.Write(b); return err }

// Writer streams edges into segment files named seg-NNNNNN.seg under
// dir: segment k holds edges [k·limit, (k+1)·limit) of the stream, cut
// short by each Flush. Add fills chunks of segWriteBuffer bytes from a
// pool of poolChunks (512 KiB), blocking while it is empty, and hands
// each full one to the open segment's goroutine, which writes it
// through durable.WriteFile and returns it. A closed segment fsyncs and
// renames while Add fills the next, at most GOMAXPROCS (read by
// NewWriter) at once. So the Writer holds the pool and at most
// GOMAXPROCS+1 open files, whatever its threshold, and the files are
// the same at any core count.
//
// A stream ends with Flush, which waits for the segment goroutines. Not
// safe for concurrent use; callers with concurrent producers (the
// crawler's workers) serialize around it.
type Writer struct {
	dir      string
	limit    int
	met      *Metrics
	seq      int           // the sequence number of the open segment, or of the next
	chunk    []byte        // the records Add is filling, graph.PackEdge(src, dst)
	n        int           // edges added to the open segment, chunk included
	open     chan []byte   // the open segment's chunks; nil discards it
	free     chan []byte   // the chunks no one is using
	made     int           // chunks made, at most poolChunks
	slots    chan struct{} // a token per live segment goroutine
	inFlight sync.WaitGroup
	failed   atomic.Pointer[error] // the first segment failure
	// err is the first failure Add or Flush returned: the failed
	// segment's edges are gone, so every later call returns it.
	err error
}

// NewWriter creates dir if needed and returns a Writer cutting a segment
// every bufferEdges edges (DefaultSegmentEdges when <= 0). Existing
// segments in dir are kept, and numbering continues after the highest
// present, so a second Writer adds to a directory rather than
// overwriting it. The crawl never resumes that way:
// dataset.NewSegmentSink refuses a directory that holds segments, and a
// resumed crawl replays its journal into a fresh one.
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
	return &Writer{dir: dir, limit: bufferEdges, seq: seq, met: met,
		free: make(chan []byte, poolChunks), slots: make(chan struct{}, runtime.GOMAXPROCS(0)+1)}, nil
}

// Add appends the directed edge src→dst to the stream. A full chunk
// goes to the open segment's goroutine, and the segment closes at
// limit edges. The first failure of a segment is returned by the next
// Add that hands a chunk off, or by Flush.
func (w *Writer) Add(src, dst graph.NodeID) error {
	if w.err != nil {
		return w.err
	}
	if w.chunk == nil {
		w.chunk = w.takeChunk()
	}
	w.chunk = binary.LittleEndian.AppendUint64(w.chunk, graph.PackEdge(src, dst))
	if w.n++; w.n == w.limit || len(w.chunk) == cap(w.chunk) {
		w.sendChunk()
	}
	return w.err
}

// takeChunk returns an empty chunk: a free one, a new one while fewer
// than poolChunks exist, or else the first one a segment releases.
func (w *Writer) takeChunk() []byte {
	if len(w.free) == 0 && w.made < poolChunks {
		w.made++
		return make([]byte, 0, segWriteBuffer)
	}
	return <-w.free
}

// sendChunk sends the chunk to the open segment, opening one if none is,
// and closes the segment once it holds limit edges.
func (w *Writer) sendChunk() {
	if err := w.failed.Load(); err != nil {
		w.fail(*err)
		return
	}
	if w.open == nil {
		w.slots <- struct{}{}
		w.open = make(chan []byte, poolChunks) // room for every chunk: a send never waits
		w.inFlight.Add(1)
		go w.stream(w.open, w.seq)
	}
	w.open <- w.chunk
	w.chunk = nil
	if w.n == w.limit {
		w.closeSegment()
	}
}

// closeSegment lets the open segment's goroutine commit it.
func (w *Writer) closeSegment() {
	close(w.open)
	w.open, w.n = nil, 0
	w.seq++
}

// fail ends the Writer with err: the open segment is discarded, and
// fail returns once no goroutine of the Writer runs.
func (w *Writer) fail(err error) {
	w.err = err
	if w.open != nil {
		w.open <- nil
		w.closeSegment()
	}
	w.chunk = nil
	w.inFlight.Wait()
}

// Flush closes the open segment, so that the edges added so far are in
// segment files, and waits until every segment is committed; flushing
// an empty stream writes nothing. After a segment fails, Flush returns
// its error, and the Writer is dead: every later Add and Flush returns
// the same error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.chunk != nil {
		w.sendChunk()
	}
	if w.open != nil {
		w.closeSegment()
	}
	w.inFlight.Wait()
	if err := w.failed.Load(); err != nil {
		w.fail(*err)
	}
	return w.err
}

// stream writes segment seq, atomically, through durable.WriteFile: a
// placeholder header, each chunk as it arrives, and, once the channel
// is closed, the real header at offset 0. A failed segment still drains
// its chunks back to the pool, so Add never waits on it.
func (w *Writer) stream(chunks chan []byte, seq int) {
	defer w.inFlight.Done()
	defer func() { <-w.slots }()
	var bound, edges uint64
	err := durable.WriteFile(filepath.Join(w.dir, fmt.Sprintf("seg-%06d.seg", seq)), func(f *os.File) error {
		if err := writeSegment(f, make([]byte, segHeaderSize), seq); err != nil {
			return err
		}
		for c := range chunks {
			if c == nil {
				return errors.New("diskcsr: segment discarded")
			}
			for i := 0; i < len(c); i += 8 {
				src, dst := graph.UnpackEdge(binary.LittleEndian.Uint64(c[i:]))
				bound = max(bound, uint64(src)+1, uint64(dst)+1)
			}
			edges += uint64(len(c) / 8)
			err := writeSegment(f, c, seq)
			w.free <- c[:0]
			if err != nil {
				return err
			}
		}
		header := append([]byte(nil), segMagic[:]...)
		for _, x := range []uint64{bound, edges, 8 * edges} {
			header = binary.LittleEndian.AppendUint64(header, x)
		}
		_, err := f.WriteAt(header, 0)
		return err
	})
	if err != nil {
		w.failed.CompareAndSwap(nil, &err) // a discarded segment's Writer has failed already
	}
	for c := range chunks {
		if c != nil {
			w.free <- c[:0]
		}
	}
	if err == nil && w.met != nil {
		w.met.segmentsFlushed.Inc()
		w.met.segmentEdges.Add(int64(edges))
	}
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
