package diskcsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"gplus/internal/graph"
)

// CompactOptions configures Compact.
type CompactOptions struct {
	// NumNodes fixes the node count of the output graph; it must cover
	// every id the segments (after Remap) mention. Zero means "largest
	// id seen + 1", which loses trailing isolated nodes — callers that
	// know the roster (the dataset layer does) should always set it.
	NumNodes int
	// Remap, when non-nil, translates every segment node id through
	// Remap[id] before merging. The crawl path needs this: segments are
	// written under provisional interning order, while dataset node ids
	// are assigned in sorted service-id order only once the crawl ends.
	Remap []graph.NodeID
	// Metrics, when non-nil, receives compaction accounting.
	Metrics *Metrics
}

// CompactStats reports what a compaction did.
type CompactStats struct {
	Segments int   // input segment files merged
	Nodes    int   // nodes in the output graph
	Edges    int64 // distinct edges written (after global dedup)
	Bytes    int64 // size of the v2 output file
}

// Compact k-way merges every segment under segDir into one v2 CSR file
// at outPath (atomically). Duplicate edges across segments collapse and
// self-loops drop, matching Builder semantics, so a graph built through
// segments equals the graph built in RAM from the same edge stream.
// Adjacency never materializes. The forward and reverse merges run side
// by side, so memory is O(NumNodes) for both directions' index arrays
// plus, live at once, an open file and a cursor window of up to 64 KB
// per segment per direction. With Remap, the segments are first
// rewritten by up to GOMAXPROCS workers, each holding one segment's
// edges at a time in buffers of its own. The bytes written are the same
// at any GOMAXPROCS, and so is the error: the lowest failing segment's,
// the forward direction's before the reverse's.
func Compact(segDir, outPath string, opt CompactOptions) (*CompactStats, error) {
	segs, err := ListSegments(segDir)
	if err != nil {
		return nil, err
	}
	// Everything that does not outlive the call — remapped segments, the
	// two merged blobs — spills into one directory beside the output.
	spillDir, err := os.MkdirTemp(filepath.Dir(outPath), ".compact-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	if opt.Remap != nil {
		if segs, err = remapSegments(segs, opt.Remap, spillDir); err != nil {
			return nil, err
		}
	}

	n, err := resolveNodeCount(segs, opt)
	if err != nil {
		return nil, err
	}

	// One streaming merge per direction, the two side by side: blob bytes
	// to a spill file, cnt/pos prefix arrays in RAM.
	var (
		cnt, pos [2][]uint64
		m        [2]uint64
		blob     = [2]string{filepath.Join(spillDir, "out.blob"), filepath.Join(spillDir, "in.blob")}
	)
	err = bothDirections(func(d int) (err error) {
		cnt[d], pos[d], m[d], err = mergeDirection(segs, d == 1, n, blob[d])
		return err
	})
	if err != nil {
		return nil, err
	}
	if m[0] != m[1] {
		return nil, fmt.Errorf("diskcsr: segment directions disagree: %d forward edges, %d reverse", m[0], m[1])
	}
	if m[0] > maxEdges {
		return nil, fmt.Errorf("diskcsr: merged graph too large (%d edges)", m[0])
	}

	err = writeV2(outPath, m[0], cnt[0], pos[0], cnt[1], pos[1], func(bw *bufio.Writer) error {
		if err := copyFileInto(bw, blob[0]); err != nil {
			return err
		}
		return copyFileInto(bw, blob[1])
	})
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(outPath)
	if err != nil {
		return nil, err
	}
	stats := &CompactStats{Segments: len(segs), Nodes: n, Edges: int64(m[0]), Bytes: st.Size()}
	if opt.Metrics != nil {
		opt.Metrics.compactions.Inc()
		opt.Metrics.compactionSegments.Add(int64(len(segs)))
		opt.Metrics.compactionEdges.Add(stats.Edges)
	}
	return stats, nil
}

// resolveNodeCount returns the output node count, checking it covers
// every segment.
func resolveNodeCount(segs []string, opt CompactOptions) (int, error) {
	bound := uint64(0)
	for _, s := range segs {
		f, err := os.Open(s)
		if err != nil {
			return 0, err
		}
		h, err := readSegHeader(f)
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s, err)
		}
		if h.nodeBound > bound {
			bound = h.nodeBound
		}
	}
	if opt.NumNodes == 0 {
		return int(bound), nil
	}
	if uint64(opt.NumNodes) < bound {
		return 0, fmt.Errorf("diskcsr: NumNodes %d below segment node bound %d", opt.NumNodes, bound)
	}
	return opt.NumNodes, nil
}

// remapSegments rewrites each segment with ids translated through
// remap, re-sorted, into dir, and returns the rewritten files in the
// order of segs; the originals are never modified. The segments are cut
// into contiguous runs, one per worker; a worker holds one segment's
// edges at a time in buffers it reuses across its run — bounded by the
// writer's flush threshold, not the crawl.
func remapSegments(segs []string, remap []graph.NodeID, dir string) ([]string, error) {
	out := make([]string, len(segs))
	err := inParallel(len(segs), func(lo, hi int) error {
		var (
			edges, scratch []uint64
			seg            []byte
		)
		for i := lo; i < hi; i++ {
			var err error
			if edges, err = readRemapped(segs[i], remap, edges[:0]); err != nil {
				return err
			}
			if len(scratch) < len(edges) {
				scratch = make([]uint64, len(edges))
			}
			seg, _ = encodeSegment(seg, edges, scratch)
			out[i] = filepath.Join(dir, filepath.Base(segs[i]))
			if err := os.WriteFile(out[i], seg, 0o644); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readRemapped appends a whole segment's forward direction to edges,
// each id translated through remap.
func readRemapped(path string, remap []graph.NodeID, edges []uint64) ([]uint64, error) {
	c, err := openSegCursor(path, false)
	if err != nil {
		return nil, err
	}
	defer c.close()
	edges = slices.Grow(edges, int(c.left))
	for {
		e, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return edges, nil
		}
		key, val := graph.UnpackEdge(e)
		if int(key) >= len(remap) || int(val) >= len(remap) {
			return nil, fmt.Errorf("%s: node id outside remap table (len %d)", path, len(remap))
		}
		edges = append(edges, graph.PackEdge(remap[key], remap[val]))
	}
}

// mergeHead is a segment cursor and the packed edge it stands at.
type mergeHead struct {
	edge uint64
	cur  *segCursor
}

// siftDown restores the min-heap order of h below i. Equal heads are
// the same edge seen in two segments and collapse on emit, so their
// relative order is immaterial.
func siftDown(h []mergeHead, i int) {
	top := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].edge < h[c].edge {
			c++
		}
		if top.edge <= h[c].edge {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = top
}

// mergeDirection k-way merges one direction of every segment into a
// varint/delta row blob at blobPath, returning the cnt and pos prefix
// arrays and the number of distinct edges. The heap yields globally
// (key, val)-sorted edges; adjacent duplicates collapse and self-loops
// drop, so the emitted rows are exactly the Builder's.
func mergeDirection(segs []string, reverse bool, n int, blobPath string) (cnt, pos []uint64, m uint64, err error) {
	cursors := make([]*segCursor, 0, len(segs))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	h := make([]mergeHead, 0, len(segs))
	for _, s := range segs {
		c, err := openSegCursor(s, reverse)
		if err != nil {
			return nil, nil, 0, err
		}
		cursors = append(cursors, c)
		e, ok, err := c.next()
		if err != nil {
			return nil, nil, 0, err
		}
		if ok {
			h = append(h, mergeHead{e, c})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	f, err := os.Create(blobPath)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)

	cnt = make([]uint64, n+1)
	pos = make([]uint64, n+1)
	var (
		scratch  []byte
		row      = -1 // current key being assembled; -1 before the first
		prevVal  graph.NodeID
		rowCount uint64
		rowBytes uint64
		havePrev bool
	)
	closeRow := func(upto int) {
		// Seal rows row..upto-1: the assembled one, then empties.
		if row >= 0 {
			cnt[row+1] = cnt[row] + rowCount
			pos[row+1] = pos[row] + rowBytes
		}
		for r := row + 1; r < upto; r++ {
			cnt[r+1] = cnt[r]
			pos[r+1] = pos[r]
		}
	}
	for len(h) > 0 {
		key, val := graph.UnpackEdge(h[0].edge)
		next, ok, nerr := h[0].cur.next()
		if nerr != nil {
			return nil, nil, 0, nerr
		}
		if ok {
			h[0].edge = next
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 1 {
			siftDown(h, 0)
		}

		if int(key) >= n || int(val) >= n {
			return nil, nil, 0, fmt.Errorf("diskcsr: segment edge (%d,%d) outside %d-node graph", key, val, n)
		}
		if key == val {
			continue
		}
		if int(key) != row {
			closeRow(int(key))
			row = int(key)
			rowCount, rowBytes, havePrev = 0, 0, false
		} else if havePrev && val == prevVal {
			continue // duplicate across segments
		}
		if havePrev && val < prevVal {
			return nil, nil, 0, fmt.Errorf("diskcsr: merge order violated at key %d", key)
		}
		if havePrev {
			scratch = binary.AppendUvarint(scratch[:0], uint64(val-prevVal)-1)
		} else {
			scratch = binary.AppendUvarint(scratch[:0], uint64(val))
		}
		if _, err := bw.Write(scratch); err != nil {
			return nil, nil, 0, err
		}
		rowBytes += uint64(len(scratch))
		rowCount++
		m++
		prevVal = val
		havePrev = true
	}
	closeRow(n)
	if err := bw.Flush(); err != nil {
		return nil, nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, 0, err
	}
	return cnt, pos, m, nil
}

func copyFileInto(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}
