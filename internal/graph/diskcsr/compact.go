package diskcsr

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
// Memory stays O(NumNodes) for the index arrays plus a small buffer
// per segment — adjacency never materializes.
func Compact(segDir, outPath string, opt CompactOptions) (*CompactStats, error) {
	segs, err := ListSegments(segDir)
	if err != nil {
		return nil, err
	}
	if opt.Remap != nil {
		tmpDir, err := remapSegments(segs, opt.Remap)
		if tmpDir != "" {
			defer os.RemoveAll(tmpDir)
		}
		if err != nil {
			return nil, err
		}
		if segs, err = ListSegments(tmpDir); err != nil {
			return nil, err
		}
	}

	n, err := resolveNodeCount(segs, opt)
	if err != nil {
		return nil, err
	}

	// One streaming merge per direction: blob bytes to a spill file,
	// cnt/pos prefix arrays in RAM.
	spillDir, err := os.MkdirTemp(filepath.Dir(outPath), ".compact-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	outCnt, outPos, mFwd, err := mergeDirection(segs, false, n, filepath.Join(spillDir, "out.blob"))
	if err != nil {
		return nil, err
	}
	inCnt, inPos, mRev, err := mergeDirection(segs, true, n, filepath.Join(spillDir, "in.blob"))
	if err != nil {
		return nil, err
	}
	if mFwd != mRev {
		return nil, fmt.Errorf("diskcsr: segment directions disagree: %d forward edges, %d reverse", mFwd, mRev)
	}
	if mFwd > maxEdges {
		return nil, fmt.Errorf("diskcsr: merged graph too large (%d edges)", mFwd)
	}

	err = writeV2(outPath, mFwd, outCnt, outPos, inCnt, inPos, func(bw *bufio.Writer) error {
		if err := copyFileInto(bw, filepath.Join(spillDir, "out.blob")); err != nil {
			return err
		}
		return copyFileInto(bw, filepath.Join(spillDir, "in.blob"))
	})
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(outPath)
	if err != nil {
		return nil, err
	}
	stats := &CompactStats{Segments: len(segs), Nodes: n, Edges: int64(mFwd), Bytes: st.Size()}
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
// remap, re-sorted, into a temp directory beside the originals. Each
// rewrite holds one segment's edges in RAM — bounded by the writer's
// flush threshold, not the crawl.
func remapSegments(segs []string, remap []graph.NodeID) (string, error) {
	if len(segs) == 0 {
		return os.MkdirTemp(".", ".remap-*")
	}
	tmpDir, err := os.MkdirTemp(filepath.Dir(segs[0]), ".remap-*")
	if err != nil {
		return "", err
	}
	for _, s := range segs {
		edges, err := readSegmentEdges(s)
		if err != nil {
			return tmpDir, err
		}
		for i, e := range edges {
			if int(e.a) >= len(remap) || int(e.b) >= len(remap) {
				return tmpDir, fmt.Errorf("%s: node id outside remap table (len %d)", s, len(remap))
			}
			edges[i] = pair{remap[e.a], remap[e.b]}
		}
		if _, err := writeSegment(filepath.Join(tmpDir, filepath.Base(s)), edges); err != nil {
			return tmpDir, err
		}
	}
	return tmpDir, nil
}

// readSegmentEdges decodes a whole segment's forward direction.
func readSegmentEdges(path string) ([]pair, error) {
	c, err := openSegCursor(path, false)
	if err != nil {
		return nil, err
	}
	defer c.close()
	edges := make([]pair, 0, c.left)
	for {
		k, v, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return edges, nil
		}
		edges = append(edges, pair{k, v})
	}
}

// cursorHeap orders segment cursors by their current (key, val) head;
// ties break by cursor index so the merge order is deterministic.
type cursorHead struct {
	key, val graph.NodeID
	idx      int
	cur      *segCursor
}

type cursorHeap []cursorHead

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	if h[i].val != h[j].val {
		return h[i].val < h[j].val
	}
	return h[i].idx < h[j].idx
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(cursorHead)) }
func (h *cursorHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mergeDirection k-way merges one direction of every segment into a
// varint/delta row blob at blobPath, returning the cnt and pos prefix
// arrays and the number of distinct edges. The heap yields globally
// (key, val)-sorted pairs; adjacent duplicates collapse and self-loops
// drop, so the emitted rows are exactly the Builder's.
func mergeDirection(segs []string, reverse bool, n int, blobPath string) (cnt, pos []uint64, m uint64, err error) {
	cursors := make([]*segCursor, 0, len(segs))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	h := make(cursorHeap, 0, len(segs))
	for i, s := range segs {
		c, err := openSegCursor(s, reverse)
		if err != nil {
			return nil, nil, 0, err
		}
		cursors = append(cursors, c)
		k, v, ok, err := c.next()
		if err != nil {
			return nil, nil, 0, err
		}
		if ok {
			h = append(h, cursorHead{k, v, i, c})
		}
	}
	heap.Init(&h)

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
	for h.Len() > 0 {
		head := h[0]
		k, v, ok, nerr := head.cur.next()
		if nerr != nil {
			return nil, nil, 0, nerr
		}
		if ok {
			h[0].key, h[0].val = k, v
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}

		if int(head.key) >= n || int(head.val) >= n {
			return nil, nil, 0, fmt.Errorf("diskcsr: segment edge (%d,%d) outside %d-node graph", head.key, head.val, n)
		}
		if head.key == head.val {
			continue
		}
		if int(head.key) != row {
			closeRow(int(head.key))
			row = int(head.key)
			rowCount, rowBytes, havePrev = 0, 0, false
		} else if havePrev && head.val == prevVal {
			continue // duplicate across segments
		}
		if havePrev && head.val < prevVal {
			return nil, nil, 0, fmt.Errorf("diskcsr: merge order violated at key %d", head.key)
		}
		if havePrev {
			scratch = appendUvarint(scratch[:0], uint64(head.val-prevVal)-1)
		} else {
			scratch = appendUvarint(scratch[:0], uint64(head.val))
		}
		if _, err := bw.Write(scratch); err != nil {
			return nil, nil, 0, err
		}
		rowBytes += uint64(len(scratch))
		rowCount++
		m++
		prevVal = head.val
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

// appendUvarint is binary.AppendUvarint under a local name so the merge
// loop reads symmetrically with encodeRuns.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
