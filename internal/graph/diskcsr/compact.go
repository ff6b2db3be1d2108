package diskcsr

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync/atomic"

	"gplus/internal/graph"
	"gplus/internal/stats"
)

// CompactOptions configures Compact.
type CompactOptions struct {
	// NumNodes fixes the node count of the output graph; it must cover
	// every id the segments (after Remap) mention. Zero means "largest
	// id seen + 1", which loses trailing isolated nodes — callers that
	// know the roster (the dataset layer does) should always set it.
	NumNodes int
	// Remap, when non-nil, translates every segment node id through
	// Remap[id] as it is read. The crawl path needs this: segments are
	// written under provisional interning order, while dataset node ids
	// are assigned in sorted service-id order only once the crawl ends.
	Remap []graph.NodeID
	// Metrics, when non-nil, receives compaction accounting.
	Metrics *Metrics
}

// CompactStats reports what a compaction did.
type CompactStats struct {
	Segments int   // input segment files read
	Nodes    int   // nodes in the output graph
	Edges    int64 // distinct edges written (after global dedup)
	Bytes    int64 // size of the v2 output file
}

const (
	// bucketTarget is the most edges a compaction worker sorts at once.
	// Buckets are planned to hold half of it.
	bucketTarget = 1 << 16
	// A bucket is spilled in chunks of maxChunk edges, fewer when
	// chunkBudget edges would not buffer one per bucket, never fewer
	// than minChunk.
	maxChunk, minChunk, chunkBudget = 1 << 11, 1 << 7, 1 << 17
)

// compactSortHook, when set, is told the length of every edge list a
// compaction worker sorts, and whether it is a reverse bucket's.
var compactSortHook func(reverse bool, edges int)

// Compact writes one v2 CSR file at outPath (atomically) holding the
// edges of every segment under segDir, by a distribution sort over key
// ranges. It is the one place segment edges are sorted: duplicate edges
// collapse and self-loops drop, matching Builder semantics, so a graph
// built through segments equals the graph built in RAM from the same
// edge stream.
//
// Three passes run on up to P = GOMAXPROCS workers each. The scatter: a
// worker reads a contiguous range of records, a P-th of all segments'
// records, cut across segment borders and mapping one segment at a
// time, translates each edge through Remap, and appends (src,dst) to the
// forward bucket of src's key range, in chunks spilled to one scratch
// file, outPath + ".spill", and indexed in RAM. The forward encode: a
// worker reads a bucket back, sorts and deduplicates it with
// graph.SortEdges and encodes its rows, and appends the reverse copy
// (dst,src) of each distinct edge it writes to the reverse bucket of
// dst's key range, spilled the same way. The reverse encode: a worker
// reads a reverse bucket back, which holds each edge once however often
// the segments observed it, sorts it and encodes its rows. The encoded
// pieces are copied into outPath in key order, forward then reverse.
// The bucket count follows from the segments' edge totals, so a worker
// holds at most bucketTarget edges to sort — a fuller bucket, as hub
// rows make, is first cut into narrower ranges, down to one edge value
// — plus its chunk buffers: one partition's in the scatter, its sort
// buffers and one reverse partition's in the forward encode. Beside
// that the call holds both directions' O(NumNodes) index arrays;
// adjacency never materializes, and only outPath outlives the call.
//
// The bytes written are the same at any GOMAXPROCS, and so is the
// error: a segment's structure (header, size) is checked serially
// before any record is read, then the lowest failing range's, which is
// the first failing record's.
func Compact(segDir, outPath string, opt CompactOptions) (*CompactStats, error) {
	segs, err := ListSegments(segDir)
	if err != nil {
		return nil, err
	}
	// limit bounds every id an edge may carry after Remap; starts[i] is
	// the index of segment i's first record among all segments' records.
	var limit uint64
	starts := make([]uint64, len(segs)+1)
	for i, path := range segs {
		s, err := openSegment(path)
		if err != nil {
			return nil, err
		}
		s.close()
		starts[i+1], limit = starts[i]+s.edges, max(limit, s.bound)
	}
	total := starts[len(segs)]
	if opt.Remap != nil {
		limit = maxNodes
	}
	limit = cmp.Or(uint64(opt.NumNodes), limit)

	f, err := os.Create(outPath + ".spill")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	sp := &spill{f: f}

	plan := newBucketPlan(limit, total)
	fwd, seen, err := scatter(segs, starts, opt.Remap, limit, plan, sp)
	if err != nil {
		return nil, err
	}
	n := cmp.Or(opt.NumNodes, int(seen))
	cnt := [2][]uint64{make([]uint64, n+1), make([]uint64, n+1)}
	pos := [2][]uint64{make([]uint64, n+1), make([]uint64, n+1)}
	pieces, err := encodeBuckets(fwd, plan, n, cnt, pos, sp)
	if err != nil {
		return nil, err
	}
	for d := range cnt {
		for u := range n {
			cnt[d][u+1] += cnt[d][u]
			pos[d][u+1] += pos[d][u]
		}
	}
	h := header{n: uint64(n), m: cnt[0][n], outBlobLen: pos[0][n], inBlobLen: pos[1][n]}
	if h.m > maxEdges {
		return nil, fmt.Errorf("diskcsr: merged graph too large (%d edges)", h.m)
	}
	err = writeV2(outPath, h.m, cnt[0], pos[0], cnt[1], pos[1], func(bw *bufio.Writer) error {
		for _, p := range pieces {
			if _, err := io.Copy(bw, io.NewSectionReader(f, p.off, p.n)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats := &CompactStats{Segments: len(segs), Nodes: n, Edges: int64(h.m), Bytes: int64(h.fileSize())}
	if opt.Metrics != nil {
		opt.Metrics.compactions.Inc()
		opt.Metrics.compactionSegments.Add(int64(len(segs)))
		opt.Metrics.compactionEdges.Add(stats.Edges)
	}
	return stats, nil
}

// bucketPlan cuts the key space [0, limit) into buckets of 1<<shift
// keys, holding about half of bucketTarget edges each (0.35 to 0.71 of
// it) were total edges spread evenly.
type bucketPlan struct {
	shift   uint
	buckets int
}

func newBucketPlan(limit, total uint64) bucketPlan {
	want := max(1, 2*total/bucketTarget)
	width := max(1, limit/want)
	shift := uint(bits.Len64(width) - 1)
	if width*width >= 1<<(2*shift+1) {
		shift++ // the nearer power of two
	}
	return bucketPlan{shift: shift, buckets: int((limit + 1<<shift - 1) >> shift)}
}

// spill is the compaction's scratch file. Workers append to it side by
// side, each at a range it reserves, and read back by offset.
type spill struct {
	f   *os.File
	end atomic.Int64
}

// extent is n bytes of the spill at off.
type extent struct{ off, n int64 }

func (s *spill) append(p []byte) (extent, error) {
	off := s.end.Add(int64(len(p))) - int64(len(p))
	_, err := s.f.WriteAt(p, off)
	return extent{off, int64(len(p))}, err
}

// bucket indexes the spilled chunks of one bucket's packed edges.
type bucket struct {
	chunks []extent
	edges  int
}

// partition spreads packed edges over buckets, buffering a chunk per
// bucket and spilling each chunk as it fills.
type partition struct {
	sp      *spill
	per     int    // edges per chunk
	buf     []byte // one chunk buffer per bucket, end to end
	fill    []int
	buckets []bucket
}

func newPartition(sp *spill, buckets int) *partition {
	per := max(minChunk, min(maxChunk, chunkBudget/max(1, buckets)))
	return &partition{sp: sp, per: per, buf: make([]byte, 8*per*buckets), fill: make([]int, buckets), buckets: make([]bucket, buckets)}
}

func (p *partition) add(b int, e uint64) error {
	binary.LittleEndian.PutUint64(p.buf[8*(b*p.per+p.fill[b]):], e)
	if p.fill[b]++; p.fill[b] == p.per {
		return p.spill(b)
	}
	return nil
}

func (p *partition) spill(b int) error {
	start := 8 * b * p.per
	c, err := p.sp.append(p.buf[start : start+8*p.fill[b]])
	p.buckets[b].chunks = append(p.buckets[b].chunks, c)
	p.buckets[b].edges += p.fill[b]
	p.fill[b] = 0
	return err
}

// flush spills every partly filled chunk.
func (p *partition) flush() error {
	for b, n := range p.fill {
		if n > 0 {
			if err := p.spill(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// scatter is the first pass: it reads every segment's records, split
// into one contiguous record range per worker across segment borders,
// checks each id against its segment's bound, translates the edge
// through remap (when non-nil), drops self-loops, checks every id
// against limit, and spreads the edges over the plan's forward
// buckets. It returns their index and the largest id seen + 1.
func scatter(segs []string, starts []uint64, remap []graph.NodeID, limit uint64, plan bucketPlan, sp *spill) ([]bucket, uint64, error) {
	total := starts[len(segs)]
	workers := int(min(uint64(runtime.GOMAXPROCS(0)), total))
	parts := make([][]bucket, workers)
	seens := make([]uint64, workers)
	err := inParallel(workers, func(lo, hi int) error {
		fwd := newPartition(sp, plan.buckets)
		var top uint64 // the largest id seen + 1
		// records scatters records [from, to) of s.
		records := func(s *segment, from, to uint64) error {
			for r := from; r < to; r++ {
				k, v := graph.UnpackEdge(binary.LittleEndian.Uint64(s.blob[8*r:]))
				if uint64(k) >= s.bound || uint64(v) >= s.bound {
					return fmt.Errorf("%s: record %d, edge (%d,%d), at or past the segment bound %d", s.name, r, k, v, s.bound)
				}
				if remap != nil {
					if int(k) >= len(remap) || int(v) >= len(remap) {
						return fmt.Errorf("%s: node id outside remap table (len %d)", s.name, len(remap))
					}
					k, v = remap[k], remap[v]
				}
				if k == v {
					continue
				}
				if uint64(k) >= limit || uint64(v) >= limit {
					return fmt.Errorf("%s: edge (%d,%d) outside the %d-node graph", s.name, k, v, limit)
				}
				top = max(top, uint64(max(k, v))+1)
				if err := fwd.add(int(k>>plan.shift), graph.PackEdge(k, v)); err != nil {
					return err
				}
			}
			return nil
		}
		// This worker's records are [begin, end) of all segments'.
		begin, end := total*uint64(lo)/uint64(workers), total*uint64(hi)/uint64(workers)
		for i := sort.Search(len(segs), func(i int) bool { return starts[i+1] > begin }); i < len(segs) && starts[i] < end; i++ {
			s, err := openSegment(segs[i])
			if err != nil {
				return err
			}
			if s.edges != starts[i+1]-starts[i] {
				err = fmt.Errorf("%s: segment changed during compaction", s.name)
			} else {
				err = records(s, max(begin, starts[i])-starts[i], min(end, starts[i+1])-starts[i])
			}
			s.close()
			if err != nil {
				return err
			}
		}
		seens[lo], parts[lo] = top, fwd.buckets
		return fwd.flush() // which fills the buckets parts[lo] shares
	})
	if err != nil {
		return nil, 0, err
	}
	var seen uint64
	for _, top := range seens {
		seen = max(seen, top)
	}
	return merge(parts, plan.buckets), seen, nil
}

// merge joins the workers' bucket indexes, in worker order, into one.
func merge(parts [][]bucket, buckets int) []bucket {
	merged := make([]bucket, buckets)
	for _, p := range parts {
		for b, pb := range p {
			merged[b].chunks = append(merged[b].chunks, pb.chunks...)
			merged[b].edges += pb.edges
		}
	}
	return merged
}

// encodeBuckets encodes the forward buckets into v2 rows, then the
// reverse buckets those rows fill, and returns the encoded pieces in
// output order — forward buckets then reverse, each in key order. Row
// u's edge count and byte length land in cnt[d][u+1] and pos[d][u+1],
// for the caller to sum.
//
// The forward pass, the second of the compaction, sorts and
// deduplicates each bucket, and each worker appends the reverse copy
// (dst,src) of every distinct edge it writes to its own reverse
// partition. The third pass merges those partitions in worker order and
// encodes the reverse buckets, which so hold each distinct edge once,
// not once per observation. A worker encodes a contiguous run of
// forward buckets in key order, so its reverse copies reach each
// reverse bucket ordered by value, and the workers' runs follow each
// other: a reverse bucket's edges arrive ordered by value, and sorting
// them by key alone orders them.
func encodeBuckets(fwd []bucket, plan bucketPlan, n int, cnt, pos [2][]uint64, sp *spill) ([]extent, error) {
	// encs and revs hold each worker's encoder and reverse bucket index
	// at the index of its first bucket; both passes cut the buckets
	// alike, so the reverse pass reuses the encoders.
	encs, revs := make([]*encoder, plan.buckets), make([][]bucket, plan.buckets)
	out := make([][]extent, 2*plan.buckets)
	pass := func(d int, buckets []bucket) error {
		largest := 0
		for _, b := range buckets {
			largest = max(largest, min(b.edges, bucketTarget))
		}
		return inParallel(plan.buckets, func(lo, hi int) error {
			e := encs[lo]
			if e == nil {
				e = &encoder{sp: sp, n: uint64(n), shift: plan.shift}
				encs[lo] = e
			}
			if cap(e.edges) < largest {
				e.edges, e.scratch = make([]uint64, 0, largest), make([]uint64, largest)
			}
			e.cnt, e.pos, e.rev = cnt[d], pos[d], nil
			if d == 0 {
				e.rev = newPartition(sp, plan.buckets)
			}
			for b := lo; b < hi; b++ {
				e.open, e.pieces = false, nil
				keys := uint64(b) << plan.shift << 32
				if err := e.encode(buckets[b], keys, keys+1<<plan.shift<<32); err != nil {
					return err
				}
				out[d*plan.buckets+b] = e.pieces
			}
			if e.rev == nil {
				return nil
			}
			revs[lo] = e.rev.buckets
			return e.rev.flush() // which fills the buckets revs[lo] shares
		})
	}
	err := pass(0, fwd)
	if err == nil {
		err = pass(1, merge(revs, plan.buckets))
	}
	var pieces []extent
	for _, p := range out {
		pieces = append(pieces, p...)
	}
	return pieces, err
}

// encoder is one worker of the encode passes, with buffers kept across
// buckets: the sort's two, sized from the largest bucket, and the rows
// encoded since the last spill.
type encoder struct {
	sp             *spill
	n              uint64
	shift          uint // the bucket plan's
	edges, scratch []uint64
	raw, row       []byte
	cnt, pos       []uint64
	// rev takes the reverse copy of every edge the forward pass writes;
	// it is nil in the reverse pass.
	rev *partition
	// The row being encoded, which the next range of a cut bucket may
	// continue.
	open      bool
	key, prev graph.NodeID
	pieces    []extent
}

// each calls fn on every edge spilled for bkt.
func (e *encoder) each(bkt bucket, fn func(x uint64) error) error {
	for _, c := range bkt.chunks {
		e.raw = append(e.raw[:0], make([]byte, c.n)...)
		if _, err := e.sp.f.ReadAt(e.raw, c.off); err != nil {
			return err
		}
		for i := 0; i < len(e.raw); i += 8 {
			if err := fn(binary.LittleEndian.Uint64(e.raw[i:])); err != nil {
				return err
			}
		}
	}
	return nil
}

// encode encodes bkt, whose edges all lie in the packed range [lo, hi),
// into rows: in one sort when they fit bucketTarget, else by cutting
// the range into equal sub-ranges, as many as put half of bucketTarget
// in each were the edges spread evenly — whole keys while it spans
// several, values below n within one — re-spilling the edges over them
// and encoding each in turn.
func (e *encoder) encode(bkt bucket, lo, hi uint64) error {
	if bkt.edges <= bucketTarget {
		edges := e.edges[:0]
		err := e.each(bkt, func(x uint64) error {
			edges = append(edges, x)
			return nil
		})
		if err != nil || len(edges) == 0 {
			return err
		}
		if compactSortHook != nil {
			compactSortHook(e.rev == nil, len(edges))
		}
		if err := e.emit(e.order(edges)); err != nil {
			return err
		}
		return e.spillRows()
	}
	var shift uint
	cut := bits.Len(uint(2 * bkt.edges / bucketTarget))
	if hi-lo > 1<<32 {
		shift = 32 + uint(max(0, bits.Len64((hi-lo)>>32-1)-cut))
	} else if hi = min(hi, lo&^(1<<32-1)|e.n); hi-lo == 1 {
		// One edge, seen more than bucketTarget times.
		if err := e.emit([]uint64{lo}); err != nil {
			return err
		}
		return e.spillRows()
	} else {
		shift = uint(max(0, bits.Len64(hi-lo-1)-cut))
	}
	p := newPartition(e.sp, int((hi-lo-1)>>shift)+1)
	err := e.each(bkt, func(x uint64) error { return p.add(int((x-lo)>>shift), x) })
	if err == nil {
		err = p.flush()
	}
	for i, sub := range p.buckets {
		if err != nil {
			return err
		}
		sublo := lo + uint64(i)<<shift
		err = e.encode(sub, sublo, min(hi, sublo+1<<shift))
	}
	return err
}

// order sorts a bucket's edges. A forward bucket's arrive in any
// order, with duplicates, and graph.SortEdges sorts and deduplicates
// them. A reverse bucket's are distinct and arrive ordered by value
// (see encodeBuckets), so a stable radix sort on the digits its keys
// differ in finishes them.
func (e *encoder) order(edges []uint64) []uint64 {
	if e.rev != nil {
		return graph.SortEdges(edges, e.scratch[:len(edges)])
	}
	var diff uint64
	for _, x := range edges {
		diff |= x ^ edges[0]
	}
	sorted, _ := stats.RadixSort(edges, e.scratch[:len(edges)], 32, stats.RadixPasses(bits.Len64(diff>>32)))
	return sorted
}

// emit encodes kept — sorted, distinct, no self-loops — onto e.row,
// continuing the open row when the first edge shares its key, counts
// each row's edges and bytes and, in the forward pass, appends each
// edge's reverse copy to e.rev.
func (e *encoder) emit(kept []uint64) error {
	for _, x := range kept {
		k, v := graph.UnpackEdge(x)
		size := len(e.row)
		if e.open && k == e.key {
			e.row = binary.AppendUvarint(e.row, uint64(v-e.prev)-1)
		} else {
			e.row = binary.AppendUvarint(e.row, uint64(v))
			e.open, e.key = true, k
		}
		e.prev = v
		e.cnt[k+1]++
		e.pos[k+1] += uint64(len(e.row) - size)
		if e.rev != nil {
			if err := e.rev.add(int(v>>e.shift), graph.PackEdge(v, k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillRows appends the rows encoded so far to the spill as a piece.
func (e *encoder) spillRows() error {
	c, err := e.sp.append(e.row)
	e.pieces = append(e.pieces, c)
	e.row = e.row[:0]
	return err
}
