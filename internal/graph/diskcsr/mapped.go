package diskcsr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"gplus/internal/graph"
)

// Options configures Open.
type Options struct {
	// Metrics, when non-nil, receives open/close accounting.
	Metrics *Metrics
}

// Mapped is a verified v2 graph file exposed through the graph.View
// surface. Adjacency bytes live in a shared read-only memory map (plain
// memory on platforms without mmap) and fault in on first touch, so
// resident memory grows only with the rows actually visited. Rows are
// decoded on demand: a cursor from Rows decodes into two buffers it owns
// (one per direction), so a row lives until the cursor's next call in
// its direction, a pass allocates nothing once the buffers have grown,
// and each goroutine needs its own cursor. Out and In are the same
// decode into a fresh slice per call.
//
// All methods are safe for concurrent use. Close unmaps the file; no
// method or cursor may be used afterwards.
type Mapped struct {
	h       header
	data    []byte
	unmap   func() error
	met     *Metrics
	outCnt  []byte // (n+1) little-endian uint64s
	outPos  []byte
	inCnt   []byte
	inPos   []byte
	outBlob []byte
	inBlob  []byte
}

// Open maps the v2 file at path and verifies it: the index, then every
// byte of both blobs, decoded once (each blob sequentially — the cheap
// access pattern for a fresh map — and the two side by side), so that
// corrupt files fail here rather than as garbage analysis results
// later; when both blobs are corrupt, the out blob's error is reported.
// The decode also requires the in blob to hold the out blob's edges, by
// a fingerprint of each (see rowMix). Every Mapped is verified.
func Open(path string, opt Options) (*Mapped, error) {
	m, err := mapPath(path, opt.Metrics, verify)
	if err == nil && opt.Metrics != nil {
		opt.Metrics.mappedOpens.Inc()
		opt.Metrics.mappedBytes.Add(int64(len(m.data)))
	}
	return m, err
}

// ReadGraph reads the v2 file at path into an in-RAM graph.Graph: it
// maps the file, checks the index and decodes both blobs once, straight
// into the CSR arrays, with Open's checks, errors and fingerprint, then
// unmaps it. It is the RAM load: the file is checked in full, once, by
// the decode that reads it.
func ReadGraph(path string) (g *graph.Graph, err error) {
	m, err := mapPath(path, nil, readInto(&g))
	if err != nil {
		return nil, err
	}
	return g, m.Close()
}

// verify is Open's check of a map: both blobs decoded, fingerprinted.
func verify(m *Mapped) error {
	_, _, err := m.decode(false, true)
	return err
}

// readInto is ReadGraph's check of a map: the same decode, into the CSR
// arrays of the graph it stores in *g.
func readInto(g **graph.Graph) func(*Mapped) error {
	return func(m *Mapped) (err error) {
		*g, err = m.materialize(true)
		return err
	}
}

// mapPath maps the v2 file at path and hands newMapped the bytes and
// check; on failure it unmaps the file and names it in the error.
func mapPath(path string, met *Metrics, check func(*Mapped) error) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("diskcsr: mapping %s: %w", path, err)
	}
	m, err := newMapped(data, unmap, met, check)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("diskcsr: %s: %w", path, err)
	}
	return m, nil
}

// newMapped slices the index sections out of data, checks the index,
// then runs check — verify or readInto — over the map.
func newMapped(data []byte, unmap func() error, met *Metrics, check func(*Mapped) error) (*Mapped, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != h.fileSize() {
		return nil, fmt.Errorf("file is %d bytes, header implies %d", len(data), h.fileSize())
	}
	idx := uint64(headerSize)
	arr := 8 * (h.n + 1)
	m := &Mapped{h: h, data: data, unmap: unmap, met: met}
	m.outCnt = data[idx : idx+arr]
	m.outPos = data[idx+arr : idx+2*arr]
	m.inCnt = data[idx+2*arr : idx+3*arr]
	m.inPos = data[idx+3*arr : idx+4*arr]
	blobs := idx + 4*arr
	m.outBlob = data[blobs : blobs+h.outBlobLen]
	m.inBlob = data[blobs+h.outBlobLen : blobs+h.outBlobLen+h.inBlobLen]
	for d := range 2 {
		if err := m.validateIndex(m.direction(d)); err != nil {
			return nil, err
		}
	}
	if err := check(m); err != nil {
		return nil, err
	}
	return m, nil
}

// direction returns the name, index arrays and blob of the out (d = 0)
// or the in (d = 1) direction.
func (m *Mapped) direction(d int) (name string, cnt, pos, blob []byte) {
	if d == 0 {
		return "out", m.outCnt, m.outPos, m.outBlob
	}
	return "in", m.inCnt, m.inPos, m.inBlob
}

// validateIndex checks the O(n) invariants of one direction's index:
// prefix arrays start at zero, never decrease, and end at the header's
// edge count and blob length. After this, every pos/cnt delta a reader
// computes is in range, so lazy row access never faults outside a blob
// whatever the blob bytes contain.
func (m *Mapped) validateIndex(name string, cnt, pos, blob []byte) error {
	n := m.h.n
	if u64at(cnt, 0) != 0 || u64at(pos, 0) != 0 {
		return fmt.Errorf("%s index does not start at zero", name)
	}
	for u := uint64(0); u < n; u++ {
		if u64at(cnt, u+1) < u64at(cnt, u) {
			return fmt.Errorf("%s edge counts decrease at node %d", name, u)
		}
		if u64at(pos, u+1) < u64at(pos, u) {
			return fmt.Errorf("%s byte offsets decrease at node %d", name, u)
		}
	}
	if got := u64at(cnt, n); got != m.h.m {
		return fmt.Errorf("%s degree sum %d does not match edge count %d", name, got, m.h.m)
	}
	if got := u64at(pos, n); got != uint64(len(blob)) {
		return fmt.Errorf("%s offsets end at %d, want blob length %d", name, got, len(blob))
	}
	return nil
}

// decode decodes both blobs side by side, checking each row against
// its index entries (see decodeBlob); with materialize set, into the
// CSR arrays it returns. With fingerprint set it also requires the in
// blob to hold the out blob's edges, which their fingerprints check.
// When both blobs are corrupt, the out blob's error is the one returned.
func (m *Mapped) decode(materialize, fingerprint bool) (off [2][]int64, adj [2][]graph.NodeID, err error) {
	var sums [2]uint64
	err = bothDirections(func(d int) (err error) {
		if materialize {
			_, cnt, _, _ := m.direction(d)
			off[d] = make([]int64, m.h.n+1)
			for u := range off[d] {
				off[d][u] = int64(u64at(cnt, uint64(u)))
			}
			adj[d] = make([]graph.NodeID, m.h.m)
		}
		sums[d], err = m.decodeBlob(d, adj[d], fingerprint)
		return err
	})
	if err == nil && sums[0] != sums[1] {
		err = errors.New("the in blob is not the transpose of the out blob")
	}
	return off, adj, err
}

// decodeBlob decodes direction d's whole blob once, in row order, into
// adj (m entries, row u at its count index) or, when adj is nil, into a
// scratch row, checking each row against its index entries: exact byte
// length, exact count, strictly ascending, all targets below n. With
// fingerprint set it returns the sum of rowMix over the rows.
func (m *Mapped) decodeBlob(d int, adj []graph.NodeID, fingerprint bool) (sum uint64, err error) {
	name, cnt, pos, blob := m.direction(d)
	n := m.h.n
	var row []graph.NodeID
	for u := uint64(0); u < n; u++ {
		first, last := u64at(cnt, u), u64at(cnt, u+1)
		switch {
		case adj != nil:
			row = adj[first:last]
		case uint64(cap(row)) < last-first:
			row = make([]graph.NodeID, last-first)
		default:
			row = row[:last-first]
		}
		lo, hi := u64at(pos, u), u64at(pos, u+1)
		used, err := decodeRow(blob[lo:hi], n, row)
		if err != nil {
			return 0, fmt.Errorf("%s row %d: %w", name, u, err)
		}
		if uint64(used) != hi-lo {
			return 0, fmt.Errorf("%s row %d: %d encoded bytes, index claims %d", name, u, used, hi-lo)
		}
		if fingerprint {
			sum += rowMix(d, u, row)
		}
	}
	return sum, nil
}

// rowMix sums a 64-bit mix of every edge of row u of direction d,
// packed as (tail, head): (u, v) for an out-row, (v, u) for an in-row.
// A sum does not depend on the order edges are visited in, so a file's
// two blobs sum alike when they hold the same edges, and a corrupt one
// that still decodes — an id swapped for another in one direction —
// almost surely breaks the equality. It guards against corruption, not
// against a file crafted to collide.
func rowMix(d int, u uint64, row []graph.NodeID) (sum uint64) {
	if d == 0 {
		for _, v := range row {
			sum += mix64(u<<32 | uint64(v))
		}
	} else {
		for _, v := range row {
			sum += mix64(uint64(v)<<32 | u)
		}
	}
	return sum
}

// mix64 multiplies x by an odd constant and folds the high half into
// the low: both steps are invertible, so an edge changed for another
// always changes its direction's sum. It is one multiply, because
// Open pays it for every edge twice.
func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>32
}

func u64at(arr []byte, i uint64) uint64 {
	return binary.LittleEndian.Uint64(arr[8*i:])
}

// Close releases the mapping. Not safe to call concurrently with reads.
func (m *Mapped) Close() error {
	if m.unmap == nil {
		return nil
	}
	if m.met != nil {
		m.met.mappedBytes.Add(-int64(len(m.data)))
	}
	u := m.unmap
	m.unmap = nil
	m.data = nil
	m.outCnt, m.outPos, m.inCnt, m.inPos = nil, nil, nil, nil
	m.outBlob, m.inBlob = nil, nil
	return u()
}

// NumNodes implements graph.View.
func (m *Mapped) NumNodes() int { return int(m.h.n) }

// NumEdges implements graph.View.
func (m *Mapped) NumEdges() int64 { return int64(m.h.m) }

// OutDegree implements graph.View in O(1) from the count index.
func (m *Mapped) OutDegree(u graph.NodeID) int {
	return int(u64at(m.outCnt, uint64(u)+1) - u64at(m.outCnt, uint64(u)))
}

// InDegree implements graph.View in O(1) from the count index.
func (m *Mapped) InDegree(u graph.NodeID) int {
	return int(u64at(m.inCnt, uint64(u)+1) - u64at(m.inCnt, uint64(u)))
}

// Out implements graph.View: u's out-neighbors, decoded into a fresh
// slice.
func (m *Mapped) Out(u graph.NodeID) []graph.NodeID {
	return m.row(nil, u, m.outCnt, m.outPos, m.outBlob)
}

// In implements graph.View: u's in-neighbors, decoded into a fresh
// slice.
func (m *Mapped) In(u graph.NodeID) []graph.NodeID {
	return m.row(nil, u, m.inCnt, m.inPos, m.inBlob)
}

// Rows implements graph.View: a cursor with its own two row buffers.
func (m *Mapped) Rows() graph.Rows { return &cursor{m: m} }

// cursor is Mapped's graph.Rows.
type cursor struct {
	m       *Mapped
	out, in []graph.NodeID
}

func (c *cursor) Out(u graph.NodeID) []graph.NodeID {
	c.out = c.m.row(c.out, u, c.m.outCnt, c.m.outPos, c.m.outBlob)
	return c.out
}

func (c *cursor) In(u graph.NodeID) []graph.NodeID {
	c.in = c.m.row(c.in, u, c.m.inCnt, c.m.inPos, c.m.inBlob)
	return c.in
}

// row decodes u's row of one direction into dst's storage, growing it
// (at least doubling, so a pass regrows a handful of times) when the
// row does not fit; a nil dst gets a slice of exactly the row's length.
// The decode trusts Open's verification: a row that fails to decode
// here means the file changed underneath the map, and panicking beats
// silently analyzing garbage.
func (m *Mapped) row(dst []graph.NodeID, u graph.NodeID, cnt, pos, blob []byte) []graph.NodeID {
	count := int(u64at(cnt, uint64(u)+1) - u64at(cnt, uint64(u)))
	if count > cap(dst) {
		dst = make([]graph.NodeID, count, max(count, 2*cap(dst)))
	}
	dst = dst[:count]
	if _, err := decodeRow(blob[u64at(pos, uint64(u)):u64at(pos, uint64(u)+1)], m.h.n, dst); err != nil {
		panic(fmt.Sprintf("diskcsr: verified row %d unreadable: %v", u, err))
	}
	return dst
}

// WorkPrefix implements graph.View with the same weight the in-RAM
// graph uses (outdeg + indeg + 1 per node, as a prefix sum), so
// degree-balanced shard cuts are identical across backends.
func (m *Mapped) WorkPrefix(u int) int64 {
	return int64(u64at(m.outCnt, uint64(u)) + u64at(m.inCnt, uint64(u)) + uint64(u))
}

// Materialize decodes the whole map into an in-RAM graph.Graph — the
// escape hatch when RAM affords it and repeated random access makes
// decode-per-row too slow. The two directions decode side by side. Open
// has verified the map, so the decode does not fingerprint it again (an
// error means the file changed underneath the map); a graph that is
// only to be read into RAM is read by ReadGraph, in one checked pass.
func (m *Mapped) Materialize() (*graph.Graph, error) { return m.materialize(false) }

// materialize decodes both blobs into CSR arrays, with fingerprint as
// decode takes it, and assembles the graph.
func (m *Mapped) materialize(fingerprint bool) (*graph.Graph, error) {
	off, adj, err := m.decode(true, fingerprint)
	if err != nil {
		return nil, err
	}
	return graph.FromCSR(off[0], adj[0], off[1], adj[1])
}
