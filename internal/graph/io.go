package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Legacy v1 binary graph format (GPLGRPH1), read-only: magic, node
// count, edge count, per-node out-degree, then the concatenated
// out-adjacency; the reverse adjacency is rebuilt on load. Nothing in the
// repo writes it any more — datasets are saved as diskcsr v2 — and
// ReadBinary stays as the migration reader for old dataset directories.
var graphMagic = [8]byte{'G', 'P', 'L', 'G', 'R', 'P', 'H', '1'}

// ReadBinary decodes a v1 graph and validates it.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != graphMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	m := binary.LittleEndian.Uint64(hdr[8:16])
	// Sanity bounds: a hostile or corrupt header must not trigger huge
	// allocations. Beyond the caps, all buffers below grow with the data
	// actually present in the stream, not with the header's claim.
	const (
		maxNodes = 1 << 31
		maxEdges = 1 << 33
	)
	if n > maxNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds limit", n)
	}
	if m > maxEdges {
		return nil, fmt.Errorf("graph: edge count %d exceeds limit", m)
	}

	g := &Graph{}
	// Degrees -> forward offsets, read in chunks.
	g.outOff = append(make([]int64, 0, chunkCap(n+1)), 0)
	var total int64
	err := readUint32s(br, n, func(d uint32) {
		total += int64(d)
		g.outOff = append(g.outOff, total)
	})
	if err != nil {
		return nil, fmt.Errorf("graph: reading degrees: %w", err)
	}
	if total != int64(m) {
		return nil, fmt.Errorf("graph: degree sum %d does not match edge count %d", total, m)
	}
	// The degree stream already proved the edge count is real data, not
	// just a header claim, so the adjacency arrays can be allocated at
	// their exact final size — no append-doubling churn on the largest
	// allocations of the load.
	g.outAdj = make([]NodeID, 0, m)
	err = readUint32s(br, m, func(v uint32) {
		g.outAdj = append(g.outAdj, v)
	})
	if err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	g.inOff = make([]int64, n+1)
	g.inAdj = make([]NodeID, m)

	// Rebuild the reverse CSR in place. Because out-rows are visited in
	// ascending source order, each in-row comes out sorted. The prefix
	// sums themselves serve as the fill cursors: inOff[v] advances as
	// v's in-row fills, finishing exactly at the old inOff[v+1], and one
	// backward shift restores the offsets — no per-node scratch array,
	// which on a paper-scale load is hundreds of MB of peak RSS.
	for _, v := range g.outAdj {
		if uint64(v) >= n {
			return nil, fmt.Errorf("graph: edge to out-of-range node %d", v)
		}
		g.inOff[v+1]++
	}
	for u := uint64(0); u < n; u++ {
		g.inOff[u+1] += g.inOff[u]
	}
	for u := uint64(0); u < n; u++ {
		for _, v := range g.outAdj[g.outOff[u]:g.outOff[u+1]] {
			g.inAdj[g.inOff[v]] = NodeID(u)
			g.inOff[v]++
		}
	}
	for v := n; v > 0; v-- {
		g.inOff[v] = g.inOff[v-1]
	}
	g.inOff[0] = 0
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// chunkCap bounds an initial slice capacity so allocations are driven by
// data actually read rather than by header claims.
func chunkCap(claim uint64) uint64 {
	const chunk = 1 << 16
	if claim > chunk {
		return chunk
	}
	return claim
}

// readUint32s streams count little-endian uint32 values from br in
// fixed-size chunks, invoking fn for each.
func readUint32s(br *bufio.Reader, count uint64, fn func(uint32)) error {
	const chunk = 1 << 14 // values per read
	buf := make([]byte, 4*chunk)
	for remaining := count; remaining > 0; {
		c := uint64(chunk)
		if remaining < c {
			c = remaining
		}
		if _, err := io.ReadFull(br, buf[:4*c]); err != nil {
			return err
		}
		for i := uint64(0); i < c; i++ {
			fn(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		remaining -= c
	}
	return nil
}
