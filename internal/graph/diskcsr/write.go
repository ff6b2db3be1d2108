package diskcsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"gplus/internal/durable"
	"gplus/internal/graph"
)

// WriteGraph encodes g as a v2 file at path, atomically. This is the
// direct conversion path — an in-RAM graph (or any other View) snapshots
// to the compressed on-disk form without going through segments.
func WriteGraph(path string, g graph.View) error {
	n := g.NumNodes()
	m := g.NumEdges()
	if int64(n) > maxNodes || m > maxEdges {
		return fmt.Errorf("diskcsr: graph too large to encode (%d nodes, %d edges)", n, m)
	}

	// Sizing pass: per-direction count and byte-offset prefix arrays.
	rows := g.Rows()
	outCnt, outPos := sizeDirection(n, rows.Out)
	inCnt, inPos := sizeDirection(n, rows.In)
	if outCnt[n] != uint64(m) || inCnt[n] != uint64(m) {
		return fmt.Errorf("diskcsr: view is inconsistent: %d out rows, %d in rows, %d edges",
			outCnt[n], inCnt[n], m)
	}
	return writeV2(path, uint64(m), outCnt, outPos, inCnt, inPos, func(bw *bufio.Writer) error {
		if err := writeBlob(bw, n, rows.Out); err != nil {
			return err
		}
		return writeBlob(bw, n, rows.In)
	})
}

// writeV2 is the one writer of the v2 file: header, the four (n+1)-entry
// index arrays, then the out and in blobs as emitted by blobs, published
// with durable.WriteFile. The blob lengths in the header are the final
// entries of the pos arrays.
func writeV2(path string, m uint64, outCnt, outPos, inCnt, inPos []uint64, blobs func(*bufio.Writer) error) error {
	n := len(outCnt) - 1
	h := header{n: uint64(n), m: m, outBlobLen: outPos[n], inBlobLen: inPos[n]}
	return durable.WriteFile(path, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		if _, err := bw.Write(h.marshal()); err != nil {
			return err
		}
		for _, arr := range [][]uint64{outCnt, outPos, inCnt, inPos} {
			if err := writeUint64s(bw, arr); err != nil {
				return err
			}
		}
		if err := blobs(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

func sizeDirection(n int, row func(graph.NodeID) []graph.NodeID) (cnt, pos []uint64) {
	cnt = make([]uint64, n+1)
	pos = make([]uint64, n+1)
	for u := 0; u < n; u++ {
		r := row(graph.NodeID(u))
		cnt[u+1] = cnt[u] + uint64(len(r))
		pos[u+1] = pos[u] + uint64(rowSize(r))
	}
	return cnt, pos
}

func writeUint64s(bw *bufio.Writer, arr []uint64) error {
	var buf [8]byte
	for _, v := range arr {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeBlob(bw *bufio.Writer, n int, row func(graph.NodeID) []graph.NodeID) error {
	var scratch []byte
	for u := 0; u < n; u++ {
		scratch = appendRow(scratch[:0], row(graph.NodeID(u)))
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return nil
}
