package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// WriteBinary encodes g in the legacy v1 format. It lives in a test file
// because only ReadBinary's round-trip tests and fuzz corpus still need
// a v1 writer.
func WriteBinary(w io.Writer, g View) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(graphMagic[:]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(g.OutDegree(NodeID(u))))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(NodeID(u)) {
			binary.LittleEndian.PutUint32(buf[:], v)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func TestBinaryRoundTrip(t *testing.T) {
	g := FromEdges(5, 0, 1, 1, 2, 2, 0, 3, 4, 0, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, g) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, g)
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	g := NewBuilder(0, 0).Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty round trip: %d nodes %d edges", got.NumNodes(), got.NumEdges())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	g := FromEdges(4, 0, 1, 1, 2, 2, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, 20, len(full) - 2} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestReadBinaryAllocBudget pins the in-place reverse-CSR rebuild: the
// decoder's total allocations must stay close to the final graph's own
// arrays. The pre-fix decoder allocated a per-node cursor array and let
// the out-adjacency grow by append-doubling, which fails this budget by
// roughly 2x on this shape.
func TestReadBinaryAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	const n, m = 20_000, 400_000
	g := randomGraph(n, m, rng)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Warm up once so lazy runtime/testing allocations don't bill to the
	// measured run.
	if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatal("decode produced the wrong graph")
	}

	// The graph's own storage: two int64 offset arrays and two uint32
	// adjacency arrays.
	csrBytes := uint64(2*8*(got.NumNodes()+1)) + uint64(2*4*got.NumEdges())
	budget := csrBytes + csrBytes/4 + 512*1024 // 25% + fixed slack for bufio and chunk buffers
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > budget {
		t.Fatalf("ReadBinary allocated %d bytes, budget %d (CSR payload %d)", alloc, budget, csrBytes)
	}
}

func TestBinaryPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed*31))
		n := 1 + r.IntN(60)
		g := randomGraph(n, 4*n, r)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
