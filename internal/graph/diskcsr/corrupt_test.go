package diskcsr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gplus/internal/graph"
)

// v2Bytes returns the encoded v2 file of a small fixed graph.
func v2Bytes(t testing.TB) []byte {
	t.Helper()
	g := graph.FromEdges(5, 0, 1, 0, 2, 1, 2, 2, 3, 3, 0, 4, 0)
	path := filepath.Join(t.TempDir(), "g.v2")
	if err := WriteGraph(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wrappedDeltaV2 returns a well-indexed 8-node file whose node 6 has the
// out-row varint(5), varint(2^64-3): the ten-byte delta wraps 5+delta+1
// around to 3, which a decoder that adds before it checks reads as the
// in-range but descending row [5 3].
func wrappedDeltaV2(t testing.TB) []byte {
	t.Helper()
	row := binary.AppendUvarint([]byte{5}, 1<<64-3)
	rowLen := uint64(len(row))
	path := filepath.Join(t.TempDir(), "wrapped.v2")
	err := writeV2(path, 2,
		[]uint64{0, 0, 0, 0, 0, 0, 0, 2, 2}, []uint64{0, 0, 0, 0, 0, 0, 0, rowLen, rowLen},
		[]uint64{0, 0, 0, 0, 1, 1, 2, 2, 2}, []uint64{0, 0, 0, 0, 1, 1, 2, 2, 2},
		func(bw *bufio.Writer) error {
			_, err := bw.Write(append(row, 6, 6)) // in-rows of nodes 3 and 5
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openBytes runs the full Open validation on raw bytes without a file.
func openBytes(data []byte, opt Options) (*Mapped, error) {
	return newMapped(data, func() error { return nil }, opt)
}

// TestOpenRejectsCorruption drives the corrupt-input corpus from the
// issue: every mutation must be rejected with a descriptive error, not
// a panic and not a silently wrong graph.
func TestOpenRejectsCorruption(t *testing.T) {
	base := v2Bytes(t)
	h, err := parseHeader(base)
	if err != nil {
		t.Fatal(err)
	}
	idx := uint64(headerSize)
	arr := 8 * (h.n + 1)
	outBlobStart := idx + 4*arr

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   string // substring of the expected error
	}{
		"bad magic": {
			func(b []byte) []byte { b[0] = 'X'; return b },
			"bad magic",
		},
		"short file": {
			func(b []byte) []byte { return b[:headerSize-1] },
			"shorter than header",
		},
		"size mismatch": {
			func(b []byte) []byte { return b[:len(b)-1] },
			"header implies",
		},
		"hostile node count": {
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[8:], maxNodes+1)
				return b
			},
			"exceeds limit",
		},
		"hostile edge count": {
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[16:], maxEdges+1)
				return b
			},
			"exceeds limit",
		},
		"degree sum mismatch": {
			// Bump node 0's out count: cnt prefix no longer reaches m.
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[idx+8:], u64at(b[idx:], 1)+1)
				return b
			},
			"", // either non-monotonic or degree-sum, both rejected
		},
		"decreasing counts": {
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[idx+8:], ^uint64(0)>>1)
				return b
			},
			"",
		},
		"truncated varint run": {
			// Set a continuation bit on the last byte of the out blob:
			// the final varint now runs off the end of its row.
			func(b []byte) []byte {
				b[outBlobStart+h.outBlobLen-1] |= 0x80
				return b
			},
			"truncated varint",
		},
		"out of range target": {
			// Rewrite node 0's first neighbor delta to a huge value.
			func(b []byte) []byte {
				b[outBlobStart] = 0x7f
				return b
			},
			"out of range",
		},
		"wrapped delta": {
			func([]byte) []byte { return wrappedDeltaV2(t) },
			"out of range",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), base...))
			_, err := openBytes(mut, Options{})
			if err == nil {
				t.Fatal("corrupt file accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBothBlobsCorruptReportsOut: Open's verification and Materialize
// decode the two directions side by side, and when both are corrupt the
// error is the out direction's, as a serial decode would report it.
func TestBothBlobsCorruptReportsOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data := v2Bytes(t)
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	outBlobStart := headerSize + 4*8*(h.n+1)
	data[outBlobStart] = 0x7f              // node 0's first out-neighbor out of range
	data[outBlobStart+h.outBlobLen] = 0x7f // and its first in-neighbor
	for range 20 {
		if _, err := openBytes(data, Options{}); err == nil || !strings.HasPrefix(err.Error(), "out row 0") {
			t.Fatalf("Open: %v, want the out direction's error", err)
		}
		m, err := openBytes(data, Options{SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Materialize(); err == nil || !strings.Contains(err.Error(), "out direction") {
			t.Fatalf("Materialize: %v, want the out direction's error", err)
		}
	}
}

// TestCompactRejectsTornSegment pins the crash-mid-flush story: a
// segment truncated partway (as a torn write would leave it) must fail
// compaction loudly instead of silently dropping edges.
func TestCompactRejectsTornSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := w.Add(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Compact(dir, filepath.Join(t.TempDir(), "g.v2"), CompactOptions{NumNodes: 64})
	if err == nil || !strings.Contains(err.Error(), "torn segment") {
		t.Fatalf("want torn-segment error, got %v", err)
	}

	// With four workers in each compaction pass, a torn segment is
	// reported by name whichever worker would meet it, and the
	// failed compaction leaves nothing beside its output: no graph, no
	// .spill file.
	t.Run("procs=4", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		remap := make([]graph.NodeID, 64)
		for i := range remap {
			remap[i] = graph.NodeID(63 - i)
		}
		for _, torn := range []int{0, 5, 11} {
			for _, r := range [][]graph.NodeID{nil, remap} {
				t.Run(fmt.Sprintf("torn=%d/remap=%t", torn, r != nil), func(t *testing.T) {
					dir := t.TempDir()
					w, err := NewWriter(dir, 5, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 60; i++ {
						if err := w.Add(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					segs, err := ListSegments(dir)
					if err != nil || len(segs) != 12 {
						t.Fatalf("segments: %v %v, want 12", segs, err)
					}
					data, err := os.ReadFile(segs[torn])
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(segs[torn], data[:len(data)-3], 0o644); err != nil {
						t.Fatal(err)
					}
					outDir := t.TempDir()
					_, err = Compact(dir, filepath.Join(outDir, "g.v2"), CompactOptions{NumNodes: 64, Remap: r})
					if err == nil || !strings.Contains(err.Error(), "torn segment") || !strings.Contains(err.Error(), filepath.Base(segs[torn])) {
						t.Fatalf("want a torn-segment error naming %s, got %v", filepath.Base(segs[torn]), err)
					}
					if left, err := os.ReadDir(outDir); err != nil || len(left) != 0 {
						t.Fatalf("a failed compaction left %v (%v) beside its output", left, err)
					}
				})
			}
		}
	})

	// Segments whose header and size agree but are still not what a
	// Writer writes: each must fail Compact naming the segment, at one
	// worker and at four, and leave nothing beside the output.
	for _, tc := range []struct {
		name, want string
		bad        func([]byte) []byte
	}{
		{"blob-not-8-per-edge", "corrupt segment header", func(data []byte) []byte {
			// One edge fewer in the header than the blob holds.
			binary.LittleEndian.PutUint64(data[16:], binary.LittleEndian.Uint64(data[16:])-1)
			return data
		}},
		{"blob-ragged", "torn segment", func(data []byte) []byte {
			return append(data, 0, 0, 0, 0)
		}},
		{"id-at-bound", "at or past the segment bound", func(data []byte) []byte {
			bound := graph.NodeID(binary.LittleEndian.Uint64(data[8:]))
			binary.LittleEndian.PutUint64(data[segHeaderSize+8*3:], graph.PackEdge(2, bound))
			return data
		}},
		{"leftover-GPLSEG02", "bad segment magic", func([]byte) []byte {
			// Two sorted runs, (0,1) and (1,2), as a GPLSEG02 Writer
			// encoded them.
			blob := []byte{0, 1, 1, 1, 1, 2}
			old := append([]byte("GPLSEG02"), make([]byte, 24)...)
			binary.LittleEndian.PutUint64(old[8:], 3)
			binary.LittleEndian.PutUint64(old[16:], 2)
			binary.LittleEndian.PutUint64(old[24:], uint64(len(blob)))
			return append(old, blob...)
		}},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dir := t.TempDir()
				w, err := NewWriter(dir, 6, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 24; i++ {
					if err := w.Add(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				segs, err := ListSegments(dir)
				if err != nil || len(segs) != 4 {
					t.Fatalf("segments: %v %v, want 4", segs, err)
				}
				bad := segs[2]
				data, err := os.ReadFile(bad)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(bad, tc.bad(data), 0o644); err != nil {
					t.Fatal(err)
				}
				outDir := t.TempDir()
				_, err = Compact(dir, filepath.Join(outDir, "graph.v2"), CompactOptions{NumNodes: 64})
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), bad) {
					t.Fatalf("want a %q error naming %s, got %v", tc.want, bad, err)
				}
				if left, err := os.ReadDir(outDir); err != nil || len(left) != 0 {
					t.Fatalf("a failed compaction left %v (%v) beside its output", left, err)
				}
			})
		}
	}
}

// FuzzOpenV2 feeds arbitrary bytes through the full Open validation,
// the one reader every dataset graph goes through: it must never panic,
// and anything accepted must materialize into a graph that passes
// Validate and round-trips through WriteGraph. The dataset package's
// golden graph.v2 seeds it with bytes no current writer influences.
func FuzzOpenV2(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "dataset", "testdata", "golden", "graph.v2"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(v2Bytes(f))
	f.Add([]byte{})
	f.Add([]byte("GPLGRPH2"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Seed each corpus corruption class from the issue.
	base := v2Bytes(f)
	trunc := append([]byte(nil), base...)
	trunc[len(trunc)-1] |= 0x80
	f.Add(trunc)
	mism := append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(mism[16:], 999)
	f.Add(mism)
	f.Add(wrappedDeltaV2(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := openBytes(data, Options{})
		if err != nil {
			return // rejected: fine
		}
		g, err := m.Materialize()
		if err != nil {
			t.Fatalf("accepted file fails to materialize: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		path := filepath.Join(t.TempDir(), "again.v2")
		if err := WriteGraph(path, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("re-open failed: %v", err)
		}
		defer again.Close()
		g2, err := again.Materialize()
		if err != nil {
			t.Fatalf("re-materialize failed: %v", err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatal("accepted graph does not round trip")
		}
	})
}
