package diskcsr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gplus/internal/graph"
)

// FuzzCompact holds the whole segment path to the in-RAM one: a fuzzed
// edge stream — duplicates, self-loops, ids wide enough for two radix
// passes — written through a Writer at a fuzzed flush threshold (1
// included) and compacted, with a seeded permutation as Remap or with
// none, and with NumNodes set or left to the largest id seen, must be
// byte for byte WriteGraph of the Builder's graph over the same
// (remapped) edges, at GOMAXPROCS 1, 2 and 3. The input is 4 bytes per
// edge, two little-endian 12-bit ids; mode bit 0 selects the Remap and
// bit 1 leaves NumNodes zero.
func FuzzCompact(f *testing.F) {
	encode := func(ids ...uint16) []byte {
		var data []byte
		for _, id := range ids {
			data = binary.LittleEndian.AppendUint16(data, id)
		}
		return data
	}
	for mode := uint8(0); mode < 4; mode++ {
		f.Add(mode, uint8(0), []byte{})
		f.Add(mode, uint8(0), encode(7, 7))                                           // a self-loop alone
		f.Add(mode, uint8(2), encode(1, 2, 1, 2, 2, 1, 3, 3, 4095, 0, 0, 4095, 1, 2)) // duplicates across segments
		f.Add(mode, uint8(63), encode(4095, 2048, 2047, 4095, 5, 4000, 5, 4001, 5, 4000))
	}
	f.Fuzz(func(t *testing.T, mode, threshold uint8, data []byte) {
		const n, maxEdges = 1 << 12, 512
		var remap []graph.NodeID
		if mode&1 != 0 {
			remap = make([]graph.NodeID, n)
			for i, p := range rand.New(rand.NewPCG(uint64(threshold), uint64(len(data)))).Perm(n) {
				remap[i] = graph.NodeID(p)
			}
		}
		numNodes := n
		if mode&2 != 0 {
			numNodes = 0
		}

		dir := t.TempDir()
		segDir := filepath.Join(dir, "segs")
		w, err := NewWriter(segDir, 1+int(threshold)%64, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := graph.NewBuilder(numNodes, 0)
		for i := 0; i+4 <= len(data) && i < 4*maxEdges; i += 4 {
			u := graph.NodeID(binary.LittleEndian.Uint16(data[i:]) % n)
			v := graph.NodeID(binary.LittleEndian.Uint16(data[i+2:]) % n)
			if err := w.Add(u, v); err != nil {
				t.Fatal(err)
			}
			if remap != nil {
				u, v = remap[u], remap[v]
			}
			if u != v { // a self-loop would still grow the Builder's node count
				b.AddEdge(u, v)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		refPath := filepath.Join(dir, "ref.v2")
		if err := WriteGraph(refPath, b.Build()); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(refPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3} {
			prev := runtime.GOMAXPROCS(procs)
			out := filepath.Join(dir, fmt.Sprintf("graph-%d.v2", procs))
			_, err := Compact(segDir, out, CompactOptions{NumNodes: numNodes, Remap: remap})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("Compact at GOMAXPROCS %d: %v", procs, err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Compact at GOMAXPROCS %d wrote %d bytes that differ from WriteGraph's %d", procs, len(got), len(want))
			}
		}
	})
}

// FuzzSegment writes fuzzed bytes as one segment file, after a valid
// one, and compacts the directory at GOMAXPROCS 1 and 3, with a Remap
// or without (mode bit 0): Compact must return an error naming the
// fuzzed file and leave nothing beside its output, or write a graph
// that Open verifies. NumNodes is set, as every production caller sets
// it, so no header can size the output.
func FuzzSegment(f *testing.F) {
	seg := func(magic string, bound, edges, blobLen uint64, blob ...byte) []byte {
		data := []byte(magic)
		data = binary.LittleEndian.AppendUint64(data, bound)
		data = binary.LittleEndian.AppendUint64(data, edges)
		data = binary.LittleEndian.AppendUint64(data, blobLen)
		return append(data, blob...)
	}
	records := func(edges ...graph.NodeID) []byte {
		var blob []byte
		for i := 0; i+1 < len(edges); i += 2 {
			blob = binary.LittleEndian.AppendUint64(blob, graph.PackEdge(edges[i], edges[i+1]))
		}
		return blob
	}
	for mode := uint8(0); mode < 2; mode++ {
		f.Add(mode, []byte{})
		f.Add(mode, seg("GPLSEG03", 0, 0, 0))
		f.Add(mode, seg("GPLSEG03", 9, 3, 24, records(1, 2, 2, 2, 8, 0)...)) // a self-loop
		f.Add(mode, seg("GPLSEG03", 9, 2, 16, records(1, 2, 1, 2)...))       // a duplicate
		f.Add(mode, seg("GPLSEG03", 99, 1, 8, records(98, 3)...))            // past NumNodes
		f.Add(mode, seg("GPLSEG03", 4, 2, 16, records(1, 2, 4, 0)...))       // at the bound
		f.Add(mode, seg("GPLSEG03", 9, 3, 16, records(1, 2, 2, 3)...))       // 8 × edges > blob
		f.Add(mode, seg("GPLSEG03", 9, 1, 12, records(1, 2, 2, 3)[:12]...))  // ragged
		f.Add(mode, seg("GPLSEG02", 3, 2, 6, 0, 1, 1, 1, 1, 2))              // the old format
		f.Add(mode, seg("GPLSEG03", 1<<40, 1<<40, 1<<43, records(1, 2)...))  // hostile header
	}
	valid := seg("GPLSEG03", 10, 3, 24, records(0, 1, 1, 0, 5, 9)...)
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		const n = 16
		var remap []graph.NodeID
		if mode&1 != 0 {
			remap = make([]graph.NodeID, n)
			for i := range remap {
				remap[i] = graph.NodeID(n - 1 - i)
			}
		}
		dir := t.TempDir()
		segDir := filepath.Join(dir, "segs")
		if err := os.Mkdir(segDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segDir, "seg-000000.seg"), valid, 0o644); err != nil {
			t.Fatal(err)
		}
		fuzzed := filepath.Join(segDir, "seg-000001.seg")
		if err := os.WriteFile(fuzzed, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 3} {
			prev := runtime.GOMAXPROCS(procs)
			outDir := filepath.Join(dir, fmt.Sprintf("out-%d", procs))
			if err := os.Mkdir(outDir, 0o755); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(outDir, "graph.v2")
			_, err := Compact(segDir, out, CompactOptions{NumNodes: n, Remap: remap})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				if !strings.Contains(err.Error(), fuzzed) {
					t.Fatalf("Compact at GOMAXPROCS %d: %v, want an error naming %s", procs, err, fuzzed)
				}
				if left, err := os.ReadDir(outDir); err != nil || len(left) != 0 {
					t.Fatalf("a failed compaction left %v (%v) beside its output", left, err)
				}
				continue
			}
			m, err := Open(out, Options{})
			if err != nil {
				t.Fatalf("Compact at GOMAXPROCS %d wrote a graph Open rejects: %v", procs, err)
			}
			m.Close()
		}
	})
}

// TestCompactSortBound pins the compaction's RAM bound where ids are
// skewed, as a degree order that puts hubs in the lowest ids makes them. Three
// hubs hold most edges, each with rows longer than bucketTarget, so
// their buckets, and then their rows, must be cut: no worker may sort
// more than bucketTarget edges plus one chunk at once, and the cut
// graph must still be WriteGraph's bytes.
func TestCompactSortBound(t *testing.T) {
	const n, hubs, hubDegree, background = 100_000, 3, 80_000, 50_000
	rng := rand.New(rand.NewPCG(4, 1))
	b := graph.NewBuilder(n, 0)
	for h := graph.NodeID(0); h < hubs; h++ {
		for _, u := range rng.Perm(n)[:hubDegree] {
			b.AddEdge(h, graph.NodeID(u))
		}
		for _, u := range rng.Perm(n)[:hubDegree] {
			b.AddEdge(graph.NodeID(u), h)
		}
	}
	for range background {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g := b.Build()
	if g.OutDegree(0) <= bucketTarget+maxChunk {
		t.Fatalf("hub row of %d edges fits one sort; the test needs a longer one", g.OutDegree(0))
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.v2")
	if err := WriteGraph(refPath, g); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(dir, "segs")
	w, err := NewWriter(segDir, 1<<15, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(graph.NodeID(u)) {
			if err := w.Add(graph.NodeID(u), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		largest int
	)
	compactSortHook = func(edges int) {
		mu.Lock()
		largest = max(largest, edges)
		mu.Unlock()
	}
	defer func() { compactSortHook = nil }()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			largest = 0
			out := filepath.Join(t.TempDir(), "graph.v2")
			if _, err := Compact(segDir, out, CompactOptions{NumNodes: n}); err != nil {
				t.Fatal(err)
			}
			if largest == 0 || largest > bucketTarget+maxChunk {
				t.Fatalf("a worker sorted %d edges at once, want 1 to %d", largest, bucketTarget+maxChunk)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the compacted skewed graph differs from WriteGraph's")
			}
		})
	}
}
