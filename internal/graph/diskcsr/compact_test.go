package diskcsr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
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
