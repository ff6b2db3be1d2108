package diskcsr

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gplus/internal/graph"
)

// ingestGolden holds the SHA-256 of every file the ingest path writes
// for goldenStream. The graph.v2 hash dates from before the radix edge
// sort replaced the comparison sorts, and it has held since through the
// sort, the dedup and the compaction being rewritten: how the graph is
// built may change, its bytes may not. The seg-*.seg hashes were
// re-recorded when segments became raw edge logs (magic GPLSEG03): one
// 8-byte record per Add, in Add order, the stream's duplicates and
// self-loops included, where GPLSEG02 held sorted, deduplicated forward
// runs. The segment format is private to Writer and Compact and may
// change with them, but a change to it must show here.
var ingestGolden = map[string]string{
	"seg-000000.seg": "c01a546c2db936850ff4a0807315f745411698d2327d349ea96ba14446358fca",
	"seg-000001.seg": "b9247564d2071e66ca114e919e6abd04aac706ec83525e0d3c4faa92e320659d",
	"seg-000002.seg": "134c81c1dd2e76991ba0ec2c5d18195bfe0f872607461e8ccb2bea79a2ad8348",
	"seg-000003.seg": "f5461f2d343d6e9d2271ced1762c5df6ae1ff62d36163cf899d9dca84af0df46",
	"seg-000004.seg": "10b253a178c3f6b8a1194ba99ab3dccc810007860921ee4b9dfa0b4f7ea25749",
	"seg-000005.seg": "550ccb4894d53008cf37895859a5c5745df254bb17037f50bda7acc2a22847b4",
	"seg-000006.seg": "50e9e672e99bdb6319e3e82f2867d60f2cdc64d4c017746e595de9c56d7f6fe8",
	"graph.v2":       "1f35d84ab74a1c9be48aa9de05edde9a7b048dfaa3b2673ac4117d4b492e57e5",
}

// goldenStream feeds w a seeded stream with duplicates and self-loops
// over ids wide enough for two radix passes, and returns the
// permutation Compact remaps it through.
func goldenStream(t *testing.T, w *Writer) (n int, remap []graph.NodeID) {
	t.Helper()
	n = 5000
	rng := rand.New(rand.NewPCG(26, 2012))
	remap = make([]graph.NodeID, n)
	for i, p := range rng.Perm(n) {
		remap[i] = graph.NodeID(p)
	}
	add := func(u, v graph.NodeID) {
		if err := w.Add(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20_000; i++ {
		u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
		add(u, v)
		switch i % 7 {
		case 0:
			add(u, v) // duplicate inside a segment
		case 1:
			add(v, v) // self-loop
		case 2:
			add(graph.NodeID(i%50), graph.NodeID(n-1-i%50)) // duplicate across segments
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return n, remap
}

// TestIngestBytesGolden holds the bytes at every parallelism: flushes,
// the compaction's scatter and its bucket encoding run on as many
// goroutines as GOMAXPROCS allows, and none of that may show on disk.
func TestIngestBytesGolden(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := t.TempDir()
			segDir := filepath.Join(dir, "segs")
			w, err := NewWriter(segDir, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			n, remap := goldenStream(t, w)
			out := filepath.Join(dir, "graph.v2")
			if _, err := Compact(segDir, out, CompactOptions{NumNodes: n, Remap: remap}); err != nil {
				t.Fatal(err)
			}
			files, err := ListSegments(segDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) < 3 {
				t.Fatalf("golden stream made %d segments, want at least 3", len(files))
			}
			files = append(files, out)
			if len(files) != len(ingestGolden) {
				t.Errorf("ingest wrote %d files, golden has %d", len(files), len(ingestGolden))
			}
			for _, path := range files {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got, want := hex.EncodeToString(sum[:]), ingestGolden[filepath.Base(path)]; got != want {
					t.Errorf("%s: sha256 %s, golden %s", filepath.Base(path), got, want)
				}
			}
		})
	}
}
