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

// ingestGolden holds the SHA-256 of every file the ingest path wrote
// for goldenStream at the commit before the radix edge sort replaced
// the comparison sorts: the sort, the dedup and the merge may change,
// the bytes on disk may not.
var ingestGolden = map[string]string{
	"seg-000000.seg": "0253080d730a5e3aac59c0f3619ab77dc4bb0221d38cfbea67b26276e9185446",
	"seg-000001.seg": "1b604cce79c14fb91beb801fe76b96bf110804d23ac284c5983bd443129b7d03",
	"seg-000002.seg": "b2378adc3f13922db22626abce81f4f8b8d7cf9025dedcea037d47b6b31a49e5",
	"seg-000003.seg": "a9805ec91f95a43c202608f4bf6004170bbbe4a1a46e88fbb28b4e5feca4dfff",
	"seg-000004.seg": "58578913347a88a2dd0ac6a7b667a8c6b8149a5db0586d3d75bd0daa49860557",
	"seg-000005.seg": "1035daa3e0734ef198df644414dee988ae3626c92a7a27f65ad6d6fe35cec1b9",
	"seg-000006.seg": "10ab1dcee09d3a124edba37d5d764c4bab4db260efe865ccd7422ea67a347a13",
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
// remap rewrites and the two direction merges run on as many goroutines
// as GOMAXPROCS allows, and none of that may show on disk.
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
