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
// re-recorded when segments dropped their reverse (dst,src) copy and
// became forward runs only (magic GPLSEG02): the segment format is
// private to Writer and Compact and may change with them, but a change
// to it must show here.
var ingestGolden = map[string]string{
	"seg-000000.seg": "079b16343c15761421605680a3fddc78ef0f343b1a6a2d38c36bfc9ab7fc3015",
	"seg-000001.seg": "0688f9095aa05a4b23c7ba56845aa91b4d49002018aad5e5760d80cda9f195bf",
	"seg-000002.seg": "9b7b201bcee59a03da293bdd9860c83565da1749070290283c400da352e5fb61",
	"seg-000003.seg": "f6050d7b8e771372a609b3eb55eb9b60887029ea3370f3ae78da74d56a00b9f5",
	"seg-000004.seg": "fea304b04abc2ff4c725ce8a3cd07c2c153225d8f37d13311748ad4172b2ff29",
	"seg-000005.seg": "d7e6312c185886652e3665c82c200ee8b168e04f3bae7b352d2915c6d4a0271a",
	"seg-000006.seg": "32a2d4373b8e404fff21f3e28dc849d7bf3ca10dec4eeb39605efa26d3edf5e3",
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
