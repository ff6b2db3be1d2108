package diskcsr

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gplus/internal/graph"
)

// TestPaperScale is the acceptance run for the out-of-core pipeline at
// the paper's order of magnitude: a synthetic graph of >=10M nodes and
// >=200M edges is streamed into segments, compacted into CSR v2, and
// analyzed (degrees, WCC, triangles) over the memory-mapped file; the
// results must be byte-identical to the in-RAM path over the same
// graph. Gated behind an env var because it takes tens of minutes and
// a few GB of disk:
//
//	GPLUS_PAPERSCALE=1 go test -run TestPaperScale -timeout 120m ./internal/graph/diskcsr/
//
// GPLUS_PAPERSCALE can also be "nodes,edges" to override the scale.
// GPLUS_PAPERSCALE_DIR chooses the scratch directory (default: the
// test's temp dir). Stage timings, edge rates and the peak-RSS
// checkpoints go to the test log (-v).
func TestPaperScale(t *testing.T) {
	spec := os.Getenv("GPLUS_PAPERSCALE")
	if spec == "" {
		t.Skip("set GPLUS_PAPERSCALE=1 to run the >=10M-node/>=200M-edge acceptance test")
	}
	// The stream is over-provisioned ~0.5%: random duplicates and
	// self-loops collapse at compaction, and the *distinct* edge count
	// is what must clear the paper-scale floor of 200M.
	n, m := 10_000_000, int64(201_000_000)
	if spec != "1" {
		if _, err := fmt.Sscanf(spec, "%d,%d", &n, &m); err != nil {
			t.Fatalf("GPLUS_PAPERSCALE=%q: want 1 or nodes,edges", spec)
		}
	}
	workDir := os.Getenv("GPLUS_PAPERSCALE_DIR")
	if workDir == "" {
		workDir = t.TempDir()
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(workDir, "segs")
	os.RemoveAll(segDir) // a reused scratch dir must not leak stale segments
	v2Path := filepath.Join(workDir, "graph.v2")
	par := runtime.GOMAXPROCS(0)

	stage := func(name string, edges int64, fn func()) {
		start := time.Now()
		fn()
		el := time.Since(start)
		t.Logf("%s: %v (%.0f edges/s)", name, el.Round(time.Millisecond), float64(edges)/el.Seconds())
	}
	rssCheckpoint := func(name string) {
		if rss := vmHWMBytes(); rss > 0 {
			t.Logf("%s: peak RSS %.2f GiB", name, float64(rss)/(1<<30))
		}
	}

	// Stage 1: stream the edge list into segments, the way a
	// crawl's EdgeSink would (no in-RAM graph exists at this point).
	stage("write_segments", m, func() {
		w, err := NewWriter(segDir, 16<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(2012, 35))
		for i := int64(0); i < m; i++ {
			if err := w.Add(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	})

	var stats *CompactStats
	stage("compact", m, func() {
		var err error
		if stats, err = Compact(segDir, v2Path, CompactOptions{NumNodes: n}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compacted %d segments -> %d nodes, %d distinct edges, %d bytes",
		stats.Segments, stats.Nodes, stats.Edges, stats.Bytes)
	os.RemoveAll(segDir) // free the disk before analysis

	var mapped *Mapped
	stage("open_mmap_verified", stats.Edges, func() {
		var err error
		if mapped, err = Open(v2Path, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	defer mapped.Close()

	// Stage 3: the analysis kernels over the mapped backend. The RSS
	// checkpoint lands BEFORE anything is materialized, so it reflects
	// what out-of-core analysis actually costs in resident memory.
	var (
		outDeg, inDeg []int
		wcc           *graph.WCCResult
		tri           *graph.TriangleResult
	)
	stage("mmap_degrees", stats.Edges, func() {
		outDeg = graph.OutDegrees(mapped, par)
		inDeg = graph.InDegrees(mapped, par)
	})
	stage("mmap_wcc", stats.Edges, func() { wcc = graph.WCC(mapped, par) })
	rssCheckpoint("rss_after_mmap_core")
	stage("mmap_triangles", stats.Edges, func() { tri = graph.Triangles(mapped, graph.TriangleAuto, par) })
	rssCheckpoint("rss_after_mmap_triangles")

	// Stage 4: materialize and re-run in RAM; every result must match
	// exactly — same counts, same component labels, same triangles.
	var g *graph.Graph
	stage("materialize", stats.Edges, func() {
		var err error
		if g, err = mapped.Materialize(); err != nil {
			t.Fatal(err)
		}
	})
	stage("ram_kernels", stats.Edges, func() {
		if got := graph.OutDegrees(g, par); !reflect.DeepEqual(got, outDeg) {
			t.Fatal("out-degrees diverge between mmap and RAM")
		}
		if got := graph.InDegrees(g, par); !reflect.DeepEqual(got, inDeg) {
			t.Fatal("in-degrees diverge between mmap and RAM")
		}
		if got := graph.WCC(g, par); !reflect.DeepEqual(got, wcc) {
			t.Fatal("WCC diverges between mmap and RAM")
		}
		if got := graph.Triangles(g, graph.TriangleAuto, par); !reflect.DeepEqual(got, tri) {
			t.Fatalf("triangles diverge: mmap %+v, RAM %+v", tri, got)
		}
	})
	rssCheckpoint("rss_after_ram")
}

// vmHWMBytes reads the process's peak resident set from /proc (Linux);
// 0 on platforms without it.
func vmHWMBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
