package diskcsr

import (
	"bufio"
	"encoding/json"
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
// test's temp dir). When GPLUS_BENCH_OUT names a benchjson baseline
// file, the stage timings and the peak-RSS checkpoints are merged into
// it as PaperScale/* rows.
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

	var rows []benchRow
	stage := func(name string, edges int64, fn func()) {
		start := time.Now()
		fn()
		el := time.Since(start)
		met := map[string]float64{"ns/op": float64(el.Nanoseconds())}
		if edges > 0 {
			met["edges/s"] = float64(edges) / el.Seconds()
		}
		rows = append(rows, benchRow{Name: "PaperScale/" + name, Iters: 1, Metrics: met})
		t.Logf("%s: %v", name, el.Round(time.Millisecond))
	}
	rssRow := func(name string) {
		if rss := vmHWMBytes(); rss > 0 {
			rows = append(rows, benchRow{Name: "PaperScale/" + name, Iters: 1,
				Metrics: map[string]float64{"peak_rss_bytes": float64(rss)}})
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
	if fi, err := os.Stat(v2Path); err == nil {
		rows = append(rows, benchRow{Name: "PaperScale/v2_file", Iters: 1,
			Metrics: map[string]float64{"file_bytes": float64(fi.Size())}})
	}

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
	rssRow("rss_after_mmap_core")
	stage("mmap_triangles", stats.Edges, func() { tri = graph.Triangles(mapped, graph.TriangleAuto, par) })
	rssRow("rss_after_mmap_triangles")

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
	rssRow("rss_after_ram")

	if out := os.Getenv("GPLUS_BENCH_OUT"); out != "" {
		if err := mergeBenchRows(out, rows); err != nil {
			t.Errorf("writing %s: %v", out, err)
		} else {
			t.Logf("merged %d PaperScale rows -> %s", len(rows), out)
		}
	}
}

// benchRow matches cmd/benchjson's output schema so paperscale rows can
// live in the same baseline file as `go test -bench` results.
type benchRow struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"`
}

// mergeBenchRows replaces any previous PaperScale/* rows in path with
// rows, preserving whatever else the baseline holds.
func mergeBenchRows(path string, rows []benchRow) error {
	var all []benchRow
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("existing baseline unparseable: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	kept := all[:0]
	for _, r := range all {
		if !strings.HasPrefix(r.Name, "PaperScale/") {
			kept = append(kept, r)
		}
	}
	out, err := json.MarshalIndent(append(kept, rows...), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
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
