package diskcsr

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gplus/internal/graph"
	"gplus/internal/synth"
)

// The storage benchmark fixture: one mid-sized graph shared by every
// BenchmarkStorage* function, plus its v2 encoding on disk.
const (
	benchNodes = 200_000
	benchEdges = 2_000_000
)

var (
	benchOnce  sync.Once
	benchGraph *graph.Graph
	benchDir   string
	benchV2    string
)

func benchSetup(b *testing.B) (*graph.Graph, string) {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewPCG(2012, 35))
		benchGraph = randomGraph(benchNodes, benchEdges, rng)
		dir, err := os.MkdirTemp("", "diskcsr-bench-*")
		if err != nil {
			panic(err)
		}
		benchDir = dir
		benchV2 = filepath.Join(dir, "graph.v2")
		if err := WriteGraph(benchV2, benchGraph); err != nil {
			panic(err)
		}
	})
	return benchGraph, benchV2
}

// TestMain tears down the shared benchmark fixture directory, which
// outlives any single benchmark on purpose.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func reportEdges(b *testing.B, edges int64) {
	b.Helper()
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkStorageWriteSegments prices the crawl-time ingest path:
// streaming edges into segment files, one 8-byte record per edge.
func BenchmarkStorageWriteSegments(b *testing.B) {
	g, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "segs")
		w, err := NewWriter(dir, 1<<18, nil)
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Out(graph.NodeID(u)) {
				if err := w.Add(graph.NodeID(u), v); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.NumEdges())
}

// BenchmarkStorageCompact prices the segment compaction into CSR v2:
// "remap" is the path every production caller takes (segments under
// provisional ids, translated through a permutation as they are read),
// "identity" the same compaction without one.
func BenchmarkStorageCompact(b *testing.B) {
	g, _ := benchSetup(b)
	perm := rand.New(rand.NewPCG(26, 2)).Perm(g.NumNodes())
	prov, remap := make([]graph.NodeID, len(perm)), make([]graph.NodeID, len(perm))
	for node, p := range perm {
		prov[node], remap[p] = graph.NodeID(p), graph.NodeID(node)
	}
	for _, mode := range []struct {
		name  string
		prov  []graph.NodeID // node → id it is written under; nil = itself
		remap []graph.NodeID
	}{{"remap", prov, remap}, {"identity", nil, nil}} {
		b.Run(mode.name, func(b *testing.B) {
			segDir := filepath.Join(b.TempDir(), "segs")
			w, err := NewWriter(segDir, 1<<18, nil)
			if err != nil {
				b.Fatal(err)
			}
			for u := 0; u < g.NumNodes(); u++ {
				for _, v := range g.Out(graph.NodeID(u)) {
					src, dst := graph.NodeID(u), v
					if mode.prov != nil {
						src, dst = mode.prov[src], mode.prov[dst]
					}
					if err := w.Add(src, dst); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := filepath.Join(b.TempDir(), "graph.v2")
				st, err := Compact(segDir, out, CompactOptions{NumNodes: g.NumNodes(), Remap: mode.remap})
				if err != nil {
					b.Fatal(err)
				}
				if st.Edges != g.NumEdges() {
					b.Fatalf("compacted %d edges, want %d", st.Edges, g.NumEdges())
				}
			}
			reportEdges(b, g.NumEdges())
		})
	}
}

// BenchmarkStorageWriteV2 prices encoding an in-RAM graph to v2.
func BenchmarkStorageWriteV2(b *testing.B) {
	g, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := WriteGraph(filepath.Join(b.TempDir(), "graph.v2"), g); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.NumEdges())
}

// BenchmarkStorageLoad compares bringing a saved graph into service:
// read into RAM versus opened as a verified mapping.
func BenchmarkStorageLoad(b *testing.B) {
	g, v2 := benchSetup(b)
	b.Run("ram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadGraph(v2); err != nil {
				b.Fatal(err)
			}
		}
		reportEdges(b, g.NumEdges())
	})
	b.Run("mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := Open(v2, Options{})
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
		reportEdges(b, g.NumEdges())
	})
}

// openBench opens the benchmark file and restarts the timer.
func openBench(b *testing.B, v2 string) *Mapped {
	b.Helper()
	m, err := Open(v2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	b.ResetTimer()
	return m
}

// BenchmarkStorageSequentialScan prices a full adjacency sweep — the
// access pattern of degree counting, WCC rounds, and triangle counting
// — over RAM, over the mapped file through View.Out (one slice per
// row), and through one cursor, the way the kernels read it.
func BenchmarkStorageSequentialScan(b *testing.B) {
	g, v2 := benchSetup(b)
	scan := func(b *testing.B, rows graph.Rows) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.NumNodes(); u++ {
				for _, w := range rows.Out(graph.NodeID(u)) {
					sum += int64(w)
				}
			}
		}
		if sum == 1 {
			b.Log(sum) // defeat dead-code elimination
		}
		reportEdges(b, g.NumEdges())
	}
	b.Run("ram", func(b *testing.B) { scan(b, g) })
	b.Run("mmap", func(b *testing.B) { scan(b, openBench(b, v2)) })
	b.Run("mmap-cursor", func(b *testing.B) { scan(b, openBench(b, v2).Rows()) })
}

// BenchmarkStorageRandomOut prices random row access — the pattern of
// sampled analyses (clustering samples, BFS sources, HasArc probes) —
// over the same three forms.
func BenchmarkStorageRandomOut(b *testing.B) {
	g, v2 := benchSetup(b)
	const probes = 1_000_000
	random := func(b *testing.B, rows graph.Rows) {
		rng := rand.New(rand.NewPCG(7, 8))
		var sum int64
		for i := 0; i < b.N; i++ {
			for p := 0; p < probes; p++ {
				row := rows.Out(graph.NodeID(rng.IntN(g.NumNodes())))
				if len(row) > 0 {
					sum += int64(row[0])
				}
			}
		}
		if sum == 1 {
			b.Log(sum)
		}
		b.ReportMetric(float64(probes)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("ram", func(b *testing.B) { random(b, g) })
	b.Run("mmap", func(b *testing.B) { random(b, openBench(b, v2)) })
	b.Run("mmap-cursor", func(b *testing.B) { random(b, openBench(b, v2).Rows()) })
}

// BenchmarkTriads prices the closed-triple enumeration behind Figure
// 4(b), the triangle count and the triad census on the study-sized
// graph (synth.DefaultConfig(18_750), seed 2011), over RAM and the
// mapped file, at P = 1 and 2.
func BenchmarkTriads(b *testing.B) {
	cfg := synth.DefaultConfig(18_750)
	cfg.Seed = 2011
	u, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	views := []struct {
		name string
		v    graph.View
	}{{"ram", u.Graph}, {"mapped", mustOpen(b, b.TempDir(), u.Graph)}}
	for _, view := range views {
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/P=%d", view.name, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.Triads(context.Background(), view.v, par); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
