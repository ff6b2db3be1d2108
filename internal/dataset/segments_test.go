package dataset

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gplus/internal/crawler"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/synth"
)

func TestSaveV2LoadRoundTrip(t *testing.T) {
	_, res := fixtures(t)
	d := FromCrawl(res)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.SaveV2(dir); err != nil {
		t.Fatalf("SaveV2: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, graphV2File)); err != nil {
		t.Fatalf("graph.v2 missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, graphV1File)); !os.IsNotExist(err) {
		t.Fatal("a save wrote a v1 graph.bin")
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got.Graph, d.Graph) {
		t.Error("graph differs after v2 round trip")
	}
	if !reflect.DeepEqual(got.IDs, d.IDs) || !reflect.DeepEqual(got.Profiles, d.Profiles) {
		t.Error("profile columns differ after v2 round trip")
	}

	mapped, err := LoadWith(dir, Options{Mapped: true})
	if err != nil {
		t.Fatalf("LoadWith(Mapped): %v", err)
	}
	defer mapped.Close()
	if mapped.Graph != nil {
		t.Fatal("mapped load should not materialize the graph")
	}
	v := mapped.View()
	if v.NumNodes() != d.Graph.NumNodes() || v.NumEdges() != d.Graph.NumEdges() {
		t.Fatalf("mapped view %d/%d, want %d/%d",
			v.NumNodes(), v.NumEdges(), d.Graph.NumNodes(), d.Graph.NumEdges())
	}
	for u := 0; u < v.NumNodes(); u++ {
		if !reflect.DeepEqual(v.Out(graph.NodeID(u)), d.Graph.Out(graph.NodeID(u))) &&
			!(len(v.Out(graph.NodeID(u))) == 0 && len(d.Graph.Out(graph.NodeID(u))) == 0) {
			t.Fatalf("node %d: mapped out row differs", u)
		}
	}
}

// TestSegmentCrawlMatchesFromCrawl is the out-of-core crawl's
// end-to-end contract: streaming edges through a SegmentSink during a
// live crawl and compacting must yield the exact dataset the in-RAM
// FromCrawl path builds from the same service.
func TestSegmentCrawlMatchesFromCrawl(t *testing.T) {
	cfg := synth.DefaultConfig(800)
	cfg.Seed = 47
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{}))
	defer ts.Close()
	seed := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	base := crawler.Config{
		BaseURL: ts.URL,
		Seeds:   []string{seed},
		Workers: 4,
		FetchIn: true, FetchOut: true,
	}

	plainRes, err := crawler.Crawl(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := FromCrawl(plainRes)

	segDir := filepath.Join(t.TempDir(), "segs")
	sink, err := NewSegmentSink(segDir, 1000, nil) // small buffer: several segments
	if err != nil {
		t.Fatal(err)
	}
	sinkCfg := base
	sinkCfg.EdgeSink = sink
	sinkRes, err := crawler.Crawl(context.Background(), sinkCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinkRes.Edges) != 0 {
		t.Fatalf("sink crawl accumulated %d edges in RAM", len(sinkRes.Edges))
	}
	if sinkRes.Stats.EdgesObserved != plainRes.Stats.EdgesObserved {
		t.Fatalf("sink crawl observed %d edges, plain crawl %d",
			sinkRes.Stats.EdgesObserved, plainRes.Stats.EdgesObserved)
	}

	dir := filepath.Join(t.TempDir(), "ds")
	got, err := FromCrawlSegments(sinkRes, sink, dir, nil)
	if err != nil {
		t.Fatalf("FromCrawlSegments: %v", err)
	}
	defer got.Close()
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatal("id roster differs between sink and in-RAM paths")
	}
	if !reflect.DeepEqual(got.Profiles, want.Profiles) || !reflect.DeepEqual(got.Crawled, want.Crawled) {
		t.Fatal("profile columns differ between sink and in-RAM paths")
	}
	mat, err := got.View().(interface {
		Materialize() (*graph.Graph, error)
	}).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat, want.Graph) {
		t.Fatal("compacted graph differs from the in-RAM crawl graph")
	}

	// The directory FromCrawlSegments wrote is a complete dataset.
	reloaded, err := LoadWith(dir, Options{Mapped: true})
	if err != nil {
		t.Fatalf("reloading segment-built dataset: %v", err)
	}
	defer reloaded.Close()
	if reloaded.NumUsers() != want.NumUsers() || reloaded.View().NumEdges() != want.Graph.NumEdges() {
		t.Fatal("reloaded dataset lost users or edges")
	}
}

func TestSegmentSinkRefusesNonEmptyDir(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSegmentSink(dir, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.ObserveEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := sink.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSegmentSink(dir, 10, nil); err == nil {
		t.Fatal("sink accepted a dir with stale segments (their interning table is gone)")
	}
}
