package dataset

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/synth"
)

func TestSaveV2LoadRoundTrip(t *testing.T) {
	_, res := fixtures(t)
	d := FromCrawl(res)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.SaveV2(dir); err != nil {
		t.Fatalf("SaveV2: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{graphV2File, profilesFile}) {
		t.Fatalf("a save wrote %v, want exactly %s and %s", names, graphV2File, profilesFile)
	}

	got, err := LoadWith(dir, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got.View(), d.View()) {
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
	if _, ok := mapped.View().(*diskcsr.Mapped); !ok {
		t.Fatal("mapped load should not materialize the graph")
	}
	v := mapped.View()
	if v.NumNodes() != d.View().NumNodes() || v.NumEdges() != d.View().NumEdges() {
		t.Fatalf("mapped view %d/%d, want %d/%d",
			v.NumNodes(), v.NumEdges(), d.View().NumNodes(), d.View().NumEdges())
	}
	for u := 0; u < v.NumNodes(); u++ {
		if !reflect.DeepEqual(v.Out(graph.NodeID(u)), d.View().Out(graph.NodeID(u))) &&
			!(len(v.Out(graph.NodeID(u))) == 0 && len(d.View().Out(graph.NodeID(u))) == 0) {
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

	plainRes, err := crawlInRAM(context.Background(), base)
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
	if !reflect.DeepEqual(mat, want.View()) {
		t.Fatal("compacted graph differs from the in-RAM crawl graph")
	}

	// The directory FromCrawlSegments wrote is a complete dataset.
	reloaded, err := LoadWith(dir, Options{Mapped: true})
	if err != nil {
		t.Fatalf("reloading segment-built dataset: %v", err)
	}
	defer reloaded.Close()
	if reloaded.NumUsers() != want.NumUsers() || reloaded.View().NumEdges() != want.View().NumEdges() {
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

// recordingSink is a SegmentSink that remembers what it was handed.
type recordingSink struct {
	*SegmentSink
	mu   sync.Mutex
	seen []crawler.Edge
}

func (r *recordingSink) ObserveEdge(from, to string) error {
	r.mu.Lock()
	r.seen = append(r.seen, crawler.Edge{From: from, To: to})
	r.mu.Unlock()
	return r.SegmentSink.ObserveEdge(from, to)
}

// TestSegmentCrawlKillResumeConvergence is the robustness proof on the
// one shape gpluscrawl runs — journal plus segment sink, resumed by
// replaying the journal into a fresh sink: a crawl against a misbehaving
// service is killed mid-flight with segments already on disk, its journal
// tail is torn, and the resumed, compacted dataset must equal what a
// fault-free in-RAM crawl builds.
func TestSegmentCrawlKillResumeConvergence(t *testing.T) {
	u, ref := fixtures(t)
	want := FromCrawl(ref)
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{
		// The hang hold (300ms) deliberately exceeds the crawler's HTTP
		// timeout (150ms).
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultUnavailable, Rate: 0.08},
			{Kind: gplusd.FaultReset, Rate: 0.05},
			{Kind: gplusd.FaultHang, Rate: 0.01, Delay: 300 * time.Millisecond},
			{Kind: gplusd.FaultOutage, Every: 900 * time.Millisecond, Down: 60 * time.Millisecond},
		}},
	}))
	defer ts.Close()
	ctx := context.Background()
	tmp := t.TempDir()
	journal, segDir := filepath.Join(tmp, "crawl.journal"), filepath.Join(tmp, ".segments")
	session := func(ctx context.Context, sink crawler.EdgeSink, resume *crawler.Result) (*crawler.Result, error) {
		t.Helper()
		j, err := crawler.OpenJournal(journal, crawler.JournalOptions{FlushInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := crawler.Crawl(ctx, crawler.Config{
			BaseURL: ts.URL,
			Seeds:   []string{u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]},
			Workers: 8,
			FetchIn: true, FetchOut: true,
			AttemptTimeout:   150 * time.Millisecond,
			MaxRetries:       16,
			RetryBackoffBase: 2 * time.Millisecond,
			Journal:          j,
			EdgeSink:         sink,
			Resume:           resume,
		})
		if cerr := j.Close(); cerr != nil {
			t.Fatalf("journal: %v", cerr)
		}
		return res, err
	}

	// Session 1: a small segment buffer, killed (context cancelled) once
	// the journal shows real progress on disk.
	sink1, err := NewSegmentSink(segDir, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	go func() {
		for killCtx.Err() == nil {
			if fi, err := os.Stat(journal); err == nil && fi.Size() > 60_000 {
				kill()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	if _, err := session(killCtx, sink1, nil); err == nil {
		t.Fatal("session 1 finished before the kill; universe too small for this test")
	}
	if stale, _ := diskcsr.ListSegments(segDir); len(stale) < 2 {
		t.Fatalf("session 1 left %d segments on disk, want several", len(stale))
	}
	// The torn final line of a mid-append crash.
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	journaled, err := crawler.LoadCheckpoint(journal)
	if err != nil {
		t.Fatalf("loading torn journal: %v", err)
	}

	// Session 2, as gpluscrawl starts one: the stale segments are refused,
	// cleared, and the journal is replayed into a fresh sink.
	if _, err := NewSegmentSink(segDir, 250, nil); err == nil {
		t.Fatal("a fresh sink accepted session 1's stale segments")
	}
	if err := os.RemoveAll(segDir); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSegmentSink(segDir, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink2 := &recordingSink{SegmentSink: fresh}
	prev, err := crawler.ReplayJournal(journal, sink2)
	if err != nil {
		t.Fatalf("replaying torn journal: %v", err)
	}
	if prev.Stats.TornRecords != 1 {
		t.Errorf("torn journal reports %d torn records, want 1", prev.Stats.TornRecords)
	}
	if len(prev.Edges) != 0 {
		t.Errorf("replay materialised %d edges in RAM", len(prev.Edges))
	}
	if !reflect.DeepEqual(sink2.seen, journaled.Edges) {
		t.Errorf("sink saw %d replayed edges, journal holds %d E records (or their order differs)",
			len(sink2.seen), len(journaled.Edges))
	}
	if prev.Stats.EdgesObserved != int64(len(journaled.Edges)) {
		t.Errorf("replay counted %d edges, journal holds %d", prev.Stats.EdgesObserved, len(journaled.Edges))
	}
	if len(prev.Profiles) == 0 || len(prev.Profiles) >= len(ref.Profiles) {
		t.Fatalf("session 1 journaled %d of %d profiles; kill threshold mistuned", len(prev.Profiles), len(ref.Profiles))
	}
	res, err := session(ctx, sink2, prev)
	if err != nil {
		t.Fatalf("session 2: %v", err)
	}
	if len(res.Edges) != 0 {
		t.Errorf("resumed sink crawl accumulated %d edges in RAM", len(res.Edges))
	}
	// Resumed plus this session's observations: every one of them is an E
	// record of the journal, and every one reached the sink.
	final, err := crawler.LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(final.Edges)); res.Stats.EdgesObserved != n || int64(len(sink2.seen)) != n {
		t.Errorf("EdgesObserved = %d, sink saw %d, journal holds %d E records", res.Stats.EdgesObserved, len(sink2.seen), n)
	}

	// Convergence: the kill, the torn tail, the stale segments and every
	// injected fault must be invisible in the compacted dataset.
	got, err := FromCrawlSegments(res, fresh, filepath.Join(tmp, "ds"), nil)
	if err != nil {
		t.Fatalf("FromCrawlSegments: %v", err)
	}
	defer got.Close()
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Error("id roster diverges from the fault-free crawl")
	}
	if !reflect.DeepEqual(got.Profiles, want.Profiles) || !reflect.DeepEqual(got.Crawled, want.Crawled) {
		t.Error("profile columns diverge from the fault-free crawl")
	}
	mat, err := got.View().(*diskcsr.Mapped).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat, want.View()) {
		t.Error("compacted graph diverges from the fault-free crawl graph")
	}
}
