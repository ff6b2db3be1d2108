package crawler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/obs"
	"gplus/internal/profile"
)

// buildGraph replicates dataset.FromCrawl's graph construction without
// importing dataset (which would create an import cycle in tests):
// sorted-id dense nodes, deduplicated edges.
func buildGraph(res *Result) (*graph.Graph, []string) {
	ids := make([]string, 0, len(res.Discovered))
	for id := range res.Discovered {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	index := make(map[string]graph.NodeID, len(ids))
	for i, id := range ids {
		index[id] = graph.NodeID(i)
	}
	b := graph.NewBuilder(len(ids), len(res.Edges))
	for _, e := range res.Edges {
		b.AddEdge(index[e.From], index[e.To])
	}
	if len(ids) > 0 {
		b.EnsureNode(graph.NodeID(len(ids) - 1))
	}
	return b.Build(), ids
}

// loadResult is LoadCheckpoint over a stream: readResult into the
// edgeList sink LoadCheckpoint collects Result.Edges with.
func loadResult(r io.Reader) (*Result, error) {
	var edges edgeList
	res, err := readResult(r, &edges)
	if err != nil {
		return nil, err
	}
	res.Edges = edges
	return res, nil
}

func TestCheckpointRoundTrip(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL:     url,
		Seeds:       []string{seedID(u)},
		Workers:     4,
		MaxProfiles: 200,
		FetchIn:     true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	got, err := loadResult(&buf)
	if err != nil {
		t.Fatalf("ReadResult: %v", err)
	}
	if !reflect.DeepEqual(got.Profiles, res.Profiles) {
		t.Error("profiles differ after round trip")
	}
	if !reflect.DeepEqual(got.Discovered, res.Discovered) {
		t.Error("discovered sets differ after round trip")
	}
	// Edge multiset must survive (order may differ).
	sortEdges := func(es []Edge) []Edge {
		cp := append([]Edge(nil), es...)
		sort.Slice(cp, func(i, j int) bool {
			if cp[i].From != cp[j].From {
				return cp[i].From < cp[j].From
			}
			return cp[i].To < cp[j].To
		})
		return cp
	}
	if !reflect.DeepEqual(sortEdges(got.Edges), sortEdges(res.Edges)) {
		t.Error("edges differ after round trip")
	}
	if got.Stats.ProfilesCrawled != res.Stats.ProfilesCrawled {
		t.Errorf("stats crawled %d != %d", got.Stats.ProfilesCrawled, res.Stats.ProfilesCrawled)
	}
}

// saveCheckpoint writes res to path as a checkpoint file.
func saveCheckpoint(t *testing.T, path string, res *Result) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteResult(f, res); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
}

func TestCheckpointFileAtomic(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 2,
		MaxProfiles: 50, FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	saveCheckpoint(t, path, res)
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if len(got.Profiles) != len(res.Profiles) || len(got.Discovered) != len(res.Discovered) {
		t.Errorf("checkpoint loss: %d/%d profiles, %d/%d discovered",
			len(got.Profiles), len(res.Profiles), len(got.Discovered), len(res.Discovered))
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

func TestReadResultRejectsGarbage(t *testing.T) {
	cases := []string{
		"X what\n",
		"P notjson\n",
		"E onlyone\n",
		"D \n",
		"P {\"name\":\"no id\"}\n",
		"Z\n",
	}
	for _, c := range cases {
		if _, err := loadResult(bytes.NewBufferString(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
	// Empty stream is a valid empty crawl.
	res, err := loadResult(bytes.NewBuffer(nil))
	if err != nil || len(res.Discovered) != 0 {
		t.Errorf("empty stream: %v, %+v", err, res)
	}
}

func TestReadResultTornTail(t *testing.T) {
	// A final line with no trailing newline is a mid-append crash: it is
	// dropped — never parsed — and counted, and everything before it
	// survives.
	cases := []struct {
		name  string
		input string
		ids   []string
		torn  int
	}{
		{"torn id", "D aa\nD bb\nD cc", []string{"aa", "bb"}, 1},
		{"torn but parseable prefix", "D aa\nD b", []string{"aa"}, 1},
		// "D ab" could be a truncated "D abc123": even a prefix that
		// would parse must not enter the result.
		{"torn single record", "D ab", nil, 1},
		{"torn garbage", "D aa\nX junk-without-newline", []string{"aa"}, 1},
		{"clean eof", "D aa\nD bb\n", []string{"aa", "bb"}, 0},
		{"empty", "", nil, 0},
	}
	for _, c := range cases {
		res, err := loadResult(bytes.NewBufferString(c.input))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.Stats.TornRecords != c.torn {
			t.Errorf("%s: TornRecords = %d, want %d", c.name, res.Stats.TornRecords, c.torn)
		}
		if len(res.Discovered) != len(c.ids) {
			t.Errorf("%s: discovered %v, want %v", c.name, res.Discovered, c.ids)
		}
		for _, id := range c.ids {
			if !res.Discovered[id] {
				t.Errorf("%s: lost intact record %q", c.name, id)
			}
		}
	}
	// A malformed line that IS newline-terminated was written whole:
	// that is corruption, not a torn append, and still fails the load.
	if _, err := loadResult(bytes.NewBufferString("D aa\nX junk\nD bb\n")); err == nil {
		t.Error("terminated malformed line accepted as torn")
	}
}

// TestCheckpointResumeCycleStability drives two full save -> load ->
// resume cycles and checks the invariants a long crawl's operator relies
// on: the edge list does not grow duplicates across cycles, and the
// session/resumed profile split always sums to the merged total.
func TestCheckpointResumeCycleStability(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	ctx := context.Background()
	dir := t.TempDir()

	reference, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	cycle := func(i int, prev *Result, budget int) *Result {
		t.Helper()
		var resume *Result
		if prev != nil {
			path := filepath.Join(dir, fmt.Sprintf("cycle-%d.ckpt", i))
			saveCheckpoint(t, path, prev)
			if resume, err = LoadCheckpoint(path); err != nil {
				t.Fatal(err)
			}
		}
		res, err := crawlInRAM(ctx, Config{
			BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
			MaxProfiles: budget, FetchIn: true, FetchOut: true,
			Resume: resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resume != nil {
			if res.Stats.ProfilesResumed != len(resume.Profiles) {
				t.Errorf("cycle %d: ProfilesResumed = %d, want %d",
					i, res.Stats.ProfilesResumed, len(resume.Profiles))
			}
		}
		if got := res.Stats.ProfilesCrawled + res.Stats.ProfilesResumed; got != len(res.Profiles) {
			t.Errorf("cycle %d: session %d + resumed %d != merged %d",
				i, res.Stats.ProfilesCrawled, res.Stats.ProfilesResumed, len(res.Profiles))
		}
		return res
	}

	first := cycle(1, nil, 150)
	second := cycle(2, first, 150)
	final := cycle(3, second, 0)

	if len(final.Profiles) != len(reference.Profiles) {
		t.Errorf("three-session crawl got %d profiles, reference %d",
			len(final.Profiles), len(reference.Profiles))
	}
	// Every circle page is fetched exactly once across the sessions, so
	// the concatenated edge observations must not outgrow the reference's.
	if len(final.Edges) != len(reference.Edges) {
		t.Errorf("edge observations grew across resume cycles: %d, reference %d",
			len(final.Edges), len(reference.Edges))
	}
	gFinal, idsFinal := buildGraph(final)
	gRef, idsRef := buildGraph(reference)
	if !reflect.DeepEqual(idsFinal, idsRef) || !reflect.DeepEqual(gFinal, gRef) {
		t.Error("three-session graph differs from single-session graph")
	}

	// A further degenerate cycle (resuming a complete crawl) must be a
	// no-op for the edge list, not another chance to duplicate it.
	again := cycle(4, final, 0)
	if len(again.Edges) != len(final.Edges) {
		t.Errorf("degenerate resume grew edges: %d -> %d", len(final.Edges), len(again.Edges))
	}
}

func TestResumeCompletesCrawl(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	ctx := context.Background()

	// Session 1: budget-limited.
	first, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		MaxProfiles: 400, FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Discovered <= first.Stats.ProfilesCrawled {
		t.Fatal("first session left no frontier; test needs a bigger universe")
	}

	// Round-trip through a checkpoint, as a real resume would.
	var buf bytes.Buffer
	if err := WriteResult(&buf, first); err != nil {
		t.Fatal(err)
	}
	restored, err := loadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Session 2: resume with no budget — crawl everything left.
	second, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
		Resume: restored,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh unbudgeted crawl is the reference.
	reference, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(second.Profiles) != len(reference.Profiles) {
		t.Errorf("resumed crawl has %d profiles, reference %d",
			len(second.Profiles), len(reference.Profiles))
	}
	if len(second.Discovered) != len(reference.Discovered) {
		t.Errorf("resumed crawl discovered %d, reference %d",
			len(second.Discovered), len(reference.Discovered))
	}
	// The resulting graphs must be identical.
	gResumed, idsResumed := buildGraph(second)
	gRef, idsRef := buildGraph(reference)
	if !reflect.DeepEqual(gResumed, gRef) {
		t.Error("resumed graph differs from single-session graph")
	}
	if !reflect.DeepEqual(idsResumed, idsRef) {
		t.Error("resumed id space differs from single-session id space")
	}
}

func TestResumeDoesNotRefetch(t *testing.T) {
	u := crawlUniverse(t)
	reg := obs.NewRegistry()
	served := reg.Counter("gplusd_requests_total", obs.Label{Key: obs.KeyEndpoint, Value: obs.EndpointProfile})
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{Metrics: reg}))
	t.Cleanup(ts.Close)
	url := ts.URL
	ctx := context.Background()

	first, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		MaxProfiles: 300, FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	profilesBefore := served.Value()

	if _, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		MaxProfiles: 100, FetchIn: true, FetchOut: true,
		Resume: first,
	}); err != nil {
		t.Fatal(err)
	}
	fetched := served.Value() - profilesBefore
	if fetched > 100 {
		t.Errorf("resume refetched: %d profile requests for a 100-profile budget", fetched)
	}
	if fetched == 0 {
		t.Error("resume fetched nothing")
	}
}

func TestResumeStatsCountSessionOnly(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	ctx := context.Background()

	first, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		MaxProfiles: 300, FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ProfilesResumed != 0 {
		t.Errorf("fresh crawl reports %d resumed profiles", first.Stats.ProfilesResumed)
	}

	second, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		MaxProfiles: 100, FetchIn: true, FetchOut: true,
		Resume: first,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ProfilesCrawled audits the session against MaxProfiles; the prior
	// session's haul is reported separately.
	if second.Stats.ProfilesCrawled > 100 || second.Stats.ProfilesCrawled == 0 {
		t.Errorf("session crawled %d, want within (0, 100]", second.Stats.ProfilesCrawled)
	}
	if second.Stats.ProfilesResumed != len(first.Profiles) {
		t.Errorf("ProfilesResumed = %d, want %d", second.Stats.ProfilesResumed, len(first.Profiles))
	}
	if got := second.Stats.ProfilesCrawled + second.Stats.ProfilesResumed; got != len(second.Profiles) {
		t.Errorf("session %d + resumed %d != merged %d profiles",
			second.Stats.ProfilesCrawled, second.Stats.ProfilesResumed, len(second.Profiles))
	}
}

// TestResumeHandBuiltProfilesImplicitlyDiscovered resumes from a Result
// whose Profiles never made it into Discovered — the shape a hand-built
// or merged checkpoint can take, which used to panic on a negative
// frontier capacity before Crawl even started.
func TestResumeHandBuiltProfilesImplicitlyDiscovered(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	prev := &Result{
		Profiles: map[string]profile.Profile{
			seedID(u): {}, "ghost-1": {}, "ghost-2": {},
		},
		Discovered: map[string]bool{},
	}
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 2,
		MaxProfiles: 20, FetchIn: true, FetchOut: true,
		Resume: prev,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The seed counts as already crawled, so the session fetches nothing
	// — but it completes cleanly and carries the resumed profiles.
	if res.Stats.ProfilesCrawled != 0 {
		t.Errorf("session crawled %d, want 0 (seed already in Profiles)", res.Stats.ProfilesCrawled)
	}
	if res.Stats.ProfilesResumed != 3 || len(res.Profiles) != 3 {
		t.Errorf("stats = %+v with %d profiles, want 3 resumed", res.Stats, len(res.Profiles))
	}
}

func TestResumeValidation(t *testing.T) {
	_, err := Crawl(context.Background(), Config{
		BaseURL: "http://x", Seeds: []string{"a"},
		FetchIn: true, FetchOut: true,
		Resume:   &Result{}, // missing maps
		EdgeSink: &edgeLog{},
	})
	if err == nil {
		t.Error("resume with nil maps accepted")
	}
}

// TestReplayJournalStreamsEdges: the sink form of the load hands over
// every E record in file order and keeps none; a sink that fails stops
// the load instead of resuming over a hole. LoadCheckpoint, the in-RAM
// form, returns the same records, in the same order, in Result.Edges.
func TestReplayJournalStreamsEdges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	saveCheckpoint(t, path, &Result{
		Discovered: map[string]bool{"a": true, "b": true, "c": true},
		Edges:      []Edge{{"a", "b"}, {"c", "a"}, {"a", "b"}},
	})
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{"a", "b"}, {"c", "a"}, {"a", "b"}}; !reflect.DeepEqual(loaded.Edges, want) {
		t.Errorf("LoadCheckpoint returned edges %v, want %v", loaded.Edges, want)
	}
	var seen []Edge
	res, err := ReplayJournal(path, sinkFunc(func(from, to string) error {
		seen = append(seen, Edge{from, to})
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{"a", "b"}, {"c", "a"}, {"a", "b"}}; !reflect.DeepEqual(seen, want) {
		t.Errorf("sink saw %v, want %v", seen, want)
	}
	if len(res.Edges) != 0 || res.Stats.EdgesObserved != 3 || len(res.Discovered) != 3 {
		t.Errorf("replayed result holds %d edges, counts %d, %d discovered; want 0, 3, 3",
			len(res.Edges), res.Stats.EdgesObserved, len(res.Discovered))
	}
	boom := errors.New("disk full")
	if _, err := ReplayJournal(path, sinkFunc(func(string, string) error { return boom })); !errors.Is(err, boom) {
		t.Errorf("failing sink: err = %v, want it to wrap %v", err, boom)
	}
}

type sinkFunc func(from, to string) error

func (f sinkFunc) ObserveEdge(from, to string) error { return f(from, to) }

func TestGraphFromPartialPlusResumeEqualsWhole(t *testing.T) {
	// Degenerate resume: resuming a *complete* crawl fetches nothing and
	// returns the same result.
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	ctx := context.Background()
	full, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := crawlInRAM(ctx, Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
		Resume: full,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Profiles) != len(full.Profiles) {
		t.Errorf("degenerate resume changed profile count: %d vs %d",
			len(again.Profiles), len(full.Profiles))
	}
	ga, _ := buildGraph(again)
	gb, _ := buildGraph(full)
	if !reflect.DeepEqual(ga, gb) {
		t.Error("degenerate resume changed the graph")
	}
}
