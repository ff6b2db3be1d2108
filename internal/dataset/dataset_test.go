package dataset

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gplus/internal/crawler"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

var (
	dsOnce     sync.Once
	dsUniverse *synth.Universe
	dsCrawl    *crawler.Result
)

// fixtures crawls a small universe once, shared across tests.
func fixtures(t *testing.T) (*synth.Universe, *crawler.Result) {
	t.Helper()
	dsOnce.Do(func() {
		cfg := synth.DefaultConfig(1_500)
		cfg.Seed = 31
		u, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		ts := httptest.NewServer(gplusd.New(u, gplusd.Options{}))
		defer ts.Close()
		seed := u.IDs[graph.TopByInDegree(u.Graph, 1, 1)[0]]
		res, err := crawlInRAM(context.Background(), crawler.Config{
			BaseURL: ts.URL,
			Seeds:   []string{seed},
			Workers: 4,
			FetchIn: true, FetchOut: true,
		})
		if err != nil {
			panic(err)
		}
		dsUniverse, dsCrawl = u, res
	})
	return dsUniverse, dsCrawl
}

func TestFromCrawlMatchesGroundTruth(t *testing.T) {
	u, res := fixtures(t)
	d := FromCrawl(res)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// The seed's WCC covers (almost all of) the generated universe; the
	// crawled graph must reproduce its structure exactly.
	wcc := graph.WCC(u.Graph, 1)
	seedComp := wcc.Comp[graph.TopByInDegree(u.Graph, 1, 1)[0]]
	wantUsers := 0
	var wantEdges int64
	for i := 0; i < u.NumUsers(); i++ {
		if wcc.Comp[i] == seedComp {
			wantUsers++
			wantEdges += int64(u.Graph.OutDegree(graph.NodeID(i)))
		}
	}
	if d.NumUsers() != wantUsers {
		t.Errorf("dataset has %d users, want %d", d.NumUsers(), wantUsers)
	}
	if d.Graph.NumEdges() != wantEdges {
		t.Errorf("dataset has %d edges, want %d", d.Graph.NumEdges(), wantEdges)
	}
	if d.NumCrawled() != wantUsers {
		t.Errorf("crawled count %d, want %d", d.NumCrawled(), wantUsers)
	}

	// Edge-level spot check through the id mapping.
	for i := 0; i < u.NumUsers() && i < 200; i++ {
		if wcc.Comp[i] != seedComp {
			continue
		}
		node, ok := d.NodeOf(u.IDs[i])
		if !ok {
			t.Fatalf("user %s missing from dataset", u.IDs[i])
		}
		if got, want := d.Graph.OutDegree(node), u.Graph.OutDegree(graph.NodeID(i)); got != want {
			t.Fatalf("out-degree of %s = %d, want %d", u.IDs[i], got, want)
		}
		if d.Profiles[node].Public != u.Profiles[i].Public {
			t.Fatalf("profile public set mismatch for %s", u.IDs[i])
		}
	}
}

func TestFromCrawlDeterministic(t *testing.T) {
	_, res := fixtures(t)
	a, b := FromCrawl(res), FromCrawl(res)
	if !reflect.DeepEqual(a.IDs, b.IDs) || !reflect.DeepEqual(a.Graph, b.Graph) {
		t.Error("FromCrawl not deterministic")
	}
}

func TestFromUniverse(t *testing.T) {
	u, _ := fixtures(t)
	d := FromUniverse(u)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != u.NumUsers() || d.NumCrawled() != u.NumUsers() {
		t.Errorf("users=%d crawled=%d, want %d", d.NumUsers(), d.NumCrawled(), u.NumUsers())
	}
	node, ok := d.NodeOf(u.IDs[42])
	if !ok || node != 42 {
		t.Errorf("NodeOf(%q) = %d,%v", u.IDs[42], node, ok)
	}
	if _, ok := d.NodeOf("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	u, res := fixtures(t)
	_ = u
	d := FromCrawl(res)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.SaveV2(dir); err != nil {
		t.Fatalf("SaveV2: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, d.IDs) {
		t.Error("IDs differ after round trip")
	}
	if !reflect.DeepEqual(got.Crawled, d.Crawled) {
		t.Error("Crawled flags differ after round trip")
	}
	if !reflect.DeepEqual(got.Graph, d.Graph) {
		t.Error("graph differs after round trip")
	}
	if !reflect.DeepEqual(got.Profiles, d.Profiles) {
		for i := range got.Profiles {
			if !reflect.DeepEqual(got.Profiles[i], d.Profiles[i]) {
				t.Fatalf("profile %d differs:\n got %+v\nwant %+v", i, got.Profiles[i], d.Profiles[i])
			}
		}
	}
}

// goldenGz is the 64-user universe of testdata/v1 as the last build with
// a gzip profile writer saved it: graph.v2 + profiles.jsonl.gz. Nothing
// in the repo can regenerate it; it pins the reader that remains.
const goldenGz = "testdata/gz"

// copyGoldenGz copies the fixture's graph into a fresh directory and
// puts gz there as its gzip profile column.
func copyGoldenGz(t *testing.T, gz []byte) string {
	t.Helper()
	dir := t.TempDir()
	graph, err := os.ReadFile(filepath.Join(goldenGz, graphV2File))
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{graphV2File: graph, profilesGzFile: gz} {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestGzipDatasetStillLoads(t *testing.T) {
	// The same universe with a plain profiles.jsonl: the v1 golden.
	twin, err := Load("testdata/v1")
	if err != nil {
		t.Fatal(err)
	}
	same := func(d *Dataset) bool {
		return reflect.DeepEqual(d.IDs, twin.IDs) && reflect.DeepEqual(d.Profiles, twin.Profiles) &&
			reflect.DeepEqual(d.Crawled, twin.Crawled) && reflect.DeepEqual(d.Graph, twin.Graph)
	}
	got, err := Load(goldenGz)
	if err != nil {
		t.Fatalf("Load(%s): %v", goldenGz, err)
	}
	if !same(got) {
		t.Error("gzip dataset differs from its plain twin")
	}

	// The plain form is preferred when both exist: beside it, a gzip
	// column that cannot even be opened goes unread.
	dir := copyGoldenGz(t, []byte("not gzip"))
	plain, err := os.ReadFile(filepath.Join("testdata/v1", profilesFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, profilesFile), plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if both, err := Load(dir); err != nil {
		t.Errorf("plain profiles beside a corrupt gzip column: %v", err)
	} else if !same(both) {
		t.Error("plain form not preferred when both exist")
	}
}

func TestLoadRejectsCorruptGzip(t *testing.T) {
	if _, err := Load(copyGoldenGz(t, []byte("not gzip"))); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

func TestLoadRejectsCorruptProfiles(t *testing.T) {
	u, res := fixtures(t)
	_ = u
	d := FromCrawl(res)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"not json":            "not json at all\n",
		"record without id":   `{"name":"x","crawled":true}` + "\n",
		"wrong record counts": `{"id":"only-one","name":"x"}` + "\n",
	}
	for name, content := range cases {
		if err := os.WriteFile(filepath.Join(dir, "profiles.jsonl"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("%s: corrupt profiles accepted", name)
		}
	}
}

func TestLoadRejectsCorruptGraph(t *testing.T) {
	_, res := fixtures(t)
	d := FromCrawl(res)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, graphV2File), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt v2 graph accepted")
	}
	// The legacy reader rejects garbage too: with graph.v2 gone the
	// directory is a v1 dataset whose graph.bin does not parse.
	if err := os.Rename(filepath.Join(dir, graphV2File), filepath.Join(dir, graphV1File)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt v1 graph accepted")
	}
}

func TestSaveRejectsInvalidDataset(t *testing.T) {
	d := &Dataset{
		Graph:    graph.FromEdges(2, 0, 1),
		Profiles: make([]profile.Profile, 3), // mismatch
		IDs:      []string{"a", "b", "c"},
		Crawled:  make([]bool, 3),
	}
	if err := d.SaveV2(t.TempDir()); err == nil {
		t.Error("invalid dataset saved")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("expected error for missing dataset")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	d := &Dataset{
		Graph:    graph.FromEdges(2, 0, 1),
		Profiles: make([]profile.Profile, 3),
		IDs:      []string{"a", "b", "c"},
		Crawled:  make([]bool, 3),
	}
	if err := d.Validate(); err == nil {
		t.Fatal("graph/user count mismatch accepted")
	}
	d2 := &Dataset{
		Graph:    graph.FromEdges(2, 0, 1),
		Profiles: make([]profile.Profile, 1),
		IDs:      []string{"a", "b"},
		Crawled:  make([]bool, 2),
	}
	if err := d2.Validate(); err == nil {
		t.Fatal("column length mismatch accepted")
	}
}
