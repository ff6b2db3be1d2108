package dataset

import (
	"context"
	"encoding/binary"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	if d.View().NumEdges() != wantEdges {
		t.Errorf("dataset has %d edges, want %d", d.View().NumEdges(), wantEdges)
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
		if got, want := d.View().OutDegree(node), u.Graph.OutDegree(graph.NodeID(i)); got != want {
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
	if !reflect.DeepEqual(a.IDs, b.IDs) || !reflect.DeepEqual(a.View(), b.View()) {
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
	got, err := LoadWith(dir, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, d.IDs) {
		t.Error("IDs differ after round trip")
	}
	if !reflect.DeepEqual(got.Crawled, d.Crawled) {
		t.Error("Crawled flags differ after round trip")
	}
	if !reflect.DeepEqual(got.View(), d.View()) {
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
		if _, err := LoadWith(dir, Options{}); err == nil {
			t.Errorf("%s: corrupt profiles accepted", name)
		}
	}
}

// TestLoadRejectsCorruptGraph: a dataset directory whose graph.v2 is
// garbage, or that lacks one of its two files, fails to load with an
// error naming the file the loader wanted.
func TestLoadRejectsCorruptGraph(t *testing.T) {
	_, res := fixtures(t)
	for _, tc := range []struct {
		name  string
		spoil func(dir string) error
		want  string // the file the error must name
	}{
		{"garbage graph", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, graphV2File), []byte("garbage"), 0o644)
		}, graphV2File},
		{"no graph", func(dir string) error { return os.Remove(filepath.Join(dir, graphV2File)) }, graphV2File},
		// A continuation bit on the out blob's last byte: the header and
		// index stay valid and the last out-row's varint runs off its end,
		// which only a decode of the rows finds.
		{"corrupt row", func(dir string) error {
			path := filepath.Join(dir, graphV2File)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n, outBlobLen := binary.LittleEndian.Uint64(data[8:]), binary.LittleEndian.Uint64(data[24:])
			data[48+4*8*(n+1)+outBlobLen-1] |= 0x80
			return os.WriteFile(path, data, 0o644)
		}, graphV2File},
		{"no profiles", func(dir string) error { return os.Remove(filepath.Join(dir, profilesFile)) }, profilesFile},
	} {
		dir := t.TempDir()
		if err := FromCrawl(res).SaveV2(dir); err != nil {
			t.Fatal(err)
		}
		if err := tc.spoil(dir); err != nil {
			t.Fatal(err)
		}
		// The name must end at ": ": a longer name it prefixes does not pass.
		if _, err := LoadWith(dir, Options{}); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, tc.want)+": ") {
			t.Errorf("%s: Load says %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

// TestLoadWithFailuresUnderOverlap: graph.v2 decodes beside the profile
// column, and whichever finishes first, a bad graph is the error
// returned, a bad column beside a good graph is the column's error, and
// no failed load, in RAM or mapped, leaves the graph mapped.
func TestLoadWithFailuresUnderOverlap(t *testing.T) {
	_, res := fixtures(t)
	garbageGraph := func(dir string) error {
		return os.WriteFile(filepath.Join(dir, graphV2File), []byte("garbage"), 0o644)
	}
	badColumn := func(dir string) error {
		return os.WriteFile(filepath.Join(dir, profilesFile), []byte("not json at all\n"), 0o644)
	}
	for _, tc := range []struct {
		name   string
		spoil  []func(dir string) error
		prefix string // the error's stage
	}{
		{"corrupt profiles", []func(string) error{badColumn}, "dataset: reading profiles: "},
		{"no graph", []func(string) error{func(dir string) error {
			return os.Remove(filepath.Join(dir, graphV2File))
		}}, "dataset: opening v2 graph: "},
		{"corrupt graph", []func(string) error{garbageGraph}, "dataset: opening v2 graph: "},
		{"both", []func(string) error{garbageGraph, badColumn}, "dataset: opening v2 graph: "},
	} {
		for _, mapped := range []bool{false, true} {
			dir := t.TempDir()
			if err := FromCrawl(res).SaveV2(dir); err != nil {
				t.Fatal(err)
			}
			for _, spoil := range tc.spoil {
				if err := spoil(dir); err != nil {
					t.Fatal(err)
				}
			}
			d, err := LoadWith(dir, Options{Mapped: mapped})
			if d != nil || err == nil || !strings.HasPrefix(err.Error(), tc.prefix) {
				t.Errorf("%s, mapped=%v: LoadWith returned a dataset %v and error %v, want an error starting %q",
					tc.name, mapped, d != nil, err, tc.prefix)
			}
			if maps, err := os.ReadFile("/proc/self/maps"); err == nil && strings.Contains(string(maps), dir) {
				t.Errorf("%s, mapped=%v: the failed load left %s mapped", tc.name, mapped, dir)
			}
		}
	}
}

func TestSaveRejectsInvalidDataset(t *testing.T) {
	d := &Dataset{
		g:        graph.FromEdges(2, 0, 1),
		Profiles: make([]profile.Profile, 3), // mismatch
		IDs:      []string{"a", "b", "c"},
		Crawled:  make([]bool, 3),
	}
	if err := d.SaveV2(t.TempDir()); err == nil {
		t.Error("invalid dataset saved")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := LoadWith(filepath.Join(t.TempDir(), "absent"), Options{}); err == nil {
		t.Fatal("expected error for missing dataset")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	d := &Dataset{
		g:        graph.FromEdges(2, 0, 1),
		Profiles: make([]profile.Profile, 3),
		IDs:      []string{"a", "b", "c"},
		Crawled:  make([]bool, 3),
	}
	if err := d.Validate(); err == nil {
		t.Fatal("graph/user count mismatch accepted")
	}
	d2 := &Dataset{
		g:        graph.FromEdges(2, 0, 1),
		Profiles: make([]profile.Profile, 1),
		IDs:      []string{"a", "b"},
		Crawled:  make([]bool, 2),
	}
	if err := d2.Validate(); err == nil {
		t.Fatal("column length mismatch accepted")
	}
}
