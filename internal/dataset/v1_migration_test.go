package dataset_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gplus/internal/core"
	"gplus/internal/dataset"
)

// goldenV1 is a 64-user dataset in the legacy layout (v1 graph.bin +
// profiles.jsonl), written once by the last commit whose Dataset.Save
// still produced GPLGRPH1. Nothing in the repo can regenerate it, which
// is the point: it pins the migration reader against bytes no current
// writer influences.
const goldenV1 = "testdata/v1"

func copyGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"graph.bin", "profiles.jsonl"} {
		raw, err := os.ReadFile(filepath.Join(goldenV1, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestV1DatasetStillLoads(t *testing.T) {
	d, err := dataset.Load(goldenV1)
	if err != nil {
		t.Fatalf("Load(v1): %v", err)
	}
	if d.NumUsers() != 64 || d.NumCrawled() != 64 || d.Graph.NumEdges() != 819 {
		t.Fatalf("v1 golden loaded as %d users, %d crawled, %d edges; want 64, 64, 819",
			d.NumUsers(), d.NumCrawled(), d.Graph.NumEdges())
	}

	// Mapped needs a v2 file; a v1-only directory falls back to RAM —
	// the case gplusanalyze -mmap warns about.
	m, err := dataset.LoadWith(goldenV1, dataset.Options{Mapped: true})
	if err != nil {
		t.Fatalf("LoadWith(v1, Mapped): %v", err)
	}
	defer m.Close()
	if m.Graph == nil {
		t.Fatal("mapped load of a v1-only directory did not fall back to an in-RAM graph")
	}
	if !reflect.DeepEqual(m.Graph, d.Graph) {
		t.Fatal("mapped-fallback graph differs from the plain v1 load")
	}
}

// TestV1MigratesToV2 re-saves the legacy dataset: the v2 form must carry
// the same graph and profile columns, produce the same study results
// (over RAM and over the mapping), and the save must leave the v1 file
// it did not write untouched.
func TestV1MigratesToV2(t *testing.T) {
	dir := copyGolden(t)
	v1, err := dataset.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.SaveV2(dir); err != nil {
		t.Fatalf("SaveV2 over a v1 directory: %v", err)
	}

	want, err := os.ReadFile(filepath.Join(goldenV1, "graph.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "graph.bin")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("SaveV2 disturbed the v1 graph.bin it did not write (err=%v)", err)
	}

	v2, err := dataset.Load(dir)
	if err != nil {
		t.Fatalf("Load after migration: %v", err)
	}
	if !reflect.DeepEqual(v2.Graph, v1.Graph) {
		t.Error("graph differs after v1 -> v2 migration")
	}
	if !reflect.DeepEqual(v2.IDs, v1.IDs) || !reflect.DeepEqual(v2.Profiles, v1.Profiles) || !reflect.DeepEqual(v2.Crawled, v1.Crawled) {
		t.Error("profile columns differ after v1 -> v2 migration")
	}
	mapped, err := dataset.LoadWith(dir, dataset.Options{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.Graph != nil {
		t.Fatal("migrated dataset did not open memory-mapped")
	}

	structure := func(d *dataset.Dataset) *core.StructureResult {
		res, err := core.New(d, core.Options{}).Structure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := structure(v1)
	if got := structure(v2); !reflect.DeepEqual(got, base) {
		t.Error("study structure results differ between the v1 load and its v2 re-save")
	}
	if got := structure(mapped); !reflect.DeepEqual(got, base) {
		t.Error("study structure results differ between the v1 load and its mapped v2 re-save")
	}
}
