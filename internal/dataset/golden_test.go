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
	"gplus/internal/gplusapi"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/profile"
)

// golden is a 64-user dataset in the current layout (graph.v2 +
// profiles.jsonl), written once by an earlier build. Nothing in the repo
// regenerates it, which is the point: it pins both readers against bytes
// no current writer influences, and the writers against reproducing
// them.
const golden = "testdata/golden"

// TestGoldenDatasetRoundTrips loads the golden dataset in RAM and
// mapped, requires the same study structure results from both, and
// re-saves each: the files written must be the golden bytes.
func TestGoldenDatasetRoundTrips(t *testing.T) {
	ram, err := dataset.LoadWith(golden, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ram.NumUsers() != 64 || ram.NumCrawled() != 64 || ram.View().NumEdges() != 819 {
		t.Fatalf("golden loaded as %d users, %d crawled, %d edges; want 64, 64, 819",
			ram.NumUsers(), ram.NumCrawled(), ram.View().NumEdges())
	}
	mapped, err := dataset.LoadWith(golden, dataset.Options{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if _, ok := mapped.View().(*diskcsr.Mapped); !ok {
		t.Fatal("golden dataset did not open memory-mapped")
	}

	structure := func(d *dataset.Dataset) *core.StructureResult {
		res, err := core.New(d, core.Options{}).Structure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(structure(mapped), structure(ram)) {
		t.Error("study structure results differ between the RAM and the mapped load")
	}

	for backend, d := range map[string]*dataset.Dataset{"RAM": ram, "mapped": mapped} {
		dir := t.TempDir()
		if err := d.SaveV2(dir); err != nil {
			t.Fatalf("SaveV2 of the %s load: %v", backend, err)
		}
		for _, name := range []string{"graph.v2", "profiles.jsonl"} {
			want, err := os.ReadFile(filepath.Join(golden, name))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s re-saved from the %s load differs from the golden file (err=%v)", name, backend, err)
			}
		}
	}

	// The fixed point line by line, as the crawl journal renders a
	// profile: decoded to the model and encoded from it, with the
	// crawled member kept.
	raw, err := os.ReadFile(filepath.Join(golden, "profiles.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var (
			id      string
			p       profile.Profile
			crawled []byte
		)
		err := gplusapi.DecodeProfile(line, &id, &p, func(key, value []byte) error {
			crawled = append([]byte(`,"`+string(key)+`":`), value...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		again, err := gplusapi.AppendProfile(nil, id, &p)
		if err != nil || !bytes.Equal(append(append(again[:len(again)-1], crawled...), '}'), line) {
			t.Fatalf("%s re-renders as %s (%v)", line, again, err)
		}
	}
}
