package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	_, res := fixtures(t)
	d := FromCrawl(res)
	var buf bytes.Buffer
	if err := d.WriteEdgeList(&buf); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	got, err := ImportEdgeList(&buf)
	if err != nil {
		t.Fatalf("ImportEdgeList: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, d.IDs) {
		t.Error("id space differs after edge-list round trip")
	}
	if !reflect.DeepEqual(got.Graph, d.Graph) {
		t.Error("graph differs after edge-list round trip")
	}
	// Edge-list datasets carry no profiles.
	if got.NumCrawled() != 0 {
		t.Errorf("imported dataset claims %d crawled users", got.NumCrawled())
	}
}

// A mapped dataset has no in-RAM Graph; the export must read its View.
func TestWriteEdgeListMapped(t *testing.T) {
	_, res := fixtures(t)
	d := FromCrawl(res)
	dir := t.TempDir()
	if err := d.SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadWith(dir, Options{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	var want, got bytes.Buffer
	if err := d.WriteEdgeList(&want); err != nil {
		t.Fatal(err)
	}
	if err := mapped.WriteEdgeList(&got); err != nil {
		t.Fatalf("WriteEdgeList on a mapped dataset: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("mapped and in-RAM datasets export different edge lists")
	}
}

func TestImportEdgeListParsing(t *testing.T) {
	in := "# comment\n\n a b \nb\tc\n"
	d, err := ImportEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 3 || d.Graph.NumEdges() != 2 {
		t.Fatalf("users=%d edges=%d", d.NumUsers(), d.Graph.NumEdges())
	}
	node, ok := d.NodeOf("a")
	if !ok {
		t.Fatal("id a missing")
	}
	if d.Graph.OutDegree(node) != 1 {
		t.Errorf("out-degree of a = %d", d.Graph.OutDegree(node))
	}
}

func TestImportEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"# only comments\n",
		"a b c\n",
		"lonely\n",
	}
	for _, c := range cases {
		if _, err := ImportEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}
