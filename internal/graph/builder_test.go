package graph

import (
	"reflect"
	"testing"
)

// TestBuilderReuse pins the documented "Builder may be reused
// afterwards" contract: interleaving Build calls with further AddEdge
// calls must produce the same graph as adding everything up front.
// Before the b.edges = kept fix, the dropped-duplicate tail survived
// Build and was re-sorted into the next one, and NumEdges kept counting
// records that Build had already discarded.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(4, 0)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate: dropped by Build
	b.AddEdge(2, 2) // self-loop: dropped by Build
	b.AddEdge(1, 2)
	first := b.Build()
	if got, want := first.NumEdges(), int64(2); got != want {
		t.Fatalf("first build: %d edges, want %d", got, want)
	}
	if got := len(b.edges); got != 2 {
		t.Fatalf("builder reports %d edges after Build, want the 2 kept", got)
	}

	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	second := b.Build()

	oneShot := NewBuilder(4, 0)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		oneShot.AddEdge(e[0], e[1])
	}
	want := oneShot.Build()
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("reused builder diverged from one-shot build:\n got %+v\nwant %+v", second, want)
	}
	if got := len(b.edges); got != 4 {
		t.Fatalf("builder reports %d edges after second Build, want 4", got)
	}
}
