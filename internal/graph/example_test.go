package graph_test

import (
	"fmt"

	"gplus/internal/graph"
)

// Build a small circle graph and inspect its structure.
func Example() {
	b := graph.NewBuilder(4, 6)
	// A mutual pair 0<->1, plus one-way follows of the popular node 3.
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()

	fmt.Println("nodes:", g.NumNodes())
	fmt.Println("edges:", g.NumEdges())
	fmt.Println("in-degree of 3:", g.InDegree(3))
	fmt.Printf("reciprocity: %.2f\n", graph.GlobalReciprocity(g, 1))
	// Output:
	// nodes: 4
	// edges: 5
	// in-degree of 3: 3
	// reciprocity: 0.40
}

func ExampleSCC() {
	// Cycle {0,1,2} with a pendant node 3.
	g := graph.FromEdges(4, 0, 1, 1, 2, 2, 0, 2, 3)
	res := graph.SCC(g)
	fmt.Println("components:", res.Count)
	fmt.Println("giant size:", res.GiantSize())
	// Output:
	// components: 2
	// giant size: 3
}

func ExampleBFSDistances() {
	g := graph.FromEdges(4, 0, 1, 1, 2, 2, 3)
	dist := graph.BFSDistances(g, 0, graph.Directed, nil)
	fmt.Println(dist)
	// Output:
	// [0 1 2 3]
}
