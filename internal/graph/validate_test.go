package graph

import "fmt"

// validate is the tests' full CSR oracle: a zero-value graph, or
// FromCSR's shape with every offset array non-decreasing and every row
// of both directions strictly ascending and in range.
func validate(g *Graph) error {
	if len(g.outOff) == 0 && len(g.inOff) == 0 && len(g.outAdj) == 0 && len(g.inAdj) == 0 {
		return nil
	}
	if _, err := FromCSR(g.outOff, g.outAdj, g.inOff, g.inAdj); err != nil {
		return err
	}
	n := g.NumNodes()
	for _, d := range []struct {
		name string
		off  []int64
		adj  []NodeID
	}{{"out", g.outOff, g.outAdj}, {"in", g.inOff, g.inAdj}} {
		for u := 0; u < n; u++ {
			if d.off[u] > d.off[u+1] {
				return fmt.Errorf("graph: %s offsets decrease at node %d", d.name, u)
			}
			for i := d.off[u]; i < d.off[u+1]; i++ {
				if int(d.adj[i]) >= n {
					return fmt.Errorf("graph: %s edge from %d to out-of-range node %d", d.name, u, d.adj[i])
				}
				if i > d.off[u] && d.adj[i] <= d.adj[i-1] {
					return fmt.Errorf("graph: %s adjacency of node %d not strictly sorted", d.name, u)
				}
			}
		}
	}
	return nil
}
