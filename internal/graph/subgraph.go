package graph

// Induced returns the subgraph induced by the given nodes: the nodes are
// renumbered densely in the order given (duplicates ignored), and every
// edge whose endpoints are both selected is kept. The second return
// value maps new ids back to the original ids.
func Induced(g View, nodes []NodeID) (*Graph, []NodeID) {
	oldToNew := make(map[NodeID]NodeID, len(nodes))
	newToOld := make([]NodeID, 0, len(nodes))
	for _, u := range nodes {
		if _, dup := oldToNew[u]; dup {
			continue
		}
		oldToNew[u] = NodeID(len(newToOld))
		newToOld = append(newToOld, u)
	}
	b := NewBuilder(len(newToOld), len(newToOld)*8)
	rows := g.Rows()
	for newU, oldU := range newToOld {
		for _, oldV := range rows.Out(oldU) {
			if newV, ok := oldToNew[oldV]; ok {
				b.AddEdge(NodeID(newU), newV)
			}
		}
	}
	if len(newToOld) > 0 {
		b.EnsureNode(NodeID(len(newToOld) - 1))
	}
	return b.Build(), newToOld
}
