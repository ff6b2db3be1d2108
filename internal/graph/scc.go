package graph

// SCCResult describes the strongly connected components of a graph.
type SCCResult struct {
	// Comp maps each node to its component index in [0, Count). Component
	// indices are assigned in order of first appearance by node id.
	Comp []int32
	// Sizes holds the node count of each component.
	Sizes []int32
	// Count is the number of components.
	Count int
}

// GiantSize returns the size of the largest component, or 0 for an empty
// graph.
func (r *SCCResult) GiantSize() int {
	max := int32(0)
	for _, s := range r.Sizes {
		if s > max {
			max = s
		}
	}
	return int(max)
}

// GiantFraction returns the fraction of graph nodes inside the largest
// strongly connected component. The paper reports a giant SCC covering
// roughly 70% of the 35.1M-node graph G; as in WCCResult.GiantFraction,
// the denominator is the analyzed graph's node count (§3.3.4), not an
// external user roster.
func (r *SCCResult) GiantFraction() float64 {
	if len(r.Comp) == 0 {
		return 0
	}
	return float64(r.GiantSize()) / float64(len(r.Comp))
}

// SCC computes strongly connected components using an iterative Tarjan
// algorithm (no recursion, so it is safe on multi-million-node graphs with
// long path structures), labelling components canonically in order of
// first appearance by node id. It is the only SCC kernel: the pivot SCC
// a forward-backward decomposition must extract serially is, on a social
// graph, the giant component (§3.3.4: ~70% of G), which left the
// task-parallel variant slower than this at every measured size.
func SCC(g View) *SCCResult {
	n := g.NumNodes()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}

	var (
		next  int32 // next DFS index
		stack []NodeID
		sizes []int32
	)

	// Explicit DFS frame: node plus position within its adjacency list.
	type frame struct {
		node NodeID
		pos  int
	}
	frames := make([]frame, 0, 64)
	rows := g.Rows()

	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames = append(frames, frame{NodeID(start), 0})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, NodeID(start))
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.node
			// Re-read on every visit: the children's rows have passed
			// through the cursor since u was last on top.
			adj := rows.Out(u)
			advanced := false
			for f.pos < len(adj) {
				v := adj[f.pos]
				f.pos++
				if index[v] == unvisited {
					index[v] = next
					low[v] = next
					next++
					stack = append(stack, v)
					onStack[v] = true
					frames = append(frames, frame{v, 0})
					advanced = true
					break
				}
				if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
			}
			if advanced {
				continue
			}
			// u is finished: pop the frame, maybe emit a component.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] == index[u] {
				id := int32(len(sizes))
				var size int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					size++
					if w == u {
						break
					}
				}
				sizes = append(sizes, size)
			}
		}
	}
	// Tarjan emits components in reverse topological order; renumber them
	// into the package's canonical first-appearance order.
	sizes = relabelByFirstAppearance(comp, len(sizes))
	return &SCCResult{Comp: comp, Sizes: sizes, Count: len(sizes)}
}

// SCCParallel forwards to SCC and ignores its second argument. It
// survives only because bench/study.go, which this repo's changes may
// not edit, probes the kernel by this name; renaming the probe belongs
// to the next benchmark PR, and this forwarder goes with it.
func SCCParallel(g View, _ int) *SCCResult { return SCC(g) }
