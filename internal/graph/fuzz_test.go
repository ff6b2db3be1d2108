package graph

import (
	"context"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzMultiSourceBFS checks the multi-source kernel lane by lane: with
// a batch size of one every lane reports its own histogram, which must
// be the histogram of a single-source BFS from that lane's source over
// the same edges — out-edges, in-edges or both, by mode. The second
// run tracks far nodes, and each lane's ecc and far must be the
// single-source scan's eccentricity and lowest-id farthest node. The
// graph is decoded from the input (node ids as little-endian uint16
// pairs, reduced mod n), seeded with the testGraphs shapes, and the
// scratch runs twice to prove it comes out of a pass clean.
func FuzzMultiSourceBFS(f *testing.F) {
	for _, g := range testGraphs() {
		n := g.NumNodes()
		if n == 0 {
			continue // the decoder below builds at least one node
		}
		var edges, srcs []byte
		for u := 0; u < n; u++ {
			for _, v := range g.Out(NodeID(u)) {
				edges = binary.LittleEndian.AppendUint16(edges, uint16(u))
				edges = binary.LittleEndian.AppendUint16(edges, uint16(v))
			}
			if u%5 == 0 {
				srcs = binary.LittleEndian.AppendUint16(srcs, uint16(u))
				srcs = binary.LittleEndian.AppendUint16(srcs, uint16(u/2)) // some lanes share a node
			}
		}
		for mode := range uint8(3) {
			f.Add(uint16(n-1), edges, srcs, mode)
		}
	}
	f.Fuzz(func(t *testing.T, nodes uint16, edges, srcs []byte, mode uint8) {
		n := int(nodes)%600 + 1
		b := NewBuilder(n, len(edges)/4)
		for ; len(edges) >= 4; edges = edges[4:] {
			u, v := binary.LittleEndian.Uint16(edges), binary.LittleEndian.Uint16(edges[2:])
			b.AddEdge(NodeID(int(u)%n), NodeID(int(v)%n))
		}
		b.EnsureNode(NodeID(n - 1))
		g := b.Build()
		sources := []NodeID{0}
		for ; len(srcs) >= 2 && len(sources) < msLanes; srcs = srcs[2:] {
			sources = append(sources, NodeID(int(binary.LittleEndian.Uint16(srcs))%n))
		}
		// mode 0 follows out-edges, 1 in-edges, 2 both.
		out, in := mode%3 != 1, mode%3 != 0
		s, scratch := newMSBFS(g), newBFSScratch(g, nil)
		for rerun := 0; rerun < 2; rerun++ {
			if rerun == 1 {
				s.farLanes = ^uint64(0)
			}
			s.run(context.Background(), sources, 1, out, in)
			if !s.done || len(s.masks) != len(sources) {
				t.Fatalf("run %d: done=%v with %d lane masks for %d sources", rerun, s.done, len(s.masks), len(sources))
			}
			for lane, src := range sources {
				dist := scratch.run(src, out, in)
				if far, ecc := farthest(dist, src); s.farLanes != 0 && (s.far[lane] != far || s.ecc[lane] != ecc) {
					t.Fatalf("run %d, out=%v in=%v lane %d (source %d): far %d at %d, the scan finds %d at %d", rerun, out, in, lane, src, s.far[lane], s.ecc[lane], far, ecc)
				}
				want := addHops(nil, dist)
				for hop := 0; hop*len(sources) < len(s.hist); hop++ {
					got := s.hist[hop*len(sources)+lane]
					if hop < len(want) && got != want[hop] || hop >= len(want) && got != 0 {
						t.Fatalf("run %d lane %d (source %d) hop %d: %d nodes, the scan's histogram is %v", rerun, lane, src, hop, got, want)
					}
				}
				if len(want)*len(sources) > len(s.hist) {
					t.Fatalf("run %d lane %d (source %d): kernel stopped after %d levels, the scan's histogram is %v", rerun, lane, src, len(s.hist)/len(sources), want)
				}
			}
		}
	})
}

// FuzzTriads holds the one closed-triple enumeration against the three
// routes that share nothing with it — the isomorphism census, cubic
// triangle enumeration and the per-node clusteringLinks — on digraphs of up to 64
// nodes decoded from the input (one byte per endpoint, reduced mod n),
// at P = 1, 2, 3 and 8. Seeds: the 3-cycle, the transitive triangle and
// a mutual K4, the three shapes the kind tables tell apart, and a
// hub-shaped graph whose half graph pairs a two-entry row with a
// sixteen-entry one, so a long row is scanned against a short marked
// one, and a long marked row against many.
func FuzzTriads(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(2), []byte{0, 1, 0, 2, 1, 2})
	f.Add(uint8(3), []byte{0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 1, 2, 2, 1, 1, 3, 3, 1, 2, 3, 3, 2})
	f.Add(uint8(18), skewedTriads())
	f.Fuzz(func(t *testing.T, nodes uint8, edges []byte) {
		g := byteGraph(nodes, edges)
		n := g.NumNodes()
		census := bruteMotifs(t, g)
		total, perNode := bruteTriangles(g)
		links := make([]int64, n)
		for u := range links {
			links[u] = clusteringLinks(g, g, NodeID(u))
		}
		for _, par := range []int{1, 2, 3, 8} {
			got := triads(g, par)
			if got.Census.Counts != census {
				t.Errorf("P=%d: census %v, isomorphism oracle %v", par, got.Census.Counts, census)
			}
			if got.Triangles.Total != total || !reflect.DeepEqual(got.Triangles.PerNode, perNode) {
				t.Errorf("P=%d: %d triangles %v, enumeration finds %d %v", par, got.Triangles.Total, got.Triangles.PerNode, total, perNode)
			}
			if !reflect.DeepEqual(got.Links, links) {
				t.Errorf("P=%d: Links %v, clusteringLinks %v", par, got.Links, links)
			}
		}
	})
}

// byteGraph decodes a FuzzTriads or FuzzComponents input: a digraph on
// nodes%64+1 nodes whose edges are byte pairs, each byte reduced mod n.
func byteGraph(nodes uint8, edges []byte) *Graph {
	n := int(nodes)%64 + 1
	b := NewBuilder(n, len(edges)/2)
	for ; len(edges) >= 2; edges = edges[2:] {
		b.AddEdge(NodeID(int(edges[0])%n), NodeID(int(edges[1])%n))
	}
	b.EnsureNode(NodeID(n - 1))
	return b.Build()
}

// FuzzComponents holds the connectivity kernels against brute force on
// FuzzTriads' graphs: WCC against undirected BFSDistances reachability,
// component labels in order of first appearance and Sizes included;
// SCC against sccRefCheck's mutual reachability, with the same
// labelling; ReciprocalCounts against a HasArc count per out-edge. WCC
// and ReciprocalCounts run at P = 1, 2, 3 and 8; SCC takes no
// parallelism and runs once.
func FuzzComponents(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{0, 1, 1, 0, 2, 3, 4, 4})
	f.Add(uint8(7), []byte{0, 1, 1, 2, 2, 0, 2, 3, 4, 5, 5, 4, 6, 5})
	f.Add(uint8(18), skewedTriads())
	f.Fuzz(func(t *testing.T, nodes uint8, edges []byte) {
		g := byteGraph(nodes, edges)
		n := g.NumNodes()
		comp := make([]int32, n)
		for u := range comp {
			comp[u] = -1
		}
		var sizes []int32
		var dist []int32
		for u := range comp {
			if comp[u] >= 0 {
				continue
			}
			dist = BFSDistances(g, NodeID(u), Undirected, dist)
			sizes = append(sizes, 0)
			for v, d := range dist {
				if d >= 0 {
					comp[v] = int32(len(sizes) - 1)
					sizes[len(sizes)-1]++
				}
			}
		}
		recip := make([]int, n)
		for u := range recip {
			for _, v := range g.Out(NodeID(u)) {
				if HasArc(g, v, NodeID(u)) {
					recip[u]++
				}
			}
		}
		for _, par := range []int{1, 2, 3, 8} {
			if got := WCC(g, par); !reflect.DeepEqual(got.Comp, comp) || !reflect.DeepEqual(got.Sizes, sizes) || got.Count != len(sizes) {
				t.Errorf("P=%d: WCC %v sizes %v count %d, reachability %v sizes %v", par, got.Comp, got.Sizes, got.Count, comp, sizes)
			}
			if got := ReciprocalCounts(g, par); !reflect.DeepEqual(got, recip) {
				t.Errorf("P=%d: ReciprocalCounts %v, HasArc count %v", par, got, recip)
			}
		}
		scc := SCC(g)
		if !sccRefCheck(g, scc) {
			t.Errorf("SCC %v is not the mutual-reachability partition", scc.Comp)
		}
		var sccSizes []int32
		for u, c := range scc.Comp {
			if int(c) == len(sccSizes) {
				sccSizes = append(sccSizes, 0)
			} else if int(c) > len(sccSizes) || c < 0 {
				t.Fatalf("SCC labels %v: node %d opens component %d out of first-appearance order", scc.Comp, u, c)
			}
			sccSizes[c]++
		}
		if !reflect.DeepEqual(scc.Sizes, sccSizes) || scc.Count != len(sccSizes) {
			t.Errorf("SCC sizes %v count %d, labels give %v", scc.Sizes, scc.Count, sccSizes)
		}
	})
}

// skewedTriads is a FuzzTriads input on 19 nodes: a 17-clique {0..16}
// (some of its pairs mutual) whose members all but 0 also point at a
// node 17 outside it, and a node 18 tied to 0 and 16 alone. Degree
// ranks put 18 first, and 0 lowest of the clique, so 18's half row is
// (0, 16) while 0's holds the 16 other clique members: the triangle
// {18, 0, 16} closes where the scan of 0's 16-entry row meets one of
// 18's two marks, and 0's own 16 marks then meet every clique row.
func skewedTriads() []byte {
	var edges []byte
	for i := byte(0); i <= 16; i++ {
		for j := i + 1; j <= 16; j++ {
			edges = append(edges, i, j)
			if (i+j)%3 == 0 {
				edges = append(edges, j, i)
			}
		}
	}
	for w := byte(1); w <= 16; w++ {
		edges = append(edges, w, 17)
	}
	return append(edges, 18, 0, 16, 18)
}
