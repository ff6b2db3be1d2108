package graph

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// triadReps maps each triad class to a representative arc set on nodes
// {0,1,2}. The brute-force census classifies a triple by checking which
// representative it is isomorphic to (under the 6 node permutations) —
// an oracle entirely independent of the census implementation.
var triadReps = [NumTriadClasses][][2]int{
	Triad003:  {},
	Triad012:  {{0, 1}},
	Triad102:  {{0, 1}, {1, 0}},
	Triad021D: {{1, 0}, {1, 2}},
	Triad021U: {{0, 1}, {2, 1}},
	Triad021C: {{0, 1}, {1, 2}},
	Triad111D: {{0, 1}, {1, 0}, {2, 1}},
	Triad111U: {{0, 1}, {1, 0}, {1, 2}},
	Triad030T: {{0, 1}, {0, 2}, {1, 2}},
	Triad030C: {{0, 1}, {1, 2}, {2, 0}},
	Triad201:  {{0, 1}, {1, 0}, {1, 2}, {2, 1}},
	Triad120D: {{0, 2}, {2, 0}, {1, 0}, {1, 2}},
	Triad120U: {{0, 2}, {2, 0}, {0, 1}, {2, 1}},
	Triad120C: {{0, 2}, {2, 0}, {0, 1}, {1, 2}},
	Triad210:  {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}},
	Triad300:  {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}},
}

// arcMask encodes a 3-node digraph as a 6-bit mask over the ordered
// pairs (0,1),(0,2),(1,0),(1,2),(2,0),(2,1).
func arcMask(arcs [][2]int) int {
	bit := map[[2]int]int{
		{0, 1}: 0, {0, 2}: 1, {1, 0}: 2, {1, 2}: 3, {2, 0}: 4, {2, 1}: 5,
	}
	m := 0
	for _, a := range arcs {
		m |= 1 << bit[a]
	}
	return m
}

// triadClassOf classifies a 3-node arc set by isomorphism against the
// representatives, asserting exactly one class matches.
func triadClassOf(t *testing.T, arcs [][2]int) TriadClass {
	t.Helper()
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	masks := map[int]bool{}
	for _, p := range perms {
		mapped := make([][2]int, len(arcs))
		for i, a := range arcs {
			mapped[i] = [2]int{p[a[0]], p[a[1]]}
		}
		masks[arcMask(mapped)] = true
	}
	found := TriadClass(-1)
	for c := TriadClass(0); int(c) < NumTriadClasses; c++ {
		if masks[arcMask(triadReps[c])] {
			if found >= 0 {
				t.Fatalf("arc set %v matches both %v and %v", arcs, found, c)
			}
			found = c
		}
	}
	if found < 0 {
		t.Fatalf("arc set %v matches no triad class", arcs)
	}
	return found
}

// bruteMotifs enumerates every triple and classifies it via the
// isomorphism oracle. Cubic; small graphs only.
func bruteMotifs(t *testing.T, g *Graph) [NumTriadClasses]int64 {
	t.Helper()
	n := g.NumNodes()
	var counts [NumTriadClasses]int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				triple := [3]NodeID{NodeID(a), NodeID(b), NodeID(c)}
				var arcs [][2]int
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						if i != j && HasArc(g, triple[i], triple[j]) {
							arcs = append(arcs, [2]int{i, j})
						}
					}
				}
				counts[triadClassOf(t, arcs)]++
			}
		}
	}
	return counts
}

func TestMotifsAgainstBruteForce(t *testing.T) {
	small := map[string]*Graph{
		"triangle": triangle(),
		"isolated": FromEdges(6, 0, 1, 5, 0),
		"star":     testGraphs()["star"],
		"chain":    testGraphs()["chain"],
	}
	rng := rand.New(rand.NewPCG(9, 10))
	small["random-dense"] = randomGraph(40, 400, rng)
	small["random-sparse"] = randomGraph(60, 90, rng)
	for name, g := range small {
		want := bruteMotifs(t, g)
		for _, par := range []int{1, 4, 16} {
			got := Motifs(g, par)
			if got.Counts != want {
				t.Errorf("%s (P=%d): census\n got %v\nwant %v", name, par, got.Counts, want)
			}
		}
	}
}

// TestMotifsCountsSumToTriples is the satellite invariant: the 16
// classes partition all C(n,3) triples, and the 13 connected classes
// sum to the number of connected triples — which equals wedges minus
// 2·triangles (each closed triple holds three wedges but is one triple;
// each open connected triple holds exactly one).
func TestMotifsCountsSumToTriples(t *testing.T) {
	for name, g := range testGraphs() {
		m := Motifs(g, 4)
		n := int64(g.NumNodes())
		var sum int64
		for _, c := range m.Counts {
			sum += c
		}
		if want := choose3(n); sum != want {
			t.Errorf("%s: class counts sum to %d, want C(%d,3) = %d", name, sum, n, want)
		}
		tri := Triangles(g, TriangleAuto, 4)
		if got, want := m.ConnectedTriples(), tri.Wedges-2*tri.Total; got != want {
			t.Errorf("%s: ConnectedTriples = %d, want wedges-2*triangles = %d", name, got, want)
		}
		if got, want := m.Triangles(), tri.Total; got != want {
			t.Errorf("%s: census Triangles = %d, TriangleResult.Total = %d", name, got, want)
		}
		for c, v := range m.Counts {
			if v < 0 {
				t.Errorf("%s: class %v count %d negative", name, TriadClass(c), v)
			}
		}
	}
}

// triads is Triads under a context that is never cancelled.
func triads(g View, par int) *TriadResult {
	res, err := Triads(context.Background(), g, par)
	if err != nil {
		panic(err)
	}
	return res
}

// errAfter is a context whose Err starts reporting cancellation at its
// limit-th call, counting every call.
type errAfter struct {
	context.Context
	calls, limit atomic.Int32
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.limit.Load() {
		return context.Canceled
	}
	return nil
}

// TestTriadsCancellation: every look Triads takes at its context — before
// each pass and once per chunk of rank rows a worker takes — ends the
// call with the context's error and no result once the context says so,
// and a context that never does gets the full result. The row count
// leaves a partial last chunk, so at every P the workers hand out
// several chunks, one of them short; FuzzTriads' graphs fit in one.
func TestTriadsCancellation(t *testing.T) {
	const n, chunks = 3*triadChunk + 17, 4
	g := randomGraph(n, 12*n, rand.New(rand.NewPCG(3, 9)))
	want := triads(g, 1)
	for _, par := range []int{1, 2, 3, 8} {
		live := &errAfter{Context: context.Background()}
		live.limit.Store(math.MaxInt32)
		if got, err := Triads(live, g, par); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: a live context got error %v or a different result", par, err)
		}
		// One look before each of the three passes and one after the
		// last, and one per chunk taken, whichever worker takes it.
		if looks := live.calls.Load(); looks != 4+chunks {
			t.Fatalf("P=%d: Triads looked at its context %d times, want %d", par, looks, 4+chunks)
		}
		for limit := int32(1); limit <= 4+chunks; limit++ {
			ctx := &errAfter{Context: context.Background()}
			ctx.limit.Store(limit)
			if got, err := Triads(ctx, g, par); err != context.Canceled || got != nil {
				t.Fatalf("P=%d: cancelled at look %d of %d: result %v, error %v", par, limit, 4+chunks, got != nil, err)
			}
		}
	}
}

// TestMotifsTransitiveClosuresMatchClustering ties the enumeration to
// the §3.3.3 clustering pipeline node by node: the numerator Triads
// assembles from closed triples must be every node's clusteringLinks,
// and the census's transitive-closure total their sum.
func TestMotifsTransitiveClosuresMatchClustering(t *testing.T) {
	for name, g := range testGraphs() {
		for _, par := range []int{1, 2, 3, 8} {
			res := triads(g, par)
			var sum int64
			for u := 0; u < g.NumNodes(); u++ {
				want := clusteringLinks(g, g, NodeID(u))
				if res.Links[u] != want {
					t.Errorf("%s P=%d: node %d: Links = %d, clusteringLinks = %d", name, par, u, res.Links[u], want)
				}
				sum += want
			}
			if got := res.Census.TransitiveClosures(); got != sum {
				t.Errorf("%s P=%d: TransitiveClosures = %d, Σ clusteringLinks = %d", name, par, got, sum)
			}
		}
	}
}

// TestMotifsDyadTotals pins the dyad bookkeeping: mutual+asym dyads
// must cover the projection's edges, and 2·mutual+asym the directed
// edge count.
func TestMotifsDyadTotals(t *testing.T) {
	for name, g := range testGraphs() {
		m := Motifs(g, 4)
		u := buildUndirected(g, 4)
		undirectedEdges := int64(len(u.adj)) / 2
		if m.MutualDyads+m.AsymDyads != undirectedEdges {
			t.Errorf("%s: mutual %d + asym %d != undirected edges %d",
				name, m.MutualDyads, m.AsymDyads, undirectedEdges)
		}
		if 2*m.MutualDyads+m.AsymDyads != int64(g.NumEdges()) {
			t.Errorf("%s: 2*mutual+asym = %d, directed edges %d",
				name, 2*m.MutualDyads+m.AsymDyads, g.NumEdges())
		}
	}
}

func TestMotifsQuickFuzz(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x27d4eb2f))
		n := 3 + r.IntN(30)
		g := randomGraph(n, 1+r.IntN(6*n), r)
		want := bruteMotifs(t, g)
		got := Motifs(g, 1+r.IntN(8))
		return got.Counts == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMotifsKnownTriads pins each single-triad graph to its class.
func TestMotifsKnownTriads(t *testing.T) {
	for c := TriadClass(0); int(c) < NumTriadClasses; c++ {
		b := NewBuilder(3, 0)
		for _, a := range triadReps[c] {
			b.AddEdge(NodeID(a[0]), NodeID(a[1]))
		}
		m := Motifs(b.Build(), 2)
		for k, v := range m.Counts {
			want := int64(0)
			if TriadClass(k) == c {
				want = 1
			}
			if v != want {
				t.Errorf("representative of %v: census[%v] = %d, want %d", c, TriadClass(k), v, want)
			}
		}
	}
}

func TestChoose3(t *testing.T) {
	cases := map[int64]int64{0: 0, 2: 0, 3: 1, 4: 4, 5: 10, 10: 120, 100: 161700}
	for n, want := range cases {
		if got := choose3(n); got != want {
			t.Errorf("choose3(%d) = %d, want %d", n, got, want)
		}
	}
	if got := choose3(1 << 40); got != -1 {
		t.Errorf("choose3(2^40) = %d, want -1 (overflow)", got)
	}
	// Largest exactly representable region: 3.8M nodes stays exact.
	if got := choose3(3_800_000); got <= 0 {
		t.Errorf("choose3(3.8M) = %d, want positive exact value", got)
	}
}

func TestMotifsReflectsReciprocity(t *testing.T) {
	// A 4-cycle of mutual edges: every connected triple is 201 or 102.
	b := NewBuilder(4, 0)
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		b.AddEdge(NodeID(i), NodeID(j))
		b.AddEdge(NodeID(j), NodeID(i))
	}
	m := Motifs(b.Build(), 3)
	want := [NumTriadClasses]int64{Triad201: 4}
	if !reflect.DeepEqual(m.Counts, want) {
		t.Errorf("mutual 4-cycle census = %v, want only 201=4", m.Counts)
	}
	if m.MutualDyads != 4 || m.AsymDyads != 0 {
		t.Errorf("mutual 4-cycle dyads = (%d,%d), want (4,0)", m.MutualDyads, m.AsymDyads)
	}
}

// The census this file's table test holds triadTable against: the
// probe-based classification Motifs used before it carried dyad kinds
// in the projection, asking HasArc about every dyad of every triple.

// probeDyad classifies the connected dyad (center, other).
func probeDyad(g View, center, other NodeID) dyadKind {
	fwd := HasArc(g, center, other)
	rev := HasArc(g, other, center)
	switch {
	case fwd && rev:
		return dyadMut
	case fwd:
		return dyadOut
	default:
		return dyadIn
	}
}

// probeTriangleClass classifies a closed triple by its three dyads.
func probeTriangleClass(g View, a, b, c NodeID) TriadClass {
	kinds := [3]dyadKind{probeDyad(g, a, b), probeDyad(g, a, c), probeDyad(g, b, c)}
	muts := 0
	for _, k := range kinds {
		if k == dyadMut {
			muts++
		}
	}
	switch muts {
	case 3:
		return Triad300
	case 2:
		return Triad210
	case 1:
		var x, p, q NodeID // x: the node outside the mutual dyad
		switch {
		case kinds[0] == dyadMut:
			x, p, q = c, a, b
		case kinds[1] == dyadMut:
			x, p, q = b, a, c
		default:
			x, p, q = a, b, c
		}
		xp := HasArc(g, x, p)
		xq := HasArc(g, x, q)
		switch {
		case xp && xq:
			return Triad120D
		case !xp && !xq:
			return Triad120U
		default:
			return Triad120C
		}
	default:
		if HasArc(g, a, b) == HasArc(g, b, c) && HasArc(g, b, c) == HasArc(g, c, a) {
			return Triad030C
		}
		return Triad030T
	}
}

// probeOpenClass is the open class a corner credited a closed triple
// with, seeing only its own dyads to p and q.
func probeOpenClass(g View, center, p, q NodeID) TriadClass {
	pm, qm := probeDyad(g, center, p), probeDyad(g, center, q)
	switch {
	case pm == dyadMut && qm == dyadMut:
		return Triad201
	case pm == dyadMut || qm == dyadMut:
		other := pm
		if pm == dyadMut {
			other = qm
		}
		if other == dyadOut {
			return Triad111U
		}
		return Triad111D
	case pm == dyadOut && qm == dyadOut:
		return Triad021D
	case pm == dyadIn && qm == dyadIn:
		return Triad021U
	default:
		return Triad021C
	}
}

// TestTriadTableMatchesProbes builds the closed triple of every one of
// the 27 kind triples and requires the table's closed class and three
// retractions to be what probing that graph finds — and the closed
// class to be what the isomorphism oracle says.
func TestTriadTableMatchesProbes(t *testing.T) {
	addDyad := func(b *Builder, arcs *[][2]int, from, to int, k dyadKind) {
		if k != dyadIn {
			b.AddEdge(NodeID(from), NodeID(to))
			*arcs = append(*arcs, [2]int{from, to})
		}
		if k != dyadOut {
			b.AddEdge(NodeID(to), NodeID(from))
			*arcs = append(*arcs, [2]int{to, from})
		}
	}
	for ab := dyadOut; ab <= dyadMut; ab++ {
		for ac := dyadOut; ac <= dyadMut; ac++ {
			for bc := dyadOut; bc <= dyadMut; bc++ {
				b := NewBuilder(3, 6)
				var arcs [][2]int
				addDyad(b, &arcs, 0, 1, ab)
				addDyad(b, &arcs, 0, 2, ac)
				addDyad(b, &arcs, 1, 2, bc)
				g := b.Build()
				got := triadTable[9*int(ab)+3*int(ac)+int(bc)]
				if want := probeTriangleClass(g, 0, 1, 2); got.closed != want {
					t.Errorf("kinds (%d,%d,%d): table says %v, probes say %v", ab, ac, bc, got.closed, want)
				}
				if want := triadClassOf(t, arcs); got.closed != want {
					t.Errorf("kinds (%d,%d,%d): table says %v, isomorphism says %v", ab, ac, bc, got.closed, want)
				}
				wantOpen := [3]TriadClass{
					probeOpenClass(g, 0, 1, 2), probeOpenClass(g, 1, 0, 2), probeOpenClass(g, 2, 0, 1),
				}
				if got.open != wantOpen {
					t.Errorf("kinds (%d,%d,%d): table retracts %v, probes retract %v", ab, ac, bc, got.open, wantOpen)
				}
			}
		}
	}
}
