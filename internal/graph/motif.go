package graph

import "context"

// Directed 3-node motif census: every unordered node triple classified
// into one of the 16 isomorphism classes of directed triads, in the
// standard M-A-N (mutual/asymmetric/null dyad) numbering. This is the
// analysis of Schiöberg et al.'s follow-up study of directed triangle
// motifs on the same crawl (see PAPERS.md).
//
// The algorithm is Batagelj–Mrvar-style subquadratic censusing, carried
// out by Triads: open (dyadic) triad classes fall out of per-center
// neighbor combinatorics, closed classes out of the one closed-triple
// enumeration — which simultaneously corrects the open-class counts the
// combinatorics overcounted. Dyad-only classes (003, 012, 102) follow
// arithmetically from the totals. This file holds the classes, the
// census type and the two tables the enumeration indexes.

// TriadClass identifies one of the 16 directed triad isomorphism
// classes, in standard M-A-N census order. The naming encodes the dyad
// composition — #mutual, #asymmetric, #null — plus a direction tag
// (Down, Up, Cyclic, Transitive) where one composition has several
// classes.
type TriadClass int

const (
	// Triad003: three null dyads (no edges).
	Triad003 TriadClass = iota
	// Triad012: a single asymmetric dyad (one arc).
	Triad012
	// Triad102: a single mutual dyad.
	Triad102
	// Triad021D: two arcs diverging from one source (a←b→c).
	Triad021D
	// Triad021U: two arcs converging on one sink (a→b←c).
	Triad021U
	// Triad021C: a directed chain (a→b→c).
	Triad021C
	// Triad111D: a mutual dyad receiving an arc (a↔b←c).
	Triad111D
	// Triad111U: a mutual dyad sending an arc (a↔b→c).
	Triad111U
	// Triad030T: a transitive triangle (a→b→c, a→c).
	Triad030T
	// Triad030C: a cyclic triangle (a→b→c→a).
	Triad030C
	// Triad201: two mutual dyads sharing a node (a↔b↔c).
	Triad201
	// Triad120D: mutual dyad plus a node sourcing arcs to both ends.
	Triad120D
	// Triad120U: mutual dyad plus a node sinking arcs from both ends.
	Triad120U
	// Triad120C: mutual dyad with a chain through the third node
	// (a→b↔c→a reversed: one arc in, one arc out).
	Triad120C
	// Triad210: two mutual dyads plus one asymmetric dyad.
	Triad210
	// Triad300: three mutual dyads (the complete mutual triangle).
	Triad300
	// NumTriadClasses is the number of triad isomorphism classes.
	NumTriadClasses = 16
)

var triadNames = [NumTriadClasses]string{
	"003", "012", "102", "021D", "021U", "021C", "111D", "111U",
	"030T", "030C", "201", "120D", "120U", "120C", "210", "300",
}

func (c TriadClass) String() string {
	if c >= 0 && int(c) < NumTriadClasses {
		return triadNames[c]
	}
	return "triad?"
}

// Connected reports whether the class induces a weakly connected
// subgraph (every class except 003, 012, 102).
func (c TriadClass) Connected() bool {
	return c >= 0 && int(c) < NumTriadClasses && triadConnected[c]
}

// Closed reports whether the class's undirected projection is a
// triangle.
func (c TriadClass) Closed() bool {
	return c >= 0 && int(c) < NumTriadClasses && triadClosed[c]
}

// triadConnected marks the 13 classes whose triple induces a connected
// (weakly) subgraph — every class except 003, 012, 102.
var triadConnected = [NumTriadClasses]bool{
	Triad021D: true, Triad021U: true, Triad021C: true,
	Triad111D: true, Triad111U: true,
	Triad030T: true, Triad030C: true, Triad201: true,
	Triad120D: true, Triad120U: true, Triad120C: true,
	Triad210: true, Triad300: true,
}

// triadClosed marks the 7 classes whose undirected projection is a
// triangle.
var triadClosed = [NumTriadClasses]bool{
	Triad030T: true, Triad030C: true,
	Triad120D: true, Triad120U: true, Triad120C: true,
	Triad210: true, Triad300: true,
}

// triadTransitive[c] is the number of transitive closures in class c:
// ordered node triples (a,b,x) of the triad with a→b, a→x, b→x all
// present. Summed over the census it equals the total number of closed
// directed wedges — the exact numerator behind the paper's §3.3.3
// clustering coefficient, which the tests cross-check against
// ClusteringCoefficient itself.
var triadTransitive = [NumTriadClasses]int64{
	Triad030T: 1, Triad120C: 1, Triad120D: 2, Triad120U: 2,
	Triad210: 3, Triad300: 6,
}

// MotifCensus is an exact count of every directed triad class.
type MotifCensus struct {
	// Counts[c] is the number of unordered node triples inducing class
	// c. Counts[Triad003] is -1 when C(n,3) overflows int64 (n around
	// 3.8M or more); every other class is always exact.
	Counts [NumTriadClasses]int64
	// Nodes, MutualDyads and AsymDyads describe the graph the census
	// ran on: node count, dyads connected in both directions, and
	// dyads connected in exactly one.
	Nodes       int
	MutualDyads int64
	AsymDyads   int64
}

// ConnectedTriples returns the number of triples inducing a weakly
// connected subgraph (the 13 connected classes).
func (m *MotifCensus) ConnectedTriples() int64 {
	var s int64
	for c, n := range m.Counts {
		if triadConnected[c] {
			s += n
		}
	}
	return s
}

// Triangles returns the number of triples whose undirected projection
// is a triangle (the 7 closed classes) — comparable to
// TriangleResult.Total.
func (m *MotifCensus) Triangles() int64 {
	var s int64
	for c, n := range m.Counts {
		if triadClosed[c] {
			s += n
		}
	}
	return s
}

// TransitiveClosures returns the number of closed directed wedges
// (ordered triples a→b, a→x, b→x) — the exact sum of the §3.3.3
// clustering-coefficient numerators over all nodes.
func (m *MotifCensus) TransitiveClosures() int64 {
	var s int64
	for c, n := range m.Counts {
		s += triadTransitive[c] * n
	}
	return s
}

// choose3 returns C(n,3), or -1 if it overflows int64.
func choose3(n int64) int64 {
	if n < 3 {
		return 0
	}
	// Among {n, n-1, n-2} exactly one is divisible by 3; divide it out
	// first, then halve the factor that is still even, so every
	// intermediate product is a true divisor-free partial of C(n,3).
	a, b, c := n, n-1, n-2
	switch {
	case a%3 == 0:
		a /= 3
	case b%3 == 0:
		b /= 3
	default:
		c /= 3
	}
	if a%2 == 0 {
		a /= 2
	} else if b%2 == 0 {
		b /= 2
	} else {
		c /= 2
	}
	const maxInt64 = 1<<63 - 1
	if a != 0 && b > maxInt64/a {
		return -1
	}
	ab := a * b
	if ab != 0 && c > maxInt64/ab {
		return -1
	}
	return ab * c
}

// Motifs runs the exact directed triad census of g: the Census of Triads.
// The result is byte-identical for any parallelism.
func Motifs(g View, parallelism int) *MotifCensus {
	res, _ := Triads(context.Background(), g, parallelism) // never cancelled
	census := res.Census                                   // a copy: the result must not pin the per-node arrays
	return &census
}

// countDyadTriples fills the dyad-only classes by subtraction, once the
// 13 connected classes and the dyad totals are in: a single arc (or
// mutual pair) spans n-2 triples; those where the third node connects to
// either endpoint are already classified.
func (m *MotifCensus) countDyadTriples() {
	// How many asymmetric / mutual dyads each connected class contains.
	var asymIn = [NumTriadClasses]int64{
		Triad021D: 2, Triad021U: 2, Triad021C: 2,
		Triad111D: 1, Triad111U: 1,
		Triad030T: 3, Triad030C: 3,
		Triad120D: 2, Triad120U: 2, Triad120C: 2,
		Triad210: 1,
	}
	var mutIn = [NumTriadClasses]int64{
		Triad111D: 1, Triad111U: 1, Triad201: 2,
		Triad120D: 1, Triad120U: 1, Triad120C: 1,
		Triad210: 2, Triad300: 3,
	}
	asymTriples := m.AsymDyads * int64(m.Nodes-2)
	mutTriples := m.MutualDyads * int64(m.Nodes-2)
	var connected int64
	for c, v := range m.Counts {
		asymTriples -= asymIn[c] * v
		mutTriples -= mutIn[c] * v
		connected += v
	}
	m.Counts[Triad012] = asymTriples
	m.Counts[Triad102] = mutTriples
	connected += asymTriples + mutTriples
	if total := choose3(int64(m.Nodes)); total < 0 {
		m.Counts[Triad003] = -1
	} else {
		m.Counts[Triad003] = total - connected
	}
}

// triadTable and linkTable are what a closed triple {a, b, c} adds to
// the tallies, indexed 9·kind(a,b) + 3·kind(a,c) + kind(b,c) with each
// kind taken from the first-named node's side. triadTable: the closed
// class of the triple, and the open class each corner counted it as
// while seeing only its own two dyads. linkTable: per corner, the arcs
// between the other two corners when that corner points at both — its
// share of the numerator of C(corner).
var triadTable, linkTable = func() (t [27]struct {
	closed TriadClass
	open   [3]TriadClass
}, l [27][3]int64) {
	// flip is the same dyad seen from its other end.
	flip := [3]dyadKind{dyadOut: dyadIn, dyadIn: dyadOut, dyadMut: dyadMut}
	// links is the table entry of a corner with dyads p and q to two
	// nodes tied by far.
	links := func(p, q, far dyadKind) int64 {
		if p == dyadIn || q == dyadIn {
			return 0
		}
		if far == dyadMut {
			return 2
		}
		return 1
	}
	for ab := dyadOut; ab <= dyadMut; ab++ {
		for ac := dyadOut; ac <= dyadMut; ac++ {
			for bc := dyadOut; bc <= dyadMut; bc++ {
				k := 9*ab + 3*ac + bc
				t[k].closed = closedTriad(ab, ac, bc)
				t[k].open = [3]TriadClass{
					openTriad[ab][ac],
					openTriad[flip[ab]][bc],
					openTriad[flip[ac]][flip[bc]],
				}
				l[k] = [3]int64{
					links(ab, ac, bc),
					links(flip[ab], bc, ac),
					links(flip[ac], flip[bc], ab),
				}
			}
		}
	}
	return t, l
}()

// openTriad[p][q] is the class of a triple whose center has dyads p and
// q to two nodes that are not tied to each other.
var openTriad = [3][3]TriadClass{
	dyadOut: {dyadOut: Triad021D, dyadIn: Triad021C, dyadMut: Triad111U},
	dyadIn:  {dyadOut: Triad021C, dyadIn: Triad021U, dyadMut: Triad111D},
	dyadMut: {dyadOut: Triad111U, dyadIn: Triad111D, dyadMut: Triad201},
}

// closedTriad is the class of a triple {a, b, c} with all three dyads
// present: ab and ac from a's side, bc from b's.
func closedTriad(ab, ac, bc dyadKind) TriadClass {
	// outs[x] counts the asymmetric arcs node x sources.
	var outs [3]int
	muts := 0
	for _, d := range [3]struct {
		k        dyadKind
		from, to int
	}{{ab, 0, 1}, {ac, 0, 2}, {bc, 1, 2}} {
		switch d.k {
		case dyadOut:
			outs[d.from]++
		case dyadIn:
			outs[d.to]++
		default:
			muts++
		}
	}
	switch muts {
	case 3:
		return Triad300
	case 2:
		return Triad210
	case 1:
		// Both arcs touch the node outside the mutual dyad: sinking both
		// → 120U, one in and one out → 120C, sourcing both → 120D.
		x := 2
		if ac == dyadMut {
			x = 1
		} else if bc == dyadMut {
			x = 0
		}
		return [3]TriadClass{Triad120U, Triad120C, Triad120D}[outs[x]]
	}
	// All asymmetric: a cycle has every node sourcing exactly one arc;
	// otherwise one node sources two and the triangle is transitive.
	if outs[0] == 1 && outs[1] == 1 && outs[2] == 1 {
		return Triad030C
	}
	return Triad030T
}
