package graph

import (
	"context"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Direction selects how BFS traverses edges.
type Direction int

const (
	// Directed follows out-edges only, matching shortest paths in the
	// directed social graph G.
	Directed Direction = iota
	// Undirected follows edges in both directions, matching the paper's
	// "undirected version" of G.
	Undirected
)

// String names the traversal direction.
func (d Direction) String() string {
	if d == Undirected {
		return "undirected"
	}
	return "directed"
}

// BFSDistances returns the hop distance from src to every node, or -1 for
// unreachable nodes. The dist slice may be passed in to avoid allocation;
// if it is nil or too short a new slice is allocated.
func BFSDistances(g View, src NodeID, dir Direction, dist []int32) []int32 {
	return newBFSScratch(g, dist).run(src, true, dir == Undirected)
}

// bfsScratch is what one BFS worker carries from source to source: its
// row cursor, the distance array and the queue, so a path sample
// allocates per worker, not per source.
type bfsScratch struct {
	rows  Rows
	dist  []int32
	queue []NodeID
}

// newBFSScratch sizes a scratch for g, taking over dist when it is
// large enough.
func newBFSScratch(g View, dist []int32) *bfsScratch {
	n := g.NumNodes()
	if cap(dist) < n {
		dist = make([]int32, n)
	}
	return &bfsScratch{rows: g.Rows(), dist: dist[:n], queue: make([]NodeID, 0, n)}
}

// run fills s.dist with hop distances from src, following out-edges,
// in-edges (the transpose graph), or both, and returns it; the slice is
// valid until the scratch's next run.
func (s *bfsScratch) run(src NodeID, out, in bool) []int32 {
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	queue := append(s.queue[:0], src)
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if out {
			for _, v := range s.rows.Out(u) {
				if dist[v] < 0 {
					dist[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
		if in {
			for _, v := range s.rows.In(u) {
				if dist[v] < 0 {
					dist[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
	}
	s.queue = queue
	return dist
}

// PathLengthDist is an estimated distribution of pairwise hop distances.
// A nil *PathLengthDist reads as the empty distribution.
type PathLengthDist struct {
	// Counts[h] is the number of sampled (source, node) pairs at distance h.
	Counts []int64
	// Sources is the number of BFS sources actually used.
	Sources int
	// Reachable is the total number of reachable pairs counted.
	Reachable int64
	// HalfWidth is the 95 % half-width of Mean: 1.96 standard errors of
	// the ratio estimator over the sample's batches (+Inf below two
	// batches, 0 for an empty sample).
	HalfWidth float64
	// Diameter is a double-sweep lower bound on the diameter (longest
	// shortest path): the greatest eccentricity of the sample's first
	// diameterSweeps sources and of each one's far node, swept back
	// (0 for an empty sample).
	Diameter int
}

// Probability returns the fraction of reachable pairs at each hop count,
// i.e. the series plotted in Figure 5.
func (p *PathLengthDist) Probability() []float64 {
	if p == nil {
		return nil
	}
	out := make([]float64, len(p.Counts))
	if p.Reachable == 0 {
		return out
	}
	for i, c := range p.Counts {
		out[i] = float64(c) / float64(p.Reachable)
	}
	return out
}

// Mean returns the average path length over sampled reachable pairs.
func (p *PathLengthDist) Mean() float64 {
	if p == nil || p.Reachable == 0 {
		return 0
	}
	var sum float64
	for h, c := range p.Counts {
		sum += float64(h) * float64(c)
	}
	return sum / float64(p.Reachable)
}

// Mode returns the most common path length (the paper reports mode 6
// directed, 5 undirected). Distance 0 (source to itself) is excluded.
func (p *PathLengthDist) Mode() int {
	if p == nil {
		return 0
	}
	best, bestCount := 0, int64(-1)
	for h, c := range p.Counts {
		if h == 0 {
			continue
		}
		if c > bestCount {
			best, bestCount = h, c
		}
	}
	return best
}

// PathLengthOptions controls SamplePathLengths.
type PathLengthOptions struct {
	// MinSources and MaxSources bound the number of BFS sources. The paper
	// started with 2,000 sources and grew to 10,000, stopping once the
	// distribution no longer changed. MaxSources is a hard cap: a
	// MinSources above an explicit MaxSources is lowered to it.
	MinSources int
	MaxSources int
	// Tolerance is the 95 % half-width of the mean path length, in hops,
	// at which the sample stops: after each 64-source pass, once at
	// least MinSources sources are in, the sample ends if HalfWidth is
	// at most Tolerance. Default 0.1, the precision the paper reports
	// its means to.
	Tolerance float64
	// BatchSize is the number of sources per batch, the unit whose
	// means the standard error is taken over. Batches do not span
	// passes: a pass's 64 lanes split into runs of BatchSize from its
	// first lane, the last run possibly shorter. Default 8, so one pass
	// holds 8 batches.
	BatchSize int
	// Parallelism is not used: a sample runs its passes one at a time
	// on one worker, so that no pass past the stopping one is computed
	// and one scratch serves them all. Callers that want more cores run
	// samples side by side.
	Parallelism int
	// Rand supplies source sampling. Required.
	Rand *rand.Rand
}

func (o *PathLengthOptions) setDefaults() {
	if o.MinSources <= 0 {
		o.MinSources = 64
	}
	if o.MaxSources <= 0 {
		o.MaxSources = max(1024, o.MinSources)
	}
	if o.MinSources > o.MaxSources {
		o.MinSources = o.MaxSources
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 0.1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 8
	}
}

// SamplePathLengths estimates the pairwise hop-distance distribution by
// running full BFS from randomly sampled sources, the procedure of §3.3.5,
// and bounds the diameter by double sweeps from the first of them. It
// stops early once the mean's 95 % half-width reaches opt.Tolerance or
// ctx is cancelled (returning the estimate so far). Sources are drawn
// up-front in a fixed order and passes fold in that order.
func SamplePathLengths(ctx context.Context, g View, dir Direction, opt PathLengthOptions) *PathLengthDist {
	opt.setDefaults()
	n := g.NumNodes()
	if n == 0 {
		return &PathLengthDist{}
	}
	sources := make([]NodeID, opt.MaxSources)
	for i := range sources {
		sources[i] = NodeID(opt.Rand.IntN(n))
	}
	return pathLengthsFrom(ctx, g, dir, sources, opt)
}

// diameterSweeps is how many of a sample's sources, its first ones,
// start the double sweeps behind PathLengthDist.Diameter.
const diameterSweeps = 4

// pathLengthsFrom is SamplePathLengths over an explicit source list
// (opt already defaulted; len(sources) stands in for MaxSources).
//
// Sources ride the multi-source kernel 64 at a time: pass p carries
// sources [64p, 64p+64) and reports one histogram per batch of its
// lanes. The passes run one after another on one scratch and fold in
// order with the stopping rule checked after each, so no pass past the
// stopping one runs. The first pass also records its first
// diameterSweeps lanes' far nodes, and the return sweeps from them run
// on its scratch before the second pass. A cancelled search reports
// nothing and ends the sample at what finished before it.
func pathLengthsFrom(ctx context.Context, g View, dir Direction, sources []NodeID, opt PathLengthOptions) *PathLengthDist {
	res := &PathLengthDist{}
	if len(sources) == 0 {
		return res
	}
	s := newMSBFS(g)
	sweeps := min(diameterSweeps, len(sources))
	var batches []batchSum
	for lo := 0; lo < len(sources); lo += msLanes {
		s.farLanes = 0
		if lo == 0 {
			s.farLanes = 1<<sweeps - 1
		}
		s.run(ctx, sources[lo:min(lo+msLanes, len(sources))], opt.BatchSize, true, dir == Undirected)
		if !s.done {
			return res
		}
		batches = res.add(s, batches)
		res.Sources = min(lo+msLanes, len(sources))
		res.HalfWidth = ratioHalfWidth(batches)
		if lo == 0 && !res.sweepBack(ctx, s, dir, sweeps) {
			return res
		}
		if res.Sources >= opt.MinSources && res.HalfWidth <= opt.Tolerance {
			return res
		}
	}
	return res
}

// sweepBack finishes the double sweeps of a first pass that recorded its
// first sweeps lanes: the bound takes their eccentricities, then the
// return sweeps from their far nodes run on the same scratch — over
// in-rows alone for the directed bound, the transpose graph, so that a
// path ending at the far node is measured end to end — and it takes
// theirs. A far node is the lowest-id one among equals. It reports
// false if ctx cut the return sweeps short; the bound then covers the
// first sweeps alone.
func (p *PathLengthDist) sweepBack(ctx context.Context, s *msBFS, dir Direction, sweeps int) bool {
	var far [diameterSweeps]NodeID
	copy(far[:], s.far[:sweeps])
	p.Diameter = int(slices.Max(s.ecc[:sweeps]))
	s.run(ctx, far[:sweeps], msLanes, dir == Undirected, true)
	if !s.done {
		return false
	}
	p.Diameter = max(p.Diameter, int(slices.Max(s.ecc[:sweeps])))
	return true
}

// batchSum is one batch's share of the sample: its reachable pairs and
// their summed hop counts.
type batchSum struct{ pairs, hops int64 }

// add folds a finished pass's histograms into p and appends its batches'
// sums to batches.
func (p *PathLengthDist) add(s *msBFS, batches []batchSum) []batchSum {
	k := len(s.masks)
	batches = append(batches, make([]batchSum, k)...)
	pass := batches[len(batches)-k:]
	for i, c := range s.hist {
		hop := i / k
		for hop >= len(p.Counts) {
			p.Counts = append(p.Counts, 0)
		}
		p.Counts[hop] += c
		p.Reachable += c
		pass[i%k].pairs += c
		pass[i%k].hops += int64(hop) * c
	}
	return batches
}

// z95 is the two-sided 95 % quantile of the standard normal.
const z95 = 1.96

// ratioHalfWidth is z95 standard errors of the ratio estimator
// R = Σ hops / Σ pairs over i.i.d. batches (Cochran, Sampling
// Techniques, §6.4): SE² = Σ (hops_b − R·pairs_b)² / (k (k−1) p̄²), with
// p̄ the mean pairs per batch. Fewer than two batches give +Inf.
func ratioHalfWidth(batches []batchSum) float64 {
	k := len(batches)
	if k < 2 {
		return math.Inf(1)
	}
	var pairs, hops int64
	for _, b := range batches {
		pairs += b.pairs
		hops += b.hops
	}
	r := float64(hops) / float64(pairs)
	var ss float64
	for _, b := range batches {
		d := float64(b.hops) - r*float64(b.pairs)
		ss += d * d
	}
	mean := float64(pairs) / float64(k)
	return z95 * math.Sqrt(ss/float64(k*(k-1))) / mean
}

// msLanes is how many BFS sources one multi-source pass carries: one
// per bit of a word.
const msLanes = 64

// msBFS is the scratch of one bit-parallel multi-source BFS worker
// (MS-BFS, Then et al., VLDB 2014). Lane i of every per-node word
// belongs to the pass's i-th source: seen[v] has the lanes that have
// reached v, frontier[v] the lanes that reached it at the current
// level, next[v] those reaching it at the following one. cur and nxt
// list the nodes whose frontier/next word is non-zero. Each level takes
// one of two steps (direction-optimising BFS, Beamer et al., SC 2012):
// a push reads the frontier's rows, a pull the reverse rows of the
// nodes some lane has not reached yet, whichever sum of row lengths is
// smaller. Either way a row is read through the cursor at most once per
// level for all lanes together, where a per-source BFS reads it once
// per source.
//
// frontier and next are all-zero between runs; only seen needs
// clearing.
type msBFS struct {
	g                    View
	rows                 Rows
	seen, frontier, next []uint64
	cur, nxt             []NodeID

	// The last run's result. masks[k] selects the lanes of the run's
	// k-th batch; hist is level-major, hist[hop*len(masks)+k] being the
	// number of (lane, node) pairs of that batch at that hop. done is
	// false when the run was cancelled, and hist is then meaningless.
	masks []uint64
	hist  []int64
	done  bool

	// farLanes selects the lanes whose ecc and far a run records, for
	// the double sweep: after a run, ecc[i] is the last level lane i's
	// search reached — its source's eccentricity — and far[i] the
	// lowest-id node at that level. Untracked lanes cost one AND per
	// frontier node.
	farLanes uint64
	ecc      [msLanes]int32
	far      [msLanes]NodeID

	// pulls is how many of the last run's levels pulled. It steers
	// nothing; tests read it to prove both step kinds ran.
	pulls int
}

func newMSBFS(g View) *msBFS {
	n := g.NumNodes()
	words := make([]uint64, 3*n)
	return &msBFS{
		g: g, rows: g.Rows(),
		seen: words[:n:n], frontier: words[n : 2*n : 2*n], next: words[2*n:],
		cur: make([]NodeID, 0, n), nxt: make([]NodeID, 0, n),
	}
}

// run searches from up to 64 sources at once, following out-edges,
// in-edges (the transpose graph), or both. The lanes split into batches
// of batchSize from lane 0, the last possibly shorter. ctx is consulted
// once per level.
//
// A level pulls when its frontier's rows are together longer than the
// reverse rows of the unfilled nodes — those whose seen word lacks some
// lane of the pass — and pushes otherwise. Neither step's result
// depends on the order it visits nodes in, so the choice changes which
// rows are read, never hist, ecc or far.
func (s *msBFS) run(ctx context.Context, sources []NodeID, batchSize int, out, in bool) {
	s.masks = s.masks[:0]
	for lo := 0; lo < len(sources); lo += batchSize {
		hi := min(len(sources), lo+batchSize)
		s.masks = append(s.masks, ^uint64(0)>>(msLanes-(hi-lo))<<lo)
	}
	clear(s.seen)
	for m := s.farLanes; m != 0; m &= m - 1 {
		s.ecc[bits.TrailingZeros64(m)] = -1
	}
	full := ^uint64(0) >> (msLanes - len(sources))
	// pullLen is what a pull would read: the unfilled nodes' reverse
	// rows, at first every node's, so one direction's edges per direction
	// walked. pushLen is what a push would read: the frontier's rows.
	pullLen := s.g.NumEdges()
	if out && in {
		pullLen *= 2
	}
	cur, nxt, hist := s.cur[:0], s.nxt[:0], s.hist[:0]
	for lane, src := range sources {
		// Sampling is with replacement: lanes may share a source.
		if s.frontier[src] == 0 {
			cur = append(cur, src)
		}
		s.frontier[src] |= 1 << lane
		s.seen[src] |= 1 << lane
	}
	pushLen, pullLen := s.tally(cur, full, out, in, pullLen)
	s.pulls = 0
	for len(cur) > 0 {
		if ctx.Err() != nil {
			for _, u := range cur {
				s.frontier[u] = 0
			}
			break
		}
		level := len(hist)
		for range s.masks {
			hist = append(hist, 0)
		}
		pull := pushLen > pullLen
		if pull {
			s.pulls++
			nxt = s.pull(full, out, in, nxt)
		}
		hop := int32(level / len(s.masks))
		for _, u := range cur {
			f := s.frontier[u]
			s.frontier[u] = 0
			for k, m := range s.masks {
				hist[level+k] += int64(bits.OnesCount64(f & m))
			}
			for m := f & s.farLanes; m != 0; m &= m - 1 {
				if lane := bits.TrailingZeros64(m); s.ecc[lane] != hop || u < s.far[lane] {
					s.ecc[lane], s.far[lane] = hop, u
				}
			}
			if pull {
				continue
			}
			if out {
				nxt = s.expand(f, s.rows.Out(u), nxt)
			}
			if in {
				nxt = s.expand(f, s.rows.In(u), nxt)
			}
		}
		pushLen, pullLen = s.tally(nxt, full, out, in, pullLen)
		cur, nxt = nxt, cur[:0]
		s.frontier, s.next = s.next, s.frontier
	}
	// The loop ends on an empty frontier unless cancellation broke it.
	s.cur, s.nxt, s.hist, s.done = cur, nxt, hist, len(cur) == 0
}

// tally prices the next level from its frontier, the nodes that just
// gained lanes: pushLen is their summed row length, and pullLen drops
// the reverse rows of those whose seen word the gain filled. A full
// word gains nothing more, so each node is dropped once.
func (s *msBFS) tally(frontier []NodeID, full uint64, out, in bool, pullLen int64) (int64, int64) {
	var pushLen int64
	for _, v := range frontier {
		pushLen += s.rowLen(v, out, in)
		if s.seen[v] == full {
			pullLen -= s.rowLen(v, in, out) // the reverse rows
		}
	}
	return pushLen, pullLen
}

// rowLen is the length of v's out-row, in-row or both, from the view's
// degrees.
func (s *msBFS) rowLen(v NodeID, out, in bool) int64 {
	var n int
	if out {
		n += s.g.OutDegree(v)
	}
	if in {
		n += s.g.InDegree(v)
	}
	return int64(n)
}

// expand carries the frontier lanes f along one row: each neighbour
// gains the lanes that had not reached it yet, and joins nxt on its
// first gain of the level.
func (s *msBFS) expand(f uint64, row []NodeID, nxt []NodeID) []NodeID {
	for _, v := range row {
		if gain := f &^ s.seen[v]; gain != 0 {
			if s.next[v] == 0 {
				nxt = append(nxt, v)
			}
			s.next[v] |= gain
			s.seen[v] |= gain
		}
	}
	return nxt
}

// pull is the bottom-up step: every unfilled node v ORs the frontier
// words over its reverse rows — In(v) of an out-search, Out(v) of an
// in-search, both of a search that walks both — stopping as soon as
// every lane it lacked has turned up, then gains what it found and
// joins nxt, in id order.
func (s *msBFS) pull(full uint64, out, in bool, nxt []NodeID) []NodeID {
	for v, seen := range s.seen {
		if seen == full {
			continue
		}
		var acc uint64
		if out {
			acc = s.gather(seen, full, s.rows.In(NodeID(v)))
		}
		if in && seen|acc != full {
			acc |= s.gather(seen|acc, full, s.rows.Out(NodeID(v)))
		}
		if gain := acc &^ seen; gain != 0 {
			s.next[v] = gain
			s.seen[v] = seen | gain
			nxt = append(nxt, NodeID(v))
		}
	}
	return nxt
}

// gather ORs the frontier words of row until, with have, they cover
// full.
func (s *msBFS) gather(have, full uint64, row []NodeID) uint64 {
	var acc uint64
	for _, u := range row {
		if acc |= s.frontier[u]; have|acc == full {
			break
		}
	}
	return acc
}
