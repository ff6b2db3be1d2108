package graph

import (
	"context"
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
	// Tolerance is the maximum L-infinity change between the normalized
	// distributions of consecutive batches that counts as converged.
	Tolerance float64
	// BatchSize is the number of sources added per convergence check.
	BatchSize int
	// Parallelism runs that many 64-source passes at a time, one
	// goroutine each. Results are identical for any value: sources are
	// pre-drawn from Rand in order and batch histograms fold in source
	// order.
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
		o.Tolerance = 1e-3
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
}

// SamplePathLengths estimates the pairwise hop-distance distribution by
// running full BFS from randomly sampled sources, the procedure of §3.3.5.
// It stops early once the distribution stabilizes or ctx is cancelled
// (returning the estimate so far). The result is independent of
// Parallelism: sources are drawn up-front in a fixed order and per-batch
// histograms fold in that order.
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

// pathLengthsFrom is SamplePathLengths over an explicit source list
// (opt already defaulted; len(sources) stands in for MaxSources).
//
// Sources ride the multi-source kernel 64 at a time: pass p carries
// sources [64p, 64p+64), whatever batches those lanes belong to, and
// reports one histogram per batch it touches. A round runs the next
// Parallelism passes concurrently, then folds every batch whose lanes
// have all arrived, in order, with the convergence check after each —
// so the fold sees exactly what a source-by-source scan would, and
// passes past the converging batch are simply dropped. A cancelled pass
// reports nothing and ends the sample at the sources before it.
func pathLengthsFrom(ctx context.Context, g View, dir Direction, sources []NodeID, opt PathLengthOptions) *PathLengthDist {
	res := &PathLengthDist{}
	passes := (len(sources) + msLanes - 1) / msLanes
	// pending[b] is batch b's histogram so far, summed over the passes
	// that carry its lanes.
	pending := make([][]int64, (len(sources)+opt.BatchSize-1)/opt.BatchSize)
	var scratch []*msBFS
	var prevProb []float64
	for pass := 0; pass < passes; {
		round := min(opt.Parallelism, passes-pass)
		for len(scratch) < round {
			scratch = append(scratch, newMSBFS(g))
		}
		runShards(uniformBounds(round, round), func(w, _, _ int) {
			lo := (pass + w) * msLanes
			hi := min(lo+msLanes, len(sources))
			scratch[w].run(ctx, sources[lo:hi], lo, opt.BatchSize, true, dir == Undirected)
		})
		covered, cancelled := pass*msLanes, false
		for _, s := range scratch[:round] {
			if !s.done {
				cancelled = true
				break
			}
			covered = min(covered+msLanes, len(sources))
			for i, c := range s.hist {
				if c == 0 {
					continue // this batch's lanes finished at an earlier level
				}
				b, hop := s.firstBatch+i%len(s.masks), i/len(s.masks)
				for hop >= len(pending[b]) {
					pending[b] = append(pending[b], 0)
				}
				pending[b][hop] += c
			}
		}
		for res.Sources < len(sources) {
			end := min(res.Sources+opt.BatchSize, len(sources))
			if end > covered {
				break
			}
			res.add(pending[res.Sources/opt.BatchSize], end)
			prob := res.Probability()
			if res.Sources >= opt.MinSources && prevProb != nil && linfDelta(prevProb, prob) < opt.Tolerance {
				return res
			}
			prevProb = prob
		}
		if cancelled {
			// The estimate so far includes the completed head of the
			// batch the cancellation landed in.
			if covered > res.Sources {
				res.add(pending[res.Sources/opt.BatchSize], covered)
			}
			return res
		}
		pass += round
	}
	return res
}

// add folds a histogram covering the sources up to end into p.
func (p *PathLengthDist) add(counts []int64, end int) {
	for h, c := range counts {
		for h >= len(p.Counts) {
			p.Counts = append(p.Counts, 0)
		}
		p.Counts[h] += c
		p.Reachable += c
	}
	p.Sources = end
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

	// The last run's result. masks[k] selects the lanes of batch
	// firstBatch+k; hist is level-major, hist[hop*len(masks)+k] being
	// the number of (lane, node) pairs of that batch at that hop. done
	// is false when the run was cancelled, and hist is then meaningless.
	masks      []uint64
	hist       []int64
	firstBatch int
	done       bool

	// Set by trackFar, for the double sweep: after a run, ecc[i] is the
	// last level lane i's search reached — its source's eccentricity —
	// and far[i] the lowest-id node at that level. nil on the path
	// sample's workers, which skip the per-lane bookkeeping.
	ecc []int32
	far []NodeID

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

// trackFar makes every later run record each lane's ecc and far.
func (s *msBFS) trackFar() {
	s.ecc, s.far = make([]int32, msLanes), make([]NodeID, msLanes)
}

// run searches from up to 64 sources at once, following out-edges,
// in-edges (the transpose graph), or both. base is the position of
// sources[0] in the whole sample, which decides how the lanes split
// into batches of batchSize. ctx is consulted once per level.
//
// A level pulls when its frontier's rows are together longer than the
// reverse rows of the unfilled nodes — those whose seen word lacks some
// lane of the pass — and pushes otherwise. Neither step's result
// depends on the order it visits nodes in, so the choice changes which
// rows are read, never hist, ecc or far.
func (s *msBFS) run(ctx context.Context, sources []NodeID, base, batchSize int, out, in bool) {
	s.masks, s.firstBatch = s.masks[:0], base/batchSize
	for lo := 0; lo < len(sources); {
		hi := min(len(sources), (base+lo)/batchSize*batchSize+batchSize-base)
		s.masks = append(s.masks, ^uint64(0)>>(msLanes-(hi-lo))<<lo)
		lo = hi
	}
	clear(s.seen)
	for lane := range s.ecc {
		s.ecc[lane] = -1
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
		for _, u := range cur {
			f := s.frontier[u]
			s.frontier[u] = 0
			for k, m := range s.masks {
				hist[level+k] += int64(bits.OnesCount64(f & m))
			}
			if s.far != nil {
				hop := int32(level / len(s.masks))
				for m := f; m != 0; m &= m - 1 {
					if lane := bits.TrailingZeros64(m); s.ecc[lane] != hop || u < s.far[lane] {
						s.ecc[lane], s.far[lane] = hop, u
					}
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

func linfDelta(a, b []float64) float64 {
	var max float64
	long := a
	if len(b) > len(long) {
		long = b
	}
	for i := range long {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d := av - bv
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// DoubleSweepDiameter returns a lower bound on the diameter (longest
// shortest path) using repeated double sweeps: BFS from a node, then BFS
// again from the farthest node found (the lowest-id one among equals).
// For directed graphs the second sweep runs backwards over in-edges, the
// standard directed variant, so that a path ending at the far node is
// measured end to end. sweeps controls how many restarts are tried from
// random nodes. The restarts are drawn from rng up front and are
// independent, so they ride the multi-source kernel 64 to a pass — every
// first sweep of a pass in one search, then every return sweep in
// another, a row read at most once per level for all of them — with the
// passes spread over parallelism workers and merged by max: the bound is
// the same at any parallelism. ctx is consulted once per level; once it
// is cancelled the sweeps stop and the bound covers only the searches
// that finished.
func DoubleSweepDiameter(ctx context.Context, g View, dir Direction, sweeps int, rng *rand.Rand, parallelism int) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if sweeps <= 0 {
		sweeps = 4
	}
	starts := make([]NodeID, sweeps)
	for i := range starts {
		starts[i] = NodeID(rng.IntN(n))
	}
	bounds := uniformBounds((sweeps+msLanes-1)/msLanes, parallelism)
	best := make([]int32, len(bounds)-1)
	runShards(bounds, func(shard, lo, hi int) {
		s := newMSBFS(g)
		s.trackFar()
		for pass := lo; pass < hi; pass++ {
			lanes := starts[pass*msLanes : min(pass*msLanes+msLanes, sweeps)]
			for hop := 0; hop < 2; hop++ {
				// The directed return sweep runs over the transpose graph.
				back := dir == Directed && hop == 1
				s.run(ctx, lanes, 0, len(lanes), !back, back || dir == Undirected)
				if !s.done {
					return
				}
				best[shard] = max(best[shard], slices.Max(s.ecc[:len(lanes)]))
				copy(lanes, s.far)
			}
		}
	})
	return int(slices.Max(best))
}
