package graph

import (
	"context"
	"math/rand/v2"
	"sync"
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

// newBFSWorkers returns one scratch per BFS worker.
func newBFSWorkers(g View, workers int) []*bfsScratch {
	scratch := make([]*bfsScratch, workers)
	for w := range scratch {
		scratch[w] = newBFSScratch(g, nil)
	}
	return scratch
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
	if p.Reachable == 0 {
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

// MaxObserved returns the largest distance seen in the sample, a lower
// bound on the diameter.
func (p *PathLengthDist) MaxObserved() int {
	for h := len(p.Counts) - 1; h >= 0; h-- {
		if p.Counts[h] > 0 {
			return h
		}
	}
	return 0
}

// PathLengthOptions controls SamplePathLengths.
type PathLengthOptions struct {
	// MinSources and MaxSources bound the number of BFS sources. The paper
	// started with 2,000 sources and grew to 10,000, stopping once the
	// distribution no longer changed.
	MinSources int
	MaxSources int
	// Tolerance is the maximum L-infinity change between the normalized
	// distributions of consecutive batches that counts as converged.
	Tolerance float64
	// BatchSize is the number of sources added per convergence check.
	BatchSize int
	// Parallelism runs BFS sources on this many goroutines. Results are
	// identical for any value: sources are pre-drawn from Rand in order
	// and histograms merge by summation.
	Parallelism int
	// Rand supplies source sampling. Required.
	Rand *rand.Rand
}

func (o *PathLengthOptions) setDefaults() {
	if o.MinSources <= 0 {
		o.MinSources = 64
	}
	if o.MaxSources <= 0 {
		o.MaxSources = 1024
	}
	if o.MaxSources < o.MinSources {
		o.MaxSources = o.MinSources
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
// histograms merge by summation.
func SamplePathLengths(ctx context.Context, g View, dir Direction, opt PathLengthOptions) *PathLengthDist {
	opt.setDefaults()
	n := g.NumNodes()
	res := &PathLengthDist{}
	if n == 0 {
		return res
	}
	sources := make([]NodeID, opt.MaxSources)
	for i := range sources {
		sources[i] = NodeID(opt.Rand.IntN(n))
	}

	var prevProb []float64
	scratch := newBFSWorkers(g, opt.Parallelism)
	for res.Sources < opt.MaxSources {
		batch := opt.BatchSize
		if res.Sources+batch > opt.MaxSources {
			batch = opt.MaxSources - res.Sources
		}
		if ctx.Err() != nil {
			return res
		}
		counts, done := bfsBatch(ctx, dir, sources[res.Sources:res.Sources+batch], scratch)
		for h, c := range counts {
			for h >= len(res.Counts) {
				res.Counts = append(res.Counts, 0)
			}
			res.Counts[h] += c
			res.Reachable += c
		}
		// Count only the sources whose BFS actually completed: on
		// cancellation mid-batch, done < batch, and crediting the full
		// batch would make Sources (and the convergence check) lie.
		res.Sources += done
		if done < batch {
			return res
		}

		prob := res.Probability()
		if res.Sources >= opt.MinSources && prevProb != nil && linfDelta(prevProb, prob) < opt.Tolerance {
			break
		}
		prevProb = prob
	}
	return res
}

// bfsBatch runs BFS from each source, fanned out over len(scratch)
// goroutines, and returns the summed distance histogram along with how
// many sources actually completed (fewer than len(sources) only when the
// context was cancelled mid-batch). Each worker reuses its scratch
// between sources.
//
// The pair (histogram, done) always means "the first done sources, in
// order": the caller advances its Sources cursor by done, so the merged
// histogram must cover exactly the prefix sources[:done]. Workers take
// strided source indices, so under cancellation they complete a
// *scattered* subset; merging everything completed while reporting its
// count as a prefix would credit later sources' distances to earlier
// positions and make a cancelled P>1 run disagree with the P=1 run.
// Instead each source keeps its own histogram and only the longest
// fully-completed prefix merges — completed work beyond the first gap is
// discarded, exactly as if the serial scan had been cancelled there.
func bfsBatch(ctx context.Context, dir Direction, sources []NodeID, scratch []*bfsScratch) ([]int64, int) {
	workers := len(scratch)
	if workers <= 1 || len(sources) < 2 {
		return bfsBatchSeq(ctx, dir, sources, scratch[0])
	}
	perSrc := make([][]int64, len(sources))
	finished := make([]bool, len(sources))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided assignment keeps the partition deterministic.
			for i := w; i < len(sources); i += workers {
				if ctx.Err() != nil {
					return
				}
				var counts []int64
				for _, d := range scratch[w].run(sources[i], true, dir == Undirected) {
					if d < 0 {
						continue
					}
					for int(d) >= len(counts) {
						counts = append(counts, 0)
					}
					counts[d]++
				}
				perSrc[i] = counts
				finished[i] = true
			}
		}(w)
	}
	wg.Wait()
	done := 0
	for done < len(sources) && finished[done] {
		done++
	}
	var out []int64
	for _, p := range perSrc[:done] {
		for h, c := range p {
			for h >= len(out) {
				out = append(out, 0)
			}
			out[h] += c
		}
	}
	return out, done
}

// bfsBatchSeq runs BFS from each source in order and returns the summed
// histogram plus the number of sources it finished before cancellation.
func bfsBatchSeq(ctx context.Context, dir Direction, sources []NodeID, scratch *bfsScratch) ([]int64, int) {
	var counts []int64
	for i, src := range sources {
		if ctx.Err() != nil {
			return counts, i
		}
		for _, d := range scratch.run(src, true, dir == Undirected) {
			if d < 0 {
				continue
			}
			for int(d) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	return counts, len(sources)
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
// again from the farthest node found. For directed graphs the second sweep
// runs backwards over in-edges, the standard directed variant, so that a
// path ending at the far node is measured end to end. sweeps controls how
// many restarts are tried from random nodes.
func DoubleSweepDiameter(g View, dir Direction, sweeps int, rng *rand.Rand) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if sweeps <= 0 {
		sweeps = 4
	}
	best := 0
	scratch := newBFSScratch(g, nil)
	for s := 0; s < sweeps; s++ {
		src := NodeID(rng.IntN(n))
		for hop := 0; hop < 2; hop++ {
			// The directed return sweep runs over the transpose graph.
			back := dir == Directed && hop == 1
			dist := scratch.run(src, !back, back || dir == Undirected)
			far, farD := src, int32(0)
			for v, d := range dist {
				if d > farD {
					far, farD = NodeID(v), d
				}
			}
			if int(farD) > best {
				best = int(farD)
			}
			src = far
		}
	}
	return best
}
