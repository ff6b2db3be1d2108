// Package core implements the paper's analyses: every table and figure
// of "New Kid on the Block: Exploring the Google+ Social Graph" (IMC'12)
// is computed from a dataset.Dataset by a Study.
//
// Node-characteristic analyses (Tables 1-3, Figures 2, 6-10) run over
// crawled profiles only, matching the paper's 27.5M-profile set, while
// structural analyses (Table 4, Figures 3-5) run over the full discovered
// graph, matching the paper's 35.1M-node graph G.
package core

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"

	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/obs/trace"
	"gplus/internal/stats"
)

// Study computes the paper's analyses over one dataset. All methods are
// deterministic for a fixed Options.Seed and derive their own RNGs.
//
// The six structural stages (degrees, reciprocity, scc, wcc, paths,
// triads) and Figure 9(a)'s pair sample (fig9) are memoised: each is
// computed at most once per Study, by whichever of Structure, the
// per-figure methods, Topology and the plot-data writer asks first, so
// Table 4 is Figures 4(a) and 5 and a caller pays only for the
// stages it names. Concurrent callers of one stage wait for the one
// computation. The cached results are shared by every caller and must
// not be mutated. A stage that ran under a cancelled ctx is returned but
// not cached: the next call computes it in full. The located column
// under Figures 9 and 10 is built once as well. Everything else is
// recomputed per call and touches no shared state.
//
// Independent work within one call runs side by side through the
// Study's one fan-out, at most Options.Parallelism tasks at once:
// Structure's stages, Table 4's paths and reciprocity stages, the paths
// stage's two samples and two diameter bounds, Figure 9(a)'s three CDF
// sorts. A call still computes only the stages it names: Topology never
// runs the triad census.
type Study struct {
	ds   *dataset.Dataset
	opts Options

	// g is the dataset's graph read surface, cached once: the in-RAM
	// *graph.Graph or the mmap-backed v2 view. Every analysis goes
	// through it, so a Study never needs the concrete backend.
	g graph.View

	degreesMemo     memo[DegreeDistributions]
	reciprocityMemo memo[ReciprocityResult]
	sccMemo         memo[SCCResult]
	wccMemo         memo[WCCResult]
	pathsMemo       memo[PathLengthResult]
	triadsMemo      memo[triadResult]
	pathMilesMemo   memo[PathMileResult]

	// The located column, shared by Figures 9(a), 9(b) and 10.
	locatedOnce sync.Once
	locatedCol  locatedColumn
}

// memo is one structural stage's result once it has been computed.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

// once returns the stage's cached result, or computes it inside one
// analyze.<name> span while later callers wait on the lock. A context
// already cancelled when the span opens computes nothing: the caller
// gets the zero value and the context's error, and nothing is kept.
func once[T any](ctx context.Context, s *Study, m *memo[T], name string, compute func(context.Context) (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.val, m.err
	}
	ctx, sp := s.opts.Tracer.StartSpan(ctx, "analyze."+name)
	defer sp.Finish()
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	val, err := compute(ctx)
	if ctx.Err() == nil {
		m.val, m.err, m.done = val, err, true
	}
	return val, err
}

// Options tunes the sampled analyses.
type Options struct {
	// Seed drives every sampled analysis (path lengths, path miles).
	// Defaults to 2012.
	Seed uint64
	// PathSources caps the BFS sources of each Figure 5 sample
	// (default 256; the paper used up to 10,000 on a 35M-node graph).
	// A sample draws at least a quarter of it and stops at the first
	// 64-source pass whose mean is within ±0.1 hop at 95 %, so the cap
	// binds only where that precision needs more sources.
	PathSources int
	// PairSample bounds each Figure 9 pair population. The default,
	// 18,445, is the DKW size for a CDF error of PairSampleEps at
	// confidence 1 − PairSampleAlpha; the paper used 13-60 million pairs.
	PairSample int
	// Parallelism fans every graph analysis except the serial SCC
	// (degrees, reciprocity, clustering, WCC, triangles, BFS sampling) out
	// over this many goroutines, and bounds how many independent tasks of
	// one call run side by side (default: up to 8, bounded by
	// GOMAXPROCS). Results are identical for any value.
	Parallelism int
	// Tracer, when non-nil, wraps each stage computation in a span named
	// analyze.<stage>, so the per-stage wall-clock breakdown can be read
	// back from the tracer's flight recorder. A nil Tracer is free.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2012
	}
	if o.PathSources <= 0 {
		o.PathSources = 256
	}
	if o.PairSample <= 0 {
		o.PairSample = stats.DKWSize(PairSampleEps, PairSampleAlpha)
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
		if o.Parallelism > 8 {
			o.Parallelism = 8
		}
	}
	return o
}

// New builds a Study over a dataset.
func New(ds *dataset.Dataset, opts Options) *Study {
	return &Study{ds: ds, opts: opts.withDefaults(), g: ds.View()}
}

// Dataset returns the underlying dataset.
func (s *Study) Dataset() *dataset.Dataset { return s.ds }

// fanOut is the Study's one fan-out: it runs every task, at most
// Parallelism at a time, and returns when all have. The tasks must be
// independent — each writes only its own results and draws from its own
// RNG stream — so what they compute does not depend on which runs when.
// At Parallelism 1 they run in order on the caller's goroutine.
func (s *Study) fanOut(tasks ...func()) {
	limit := min(s.opts.Parallelism, len(tasks))
	if limit <= 1 {
		for _, run := range tasks {
			run()
		}
		return
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, run := range tasks {
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run()
		}()
	}
	wg.Wait()
}

// rng derives an independent deterministic stream per analysis.
func (s *Study) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(s.opts.Seed, s.opts.Seed^(stream*0x9e3779b97f4a7c15+stream)))
}

// eachCrawled visits every crawled profile with its node id.
func (s *Study) eachCrawled(fn func(node graph.NodeID)) {
	for i := range s.ds.Profiles {
		if s.ds.Crawled[i] {
			fn(graph.NodeID(i))
		}
	}
}
