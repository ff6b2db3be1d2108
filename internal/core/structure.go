package core

import (
	"context"

	"gplus/internal/graph"
	"gplus/internal/stats"
)

// DegreeDistributions is Figure 3: the in- and out-degree CCDFs with the
// paper's log-log power-law fits plus maximum-likelihood cross-checks.
type DegreeDistributions struct {
	In, Out []stats.Point
	// InFit and OutFit are the paper's estimator: least squares over the
	// log-log CCDF (§3.3.1).
	InFit, OutFit stats.PowerLawFit
	// InMLE and OutMLE are Clauset-style tail MLE estimates of the same
	// CCDF exponents, with asymptotic standard errors — the estimator the
	// later literature recommends over regression.
	InMLE, OutMLE       float64
	InMLEErr, OutMLEErr float64
}

// degreeMLEXmin is the tail cutoff for the MLE cross-check; it skips the
// flattened head of the degree curves.
const degreeMLEXmin = 10

// Degrees computes Figure 3 over the full graph.
func (s *Study) Degrees() (DegreeDistributions, error) {
	return s.degrees(context.Background())
}

func (s *Study) degrees(ctx context.Context) (DegreeDistributions, error) {
	return once(ctx, s, &s.degreesMemo, "degrees", func(context.Context) (DegreeDistributions, error) {
		inDegs := graph.InDegrees(s.g, s.opts.Parallelism)
		outDegs := graph.OutDegrees(s.g, s.opts.Parallelism)
		in := stats.CCDFInts(inDegs)
		out := stats.CCDFInts(outDegs)
		inFit, err := stats.FitPowerLawCCDF(in, 1)
		if err != nil {
			return DegreeDistributions{}, err
		}
		outFit, err := stats.FitPowerLawCCDF(out, 1)
		if err != nil {
			return DegreeDistributions{}, err
		}
		dd := DegreeDistributions{In: in, Out: out, InFit: inFit, OutFit: outFit}
		// The MLE cross-check is best-effort: tiny datasets may lack a tail.
		if a, se, err := stats.FitDegreesMLE(inDegs, degreeMLEXmin); err == nil {
			dd.InMLE, dd.InMLEErr = a, se
		}
		if a, se, err := stats.FitDegreesMLE(outDegs, degreeMLEXmin); err == nil {
			dd.OutMLE, dd.OutMLEErr = a, se
		}
		return dd, nil
	})
}

// WCCResult is the §3.3.4 weak-connectivity check: a bidirectional
// snowball crawl yields a single weakly connected component by
// construction.
type WCCResult struct {
	Count         int
	GiantSize     int
	GiantFraction float64
}

// WCC computes weak connectivity over the full graph. GiantFraction uses
// the analyzed graph's node count as denominator — the same §3.3.4
// interpretation as SCC — so the two connectivity figures are comparable
// even when the dataset's user roster and the graph disagree.
func (s *Study) WCC() WCCResult {
	return s.wcc(context.Background())
}

func (s *Study) wcc(ctx context.Context) WCCResult {
	res, _ := once(ctx, s, &s.wccMemo, "wcc", func(context.Context) (WCCResult, error) {
		res := graph.WCC(s.g, s.opts.Parallelism)
		return WCCResult{
			Count:         res.Count,
			GiantSize:     res.GiantSize(),
			GiantFraction: res.GiantFraction(),
		}, nil
	})
	return res
}

// ReciprocityResult is Figure 4(a) plus the Table 4 global figure.
type ReciprocityResult struct {
	// CDF is the distribution of per-node RR(u) over nodes with
	// out-edges.
	CDF []stats.Point
	// Global is the fraction of edges that are reciprocated.
	Global float64
	// FractionAbove06 is the paper's headline: the share of users with
	// RR > 0.6.
	FractionAbove06 float64
}

// Reciprocity computes Figure 4(a).
func (s *Study) Reciprocity() ReciprocityResult {
	return s.reciprocity(context.Background())
}

func (s *Study) reciprocity(ctx context.Context) ReciprocityResult {
	res, _ := once(ctx, s, &s.reciprocityMemo, "reciprocity", func(context.Context) (ReciprocityResult, error) {
		// One scan yields |OS(u) ∩ IS(u)| per node; RR(u) and the global
		// fraction are both ratios of it.
		shared := graph.ReciprocalCounts(s.g, s.opts.Parallelism)
		rrs := make([]float64, 0, len(shared))
		var reciprocated int64
		over := 0
		for u, c := range shared {
			reciprocated += int64(c)
			if k := s.g.OutDegree(graph.NodeID(u)); k > 0 {
				rr := float64(c) / float64(k)
				if rr > 0.6 {
					over++
				}
				rrs = append(rrs, rr)
			}
		}
		res := ReciprocityResult{CDF: stats.CDF(rrs)}
		if m := s.g.NumEdges(); m > 0 {
			res.Global = float64(reciprocated) / float64(m)
		}
		if len(rrs) > 0 {
			res.FractionAbove06 = float64(over) / float64(len(rrs))
		}
		return res, nil
	})
	return res
}

// ClusteringResult is Figure 4(b).
type ClusteringResult struct {
	// CDF is the distribution of clustering coefficients over the nodes
	// with out-degree > 1.
	CDF []stats.Point
	// Mean is the mean coefficient over those nodes.
	Mean float64
	// FractionAbove02 is the paper's headline: ~40% of users with
	// CC > 0.2.
	FractionAbove02 float64
	// Sampled is how many nodes the figure covers: every eligible node,
	// where the paper sampled one million.
	Sampled int
	// ByDegree is the exact C(k) curve (mean coefficient by out-degree).
	ByDegree []graph.DegreeClustering
}

// Clustering computes Figure 4(b), exactly, over every eligible node:
// the numerators are a by-product of the closed-triple enumeration the
// motif census runs at any size.
func (s *Study) Clustering() ClusteringResult {
	return s.triads(context.Background()).Clustering
}

// mean is the in-order arithmetic mean, 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MotifResult is the exact triangle count and directed 3-node motif
// census — the follow-up analysis of Schiöberg et al. on the same
// crawl, replacing sampled closed-triple estimates with exact counts.
type MotifResult struct {
	// Census is the full 16-class directed triad census.
	Census *graph.MotifCensus
	// TriangleTotal is the number of triangles in the undirected
	// projection, and TriangleMethod the kernel that counted it.
	TriangleTotal  int64
	TriangleMethod graph.TriangleMethod
	// Transitivity is the global transitivity ratio of the projection
	// (closed wedges over all wedges).
	Transitivity float64
}

// Motifs computes the exact triangle count and triad census. The error
// is always nil.
func (s *Study) Motifs() (MotifResult, error) {
	return s.triads(context.Background()).Motifs, nil
}

// triads is the one stage behind Figure 4(b) and the motif census: one
// closed-triple enumeration yields the clustering numerator of every
// node, in id order, and the triangle and triad counts; every figure is
// a ratio of them. A cancelled call returns the zero result, unkept.
func (s *Study) triads(ctx context.Context) triadResult {
	res, _ := once(ctx, s, &s.triadsMemo, "triads", func(ctx context.Context) (triadResult, error) {
		res, err := graph.Triads(ctx, s.g, s.opts.Parallelism)
		if err != nil {
			return triadResult{}, err
		}

		coeffs := graph.ClusteringFromLinks(s.g, res.Links)
		over := 0
		for _, c := range coeffs {
			if c > 0.2 {
				over++
			}
		}
		cl := ClusteringResult{
			CDF:      stats.CDF(coeffs),
			Mean:     mean(coeffs),
			Sampled:  len(coeffs),
			ByDegree: graph.ClusteringByDegree(s.g, res.Links),
		}
		if len(coeffs) > 0 {
			cl.FractionAbove02 = float64(over) / float64(len(coeffs))
		}
		census := res.Census // a copy: the result must not pin the per-node arrays
		return triadResult{cl, MotifResult{
			Census:         &census,
			TriangleTotal:  res.Triangles.Total,
			TriangleMethod: res.Triangles.Method,
			Transitivity:   res.Triangles.Transitivity(),
		}}, nil
	})
	return res
}

// triadResult is the two figures the triads stage yields.
type triadResult struct {
	Clustering ClusteringResult
	Motifs     MotifResult
}

// SCCResult is Figure 4(c).
type SCCResult struct {
	// Count is the number of strongly connected components (the paper
	// found 9,771,696).
	Count int
	// GiantSize and GiantFraction describe the giant component (the
	// paper: 25.24M nodes, ~70% of the graph).
	GiantSize     int
	GiantFraction float64
	// SizeCCDF is the CCDF over component sizes.
	SizeCCDF []stats.Point
}

// SCC computes Figure 4(c) over the full graph (serial Tarjan; the stage
// overlaps with the other structural stages in Structure).
func (s *Study) SCC() SCCResult {
	return s.scc(context.Background())
}

func (s *Study) scc(ctx context.Context) SCCResult {
	res, _ := once(ctx, s, &s.sccMemo, "scc", func(context.Context) (SCCResult, error) {
		res := graph.SCC(s.g)
		sizes := make([]float64, len(res.Sizes))
		for i, sz := range res.Sizes {
			sizes[i] = float64(sz)
		}
		return SCCResult{
			Count:         res.Count,
			GiantSize:     res.GiantSize(),
			GiantFraction: res.GiantFraction(),
			SizeCCDF:      stats.CCDF(sizes),
		}, nil
	})
	return res
}

// PathLengthResult is Figure 5 plus the Table 4 diameter entries.
type PathLengthResult struct {
	Directed, Undirected *graph.PathLengthDist
	// DiameterDirected and DiameterUndirected are double-sweep lower
	// bounds (the paper reports 19 and 13).
	DiameterDirected, DiameterUndirected int
}

// PathLengths computes Figure 5 by sampled BFS, the paper's §3.3.5
// procedure (grow the source sample until the distribution stabilizes),
// with "stabilizes" read as a 95 % half-width of at most 0.1 hop on
// each mean, the precision the paper reports.
// Its four searches — the directed and undirected samples and the two
// double-sweep diameter bounds — each draw from their own stream (3 to
// 6), so they run side by side under the Study's worker budget, and
// each parallelizes internally. The two samples split that budget, so
// together they hold at most Parallelism BFS scratches, as one sample
// run alone would.
func (s *Study) PathLengths(ctx context.Context) PathLengthResult {
	res, _ := once(ctx, s, &s.pathsMemo, "paths", func(ctx context.Context) (PathLengthResult, error) {
		var res PathLengthResult
		sample := func(dst **graph.PathLengthDist, dir graph.Direction, stream uint64) func() {
			return func() {
				*dst = graph.SamplePathLengths(ctx, s.g, dir, graph.PathLengthOptions{
					MinSources:  s.opts.PathSources / 4,
					MaxSources:  s.opts.PathSources,
					Parallelism: max(1, s.opts.Parallelism/2),
					Rand:        s.rng(stream),
				})
			}
		}
		// Each bound's restarts share one multi-source search per sweep.
		bound := func(dst *int, dir graph.Direction, stream uint64) func() {
			return func() {
				*dst = graph.DoubleSweepDiameter(ctx, s.g, dir, diameterSweeps, s.rng(stream), s.opts.Parallelism)
			}
		}
		s.fanOut(
			sample(&res.Directed, graph.Directed, 3),
			sample(&res.Undirected, graph.Undirected, 4),
			bound(&res.DiameterDirected, graph.Directed, 5),
			bound(&res.DiameterUndirected, graph.Undirected, 6),
		)
		return res, nil
	})
	return res
}

// diameterSweeps is the double-sweep restarts behind each diameter bound.
const diameterSweeps = 4

// TopologyRow is one row of Table 4: the graph's size beside the
// Figure 5 directed average and diameter bound and the Figure 4(a)
// global reciprocity — the same measurements, not a second sample.
type TopologyRow struct {
	Network        string
	Nodes          int
	Edges          int64
	CrawledPercent float64 // share of nodes whose profile was fetched
	PathLength     float64 // PathLengths().Directed.Mean()
	Reciprocity    float64 // Reciprocity().Global
	Diameter       int     // PathLengths().DiameterDirected
	AvgDegree      float64
}

// Topology assembles the Google+ row of Table 4 from the paths and
// reciprocity stages.
func (s *Study) Topology(ctx context.Context) TopologyRow {
	row := s.topologyRow(ctx, "Google+")
	if n := s.ds.NumUsers(); n > 0 {
		row.CrawledPercent = 100 * float64(s.ds.NumCrawled()) / float64(n)
	}
	return row
}

// BaselineTopology computes a Table 4 row for a comparison graph
// produced by the synth baselines (or any other graph): the same two
// stages, untraced, on a throw-away Study over g.
func (s *Study) BaselineTopology(ctx context.Context, name string, g graph.View) TopologyRow {
	base := &Study{opts: s.opts, g: g}
	base.opts.Tracer = nil
	row := base.topologyRow(ctx, name)
	row.CrawledPercent = 100
	return row
}

// topologyRow computes the row's two stages side by side.
func (s *Study) topologyRow(ctx context.Context, name string) TopologyRow {
	var paths PathLengthResult
	var rec ReciprocityResult
	s.fanOut(
		func() { paths = s.PathLengths(ctx) },
		func() { rec = s.reciprocity(ctx) },
	)
	return TopologyRow{
		Network:     name,
		Nodes:       s.g.NumNodes(),
		Edges:       s.g.NumEdges(),
		PathLength:  paths.Directed.Mean(),
		Reciprocity: rec.Global,
		Diameter:    paths.DiameterDirected,
		AvgDegree:   graph.AvgDegree(s.g),
	}
}

// StructureResult bundles every structural analysis of §3.3 — Table 4
// plus Figures 3, 4, and 5.
type StructureResult struct {
	Degrees     DegreeDistributions
	Reciprocity ReciprocityResult
	Clustering  ClusteringResult
	SCC         SCCResult
	WCC         WCCResult
	Paths       PathLengthResult
	Motifs      MotifResult
}

// Structure returns every structural analysis, fanning the stages not
// yet computed out through fanOut; each stage additionally parallelizes
// internally. Every stage derives its own RNG stream, so the results
// are identical for any Parallelism — the same contract the graph
// package promises. A ctx cancelled before the fan-out ends returns its
// error, not the cut-short figures.
func (s *Study) Structure(ctx context.Context) (*StructureResult, error) {
	ctx, sp := s.opts.Tracer.StartSpan(ctx, "analyze.structure")
	defer sp.Finish()

	res := &StructureResult{}
	var degErr error
	s.fanOut(
		func() { res.Degrees, degErr = s.degrees(ctx) },
		func() { res.Reciprocity = s.reciprocity(ctx) },
		func() { res.SCC = s.scc(ctx) },
		func() { res.WCC = s.wcc(ctx) },
		func() { res.Paths = s.PathLengths(ctx) },
		func() { t := s.triads(ctx); res.Clustering, res.Motifs = t.Clustering, t.Motifs },
	)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if degErr != nil {
		return nil, degErr
	}
	return res, nil
}

// LostEdgeEstimate reproduces §2.2's estimate of edges lost to the
// service's circle-list cap: compare the in-circle counts declared on
// profile pages against the edges actually collected for users whose
// lists were truncated.
type LostEdgeEstimate struct {
	// CircleCap is the cap assumed (10,000 on the live service).
	CircleCap int
	// UsersOverCap is how many crawled users declare more in-circle
	// members than the cap (the paper found 915).
	UsersOverCap int
	// DeclaredEdges is their total declared in-degree (paper: 37.2M);
	// FoundEdges is what the bidirectional crawl recovered for them
	// (paper: 27.6M).
	DeclaredEdges, FoundEdges int64
	// LostFraction is (Declared-Found)/total collected edges (paper:
	// 1.6%).
	LostFraction float64
}

// LostEdges computes the §2.2 estimate for a given cap.
func (s *Study) LostEdges(circleCap int) LostEdgeEstimate {
	est := LostEdgeEstimate{CircleCap: circleCap}
	s.eachCrawled(func(node graph.NodeID) {
		declared := s.ds.Profiles[node].DeclaredInDegree
		if declared <= circleCap {
			return
		}
		est.UsersOverCap++
		est.DeclaredEdges += int64(declared)
		est.FoundEdges += int64(s.g.InDegree(node))
	})
	if total := s.g.NumEdges(); total > 0 {
		est.LostFraction = float64(est.DeclaredEdges-est.FoundEdges) / float64(total)
	}
	return est
}
