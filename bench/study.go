package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/paper"
	"gplus/internal/report"
)

// prepareStudy is the prepare child of study_*: it writes the universe
// as a v2 dataset and exits, so the measuring child starts with nothing
// of the generator resident.
func prepareStudy(env *childEnv) (*childResult, error) {
	res := newChildResult()
	setup := time.Now()
	u, err := generate(env.users, env.rec, res.Layer)
	if err != nil {
		return nil, err
	}
	res.Layer["dataset.save_v2_s"] = env.rec.do("dataset.SaveV2", 0, func() {
		err = dataset.FromUniverse(u).SaveV2(env.dir)
	})
	if err != nil {
		return nil, fmt.Errorf("saving dataset: %w", err)
	}
	res.SetupS = time.Since(setup).Seconds()
	return res, nil
}

// experiment is one entry of gplusanalyze's default sequence, split
// into the core call and the report call so each gets its own span.
type experiment struct {
	id string
	// group is the per-layer bucket the compute time is reported under.
	group   string
	compute func() (any, error)
	render  func(io.Writer)
}

func exp[T any](id, group string, compute func() (T, error), render func(io.Writer, T)) experiment {
	var v T
	return experiment{id: id, group: group,
		compute: func() (any, error) {
			var err error
			v, err = compute()
			return v, err
		},
		render: func(w io.Writer) { render(w, v) },
	}
}

func ok[T any](f func() T) func() (T, error) {
	return func() (T, error) { return f(), nil }
}

// gplusanalyze's defaults for -cap and -analysis-seed. The analysis
// seed is a constant like the universe seed: sampled BFS grows its
// source set until the distribution settles, so the number of sources —
// the amount of work — depends on it (352 to 512 over ten seeds on
// study_ram's dataset, 1.03 s against 1.2 s of wall). The study
// workloads therefore read the same inputs for every -seed.
const (
	lostEdgeCap  = 10_000
	analysisSeed = 2012
)

// Figure 4, Figure 9 and the connectivity report each take more than
// one result.
type (
	fig4Result struct {
		Reciprocity core.ReciprocityResult
		Clustering  core.ClusteringResult
		SCC         core.SCCResult
	}
	fig9Result struct {
		Miles    core.PathMileResult
		Averages []core.CountryPathMile
	}
	connectivityResult struct {
		WCC core.WCCResult
		SCC core.SCCResult
	}
)

// sequence is cmd/gplusanalyze's default run, through the same exported
// calls in the same order: Tables 1–5, Figures 2–10, connectivity,
// motifs, lost edges. The structural figures share one Study.Structure
// pass, computed by the first that needs it, as gplusanalyze does; its
// span hangs off *parent, the span of the experiment being computed.
func sequence(ctx context.Context, s *core.Study, rec *recorder, parent *int) []experiment {
	var (
		st    *core.StructureResult
		stErr error
	)
	structure := func() (*core.StructureResult, error) {
		if st == nil && stErr == nil {
			rec.do("core.Structure", *parent, func() { st, stErr = s.Structure(ctx) })
		}
		return st, stErr
	}
	fromStructure := func(id string, pick func(*core.StructureResult) any, render func(io.Writer, *core.StructureResult)) experiment {
		return experiment{id: id, group: "structure",
			compute: func() (any, error) {
				st, err := structure()
				if err != nil {
					return nil, err
				}
				return pick(st), nil
			},
			render: func(w io.Writer) { render(w, st) },
		}
	}
	return []experiment{
		exp("table1", "node", ok(func() []core.TopUser { return s.TopUsers(20) }), report.Table1),
		exp("table2", "node", ok(s.AttributeTable), report.Table2),
		exp("table3", "node", ok(s.TelUsers), report.Table3),
		exp("table4", "topology", ok(func() []core.TopologyRow { return []core.TopologyRow{s.Topology(ctx)} }), report.Table4),
		exp("table5", "node", ok(func() []core.CountryOccupations { return s.TopOccupationsByCountry(10) }), report.Table5),
		exp("fig2", "node", ok(s.FieldsShared), report.Fig2),
		fromStructure("fig3",
			func(st *core.StructureResult) any { return st.Degrees },
			func(w io.Writer, st *core.StructureResult) { report.Fig3(w, st.Degrees) }),
		fromStructure("fig4",
			func(st *core.StructureResult) any { return fig4Result{st.Reciprocity, st.Clustering, st.SCC} },
			func(w io.Writer, st *core.StructureResult) { report.Fig4(w, st.Reciprocity, st.Clustering, st.SCC) }),
		fromStructure("fig5",
			func(st *core.StructureResult) any { return st.Paths },
			func(w io.Writer, st *core.StructureResult) { report.Fig5(w, st.Paths) }),
		exp("fig6", "geo", ok(func() []core.CountryShare { return s.TopCountries(11) }), report.Fig6),
		exp("fig7", "geo", ok(s.Penetration), report.Fig7),
		exp("fig8", "node", ok(func() []core.CountryFieldCCDF { return s.FieldsByCountry(nil) }), report.Fig8),
		exp("fig9", "geo", ok(func() fig9Result { return fig9Result{s.PathMiles(), s.AveragePathMiles()} }),
			func(w io.Writer, v fig9Result) { report.Fig9(w, v.Miles, v.Averages) }),
		exp("fig10", "geo", ok(s.CountryLinks), report.Fig10),
		fromStructure("connectivity",
			func(st *core.StructureResult) any { return connectivityResult{st.WCC, st.SCC} },
			func(w io.Writer, st *core.StructureResult) { report.Connectivity(w, st.WCC, st.SCC) }),
		fromStructure("motifs",
			func(st *core.StructureResult) any { return st.Motifs },
			func(w io.Writer, st *core.StructureResult) { report.Motifs(w, st.Motifs) }),
		exp("lostedges", "geo", ok(func() core.LostEdgeEstimate { return s.LostEdges(lostEdgeCap) }), report.LostEdges),
	}
}

// studyPass is one load → last-table-rendered pass.
type studyPass struct {
	ds *dataset.Dataset
	// values alternates experiment id and result, in sequence order.
	values []any
	// experiments run, and the errors of those that failed.
	attempted int
	errs      []string
	// seconds by per-layer bucket: "load", "structure", "topology",
	// "node", "geo", "render".
	seconds map[string]float64
}

// runStudy loads the dataset at dir (memory-mapped or materialised) and
// runs the sequence, rendering every result to io.Discard.
func runStudy(ctx context.Context, dir string, mapped bool, par int, rec *recorder, parent int) (*studyPass, error) {
	p := &studyPass{seconds: map[string]float64{}}
	var err error
	p.seconds["load"] = rec.do("dataset.Load", parent, func() {
		p.ds, err = dataset.LoadWith(dir, dataset.Options{Mapped: mapped})
	})
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}
	s := core.New(p.ds, core.Options{Seed: analysisSeed, Parallelism: par})
	computing := parent
	for _, e := range sequence(ctx, s, rec, &computing) {
		p.attempted++
		var v any
		var cerr error
		computing = rec.start("core."+e.id, parent)
		start := time.Now()
		v, cerr = e.compute()
		p.seconds[e.group] += time.Since(start).Seconds()
		rec.end(computing)
		if cerr != nil {
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", e.id, cerr))
			continue
		}
		p.values = append(p.values, e.id, v)
		p.seconds["render"] += rec.do("report."+e.id, parent, func() { e.render(io.Discard) })
	}
	return p, nil
}

// digest hashes every result value and no timing (Study.Structure's
// Timings are not part of any figure), so it must be the same for any
// backend, parallelism and repetition.
func (p *studyPass) digest() (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(p.values); err != nil {
		return "", fmt.Errorf("digesting results: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func measureStudy(env *childEnv, mapped bool) (*childResult, error) {
	ctx := context.Background()
	rec, res := env.rec, newChildResult()

	root := rec.start(env.workload, 0)
	cpu0, t0 := cpuSeconds(), time.Now()
	pass, err := runStudy(ctx, env.dir, mapped, parallelism(), rec, root)
	res.WallS, res.CPUS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	rec.end(root)
	if err != nil {
		return nil, err
	}
	defer pass.ds.Close()

	if res.Digest, err = pass.digest(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = int64(pass.attempted), int64(len(pass.errs))
	res.Problems = append(res.Problems, pass.errs...)
	res.Edges = pass.ds.View().NumEdges()
	res.Work, res.WorkS = float64(res.Edges), res.WallS
	if res.V2Bytes, err = fileSize(filepath.Join(env.dir, "graph.v2")); err != nil {
		return nil, err
	}
	if rec == nil {
		return res, nil
	}
	return res, studyLayers(ctx, env, mapped, pass, res)
}

// studyLayers is the traced repetition's part after the timed region:
// the per-layer split of the pass just timed, the per-stage, per-kernel
// and row probes on its dataset, the audit, and the digest cross-check.
func studyLayers(ctx context.Context, env *childEnv, mapped bool, pass *studyPass, res *childResult) error {
	rec, g := env.rec, pass.ds.View()
	res.Layer["dataset.load_s"] = pass.seconds["load"]
	res.Layer["core.structure_s"] = pass.seconds["structure"]
	res.Layer["core.topology_s"] = pass.seconds["topology"]
	res.Layer["core.node_tables_s"] = pass.seconds["node"]
	res.Layer["core.geo_tables_s"] = pass.seconds["geo"]
	res.Layer["report.render_s"] = pass.seconds["render"]

	// The exported per-stage methods, one after another: their sum over
	// core.structure_s is how much Structure's stage fan-out overlaps.
	s := core.New(pass.ds, core.Options{Seed: analysisSeed, Parallelism: parallelism()})
	var stageErr error
	stageCalls := map[string]func(){
		"degrees":     func() { _, stageErr = s.Degrees() },
		"reciprocity": func() { s.Reciprocity() },
		"clustering":  func() { s.Clustering() },
		"scc":         func() { s.SCC() },
		"wcc":         func() { s.WCC() },
		"paths":       func() { s.PathLengths(ctx) },
		"motifs":      func() { _, stageErr = s.Motifs() },
	}
	var stageSum float64
	for _, name := range stages {
		d := rec.do("core.stage."+name, 0, stageCalls[name])
		if stageErr != nil {
			return fmt.Errorf("stage %s: %w", name, stageErr)
		}
		res.Layer["core.stage."+name+"_s"] = d
		stageSum += d
	}
	res.Layer["core.structure_overlap"] = stageSum / pass.seconds["structure"]

	probeKernels(ctx, g, !mapped, rec, res.Layer)
	probeRows(g, mapped, rec, res.Layer)

	results, err := paper.Collect(ctx, s)
	if err != nil {
		return fmt.Errorf("collecting audit results: %w", err)
	}
	for _, o := range paper.Evaluate(results) {
		if o.Pass {
			res.Layer["core.audit_pass"]++
		}
	}

	// The determinism contract, checked on this workload's own dataset:
	// the RAM study at P=1 and the mapped study against RAM must both
	// reproduce the timed pass's digest.
	otherPar, what := 1, "P=1"
	if mapped {
		otherPar, what = parallelism(), "in-RAM"
	}
	other, err := runStudy(ctx, env.dir, false, otherPar, nil, 0)
	if err != nil {
		return fmt.Errorf("%s cross-check: %w", what, err)
	}
	defer other.ds.Close()
	otherDigest, err := other.digest()
	if err != nil {
		return err
	}
	res.Attempted++
	if otherDigest != res.Digest || len(other.errs) > 0 {
		res.Failed++
		res.problem("%s study digest %s differs from the timed pass's %s (errors: %v)", what, otherDigest, res.Digest, other.errs)
	}
	return nil
}

// probeKernels calls each exported graph kernel directly and serially
// on the workload's view at P=nproc, and at P=1 too when serial is set
// (the RAM workload), where efficiency = p1 / (nproc · pN).
func probeKernels(ctx context.Context, g graph.View, serial bool, rec *recorder, layer map[string]float64) {
	calls := map[string]func(p int){
		"degrees":     func(p int) { graph.InDegrees(g, p); graph.OutDegrees(g, p) },
		"reciprocity": func(p int) { graph.AllReciprocities(g, p); graph.GlobalReciprocity(g, p) },
		"wcc":         func(p int) { graph.WCC(g, p) },
		"scc":         func(p int) { graph.SCCParallel(g, p) },
		"clustering":  func(p int) { graph.AllClustering(g, p) },
		"triangles":   func(p int) { graph.Triangles(g, graph.TriangleAuto, p) },
		"motifs":      func(p int) { graph.Motifs(g, p) },
		"paths": func(p int) {
			graph.SamplePathLengths(ctx, g, graph.Directed, graph.PathLengthOptions{
				MinSources: 64, MaxSources: 256, Parallelism: p,
				Rand: rand.New(rand.NewPCG(analysisSeed, 3)),
			})
		},
	}
	n := parallelism()
	for _, k := range kernels {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pN := rec.do("graph."+k+".pN", 0, func() { calls[k](n) })
		runtime.ReadMemStats(&after)
		layer["graph."+k+".pN_s"] = pN
		if k == "triangles" {
			layer["graph.triangles.allocs"] = float64(after.Mallocs - before.Mallocs)
		}
		if serial {
			p1 := rec.do("graph."+k+".p1", 0, func() { calls[k](1) })
			layer["graph."+k+".p1_s"] = p1
			layer["graph."+k+".efficiency"] = p1 / (float64(n) * pN)
		}
	}
}

// probeRows measures the row-access contract the kernels sit on, single
// threaded: a sequential sweep of every out-row then every in-row, and
// seeded random out-row lookups. Allocation counts are Mallocs deltas
// and repeat exactly.
func probeRows(g graph.View, mapped bool, rec *recorder, layer map[string]float64) {
	const (
		sweeps  = 10
		lookups = 200_000
	)
	prefix := "graph."
	if mapped {
		prefix = "diskcsr."
	}
	n := g.NumNodes()
	var before, after runtime.MemStats

	var edges int64
	runtime.ReadMemStats(&before)
	scan := rec.do(prefix+"seq_scan", 0, func() {
		for range sweeps {
			for u := range n {
				edges += int64(len(g.Out(graph.NodeID(u))))
			}
			for u := range n {
				edges += int64(len(g.In(graph.NodeID(u))))
			}
		}
	})
	runtime.ReadMemStats(&after)
	layer[prefix+"seq_scan_edges_per_s"] = float64(edges) / scan
	seqAllocs := float64(after.Mallocs-before.Mallocs) / float64(2*sweeps*n)

	rng := rand.New(rand.NewPCG(analysisSeed, 12))
	targets := make([]graph.NodeID, lookups)
	for i := range targets {
		targets[i] = graph.NodeID(rng.IntN(n))
	}
	runtime.ReadMemStats(&before)
	random := rec.do(prefix+"random_row", 0, func() {
		for _, u := range targets {
			edges += int64(len(g.Out(u)))
		}
	})
	runtime.ReadMemStats(&after)
	layer[prefix+"random_row_ns"] = random * 1e9 / lookups
	if mapped {
		layer["diskcsr.seq_scan_allocs_per_row"] = seqAllocs
		layer["diskcsr.random_row_allocs_per_row"] = float64(after.Mallocs-before.Mallocs) / lookups
	}
}
