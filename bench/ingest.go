package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
)

// observations is ingest_compact's input: the edge stream a crawl of
// the source graph would hand the storage layer. Every edge is seen
// twice — in the out-list of its tail and the in-list of its head —
// nodes arrive in a seeded order, and ids are provisional (first-seen
// style numbering drawn from the seed), to be remapped at compaction.
type observations struct {
	src, dst []graph.NodeID
	// remap[provisional] is the source graph's node id.
	remap []graph.NodeID
}

func observe(g *graph.Graph, seed uint64) *observations {
	n := g.NumNodes()
	rng := rand.New(rand.NewPCG(seed, 2))
	order, prov := rng.Perm(n), rng.Perm(n)
	o := &observations{remap: make([]graph.NodeID, n)}
	for node, p := range prov {
		o.remap[p] = graph.NodeID(node)
	}
	total := 2 * int(g.NumEdges())
	o.src, o.dst = make([]graph.NodeID, 0, total), make([]graph.NodeID, 0, total)
	for _, u := range order {
		pu := graph.NodeID(prov[u])
		for _, v := range g.Out(graph.NodeID(u)) {
			o.src, o.dst = append(o.src, pu), append(o.dst, graph.NodeID(prov[v]))
		}
		for _, v := range g.In(graph.NodeID(u)) {
			o.src, o.dst = append(o.src, graph.NodeID(prov[v])), append(o.dst, pu)
		}
	}
	return o
}

func measureIngest(env *childEnv) (*childResult, error) {
	rec, res := env.rec, newChildResult()

	setup := time.Now()
	u, err := generate(env.users, rec, res.Layer)
	if err != nil {
		return nil, err
	}
	source := u.Graph
	obs := observe(source, env.seed)
	res.SetupS = time.Since(setup).Seconds()

	segDir, v2Path := filepath.Join(env.dir, "segments"), filepath.Join(env.dir, "graph.v2")
	var addTally *tally
	if rec != nil {
		addTally = rec.tally("diskcsr.Writer.Add")
	}
	var (
		stats                              *diskcsr.CompactStats
		mapped                             *diskcsr.Mapped
		got                                *graph.Graph
		flushS, compactS, openS, materialS float64
		segments                           []string
	)
	root := rec.start("ingest_compact", 0)
	cpu0, t0 := cpuSeconds(), time.Now()
	err = func() error {
		w, err := diskcsr.NewWriter(segDir, segmentBuffer(env.users), nil)
		if err != nil {
			return err
		}
		if addTally == nil {
			for i := range obs.src {
				if err := w.Add(obs.src[i], obs.dst[i]); err != nil {
					return err
				}
			}
		} else {
			for i := range obs.src {
				start := time.Now()
				err := w.Add(obs.src[i], obs.dst[i])
				addTally.add(start)
				if err != nil {
					return err
				}
			}
		}
		flushS = rec.do("diskcsr.Writer.Flush", root, func() { err = w.Flush() })
		if err != nil {
			return fmt.Errorf("flushing segments: %w", err)
		}
		compactS = rec.do("diskcsr.Compact", root, func() {
			stats, err = diskcsr.Compact(segDir, v2Path, diskcsr.CompactOptions{NumNodes: source.NumNodes(), Remap: obs.remap})
		})
		if err != nil {
			return fmt.Errorf("compacting: %w", err)
		}
		openS = rec.do("diskcsr.Open", root, func() { mapped, err = diskcsr.Open(v2Path, diskcsr.Options{}) })
		if err != nil {
			return fmt.Errorf("opening compacted graph: %w", err)
		}
		materialS = rec.do("diskcsr.Materialize", root, func() { got, err = mapped.Materialize() })
		if err != nil {
			return fmt.Errorf("materializing: %w", err)
		}
		return nil
	}()
	res.WallS, res.CPUS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	rec.end(root)
	if mapped != nil {
		defer mapped.Close()
	}
	if err != nil {
		return nil, err
	}

	res.Attempted = int64(len(obs.src))
	res.Work, res.WorkS = float64(len(obs.src)), res.WallS
	res.Edges, res.V2Bytes = stats.Edges, stats.Bytes
	if msg := sameGraph(got, source); msg != "" {
		res.Failed++
		res.problem("materialised graph differs from its source: %s", msg)
	}
	if rec == nil {
		return res, nil
	}

	// Segments are listed after the timed region: Compact leaves them in
	// place for the caller to delete.
	if segments, err = diskcsr.ListSegments(segDir); err != nil {
		return nil, err
	}
	var segmentBytes int64
	for _, s := range segments {
		st, err := os.Stat(s)
		if err != nil {
			return nil, err
		}
		segmentBytes += st.Size()
	}
	writeS := addTally.busy().Seconds() + flushS
	res.Layer["diskcsr.segment_write_s"] = writeS
	res.Layer["diskcsr.segment_write_edges_per_s"] = float64(len(obs.src)) / writeS
	res.Layer["diskcsr.segments"] = float64(len(segments))
	res.Layer["diskcsr.segment_bytes"] = float64(segmentBytes)
	res.Layer["diskcsr.compact_s"] = compactS
	res.Layer["diskcsr.compact_edges_per_s"] = float64(stats.Edges) / compactS
	res.Layer["diskcsr.open_verify_s"] = openS
	res.Layer["diskcsr.materialize_s"] = materialS
	res.Layer["diskcsr.v2_bytes"] = float64(stats.Bytes)
	return res, nil
}

// sameGraph compares two graphs row for row, both directions.
func sameGraph(got, want *graph.Graph) string {
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("%d nodes / %d edges, want %d / %d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for u := range want.NumNodes() {
		id := graph.NodeID(u)
		if !slices.Equal(got.Out(id), want.Out(id)) {
			return fmt.Sprintf("out-row %d differs", u)
		}
		if !slices.Equal(got.In(id), want.In(id)) {
			return fmt.Sprintf("in-row %d differs", u)
		}
	}
	return ""
}
