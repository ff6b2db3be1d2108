package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/obs/trace"
	"gplus/internal/synth"
)

// stageSpans counts the spans a recorder holds by name.
func stageSpans(rec *trace.Recorder) map[string]int {
	spans := map[string]int{}
	for _, tr := range rec.Traces() {
		for _, sp := range tr.Spans {
			spans[sp.Name]++
		}
	}
	return spans
}

// oncePerStage is what a Study leaves in its tracer however it was
// driven, beside the analyze.structure wrapper of each Structure call.
func oncePerStage(structures int) map[string]int {
	want := map[string]int{}
	for _, stage := range []string{"degrees", "reciprocity", "scc", "wcc", "paths", "triads"} {
		want["analyze."+stage] = 1
	}
	if structures > 0 {
		want["analyze.structure"] = structures
	}
	return want
}

// perFigure calls the seven per-figure methods and returns what they
// returned, in StructureResult form.
func perFigure(ctx context.Context, s *Study) (*StructureResult, error) {
	dd, err := s.Degrees()
	if err != nil {
		return nil, err
	}
	m, err := s.Motifs()
	return &StructureResult{
		Degrees: dd, Reciprocity: s.Reciprocity(), Clustering: s.Clustering(),
		SCC: s.SCC(), WCC: s.WCC(), Paths: s.PathLengths(ctx), Motifs: m,
	}, err
}

// TestStagesComputedOnce is the memo's contract, over RAM and the mapped
// dataset at P = 1 and 3: whatever asks first — Topology, Structure, a
// per-figure method — each structural stage leaves one span and one
// stage's worth of row reads, every caller sees the same result, and
// Table 4 is Figures 4(a) and 5 to the bit.
func TestStagesComputedOnce(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mapped := range []bool{false, true} {
		ds, err := dataset.LoadWith(dir, dataset.Options{Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		for _, par := range []int{1, 3} {
			t.Run(fmt.Sprintf("mapped=%v/P=%d", mapped, par), func(t *testing.T) {
				// The reference: a lone Structure on its own Study.
				lone := New(ds, Options{Seed: 7, PathSources: 32, Parallelism: par})
				loneView := newCountingView(lone.g)
				lone.g = loneView
				want, err := lone.Structure(ctx)
				if err != nil {
					t.Fatal(err)
				}

				rec := trace.NewRecorder(0, trace.Rules{})
				s := New(ds, Options{Seed: 7, PathSources: 32, Parallelism: par, Tracer: trace.New(trace.Config{Recorder: rec})})
				cv := newCountingView(s.g)
				s.g = cv

				row := s.Topology(ctx)
				st, err := s.Structure(ctx)
				if err != nil {
					t.Fatal(err)
				}
				fig, err := perFigure(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				if again := s.Topology(ctx); again != row {
					t.Errorf("second Topology %+v differs from the first %+v", again, row)
				}

				if !reflect.DeepEqual(st, want) || !reflect.DeepEqual(fig, want) {
					t.Error("Structure after Topology, or the per-figure methods after both, differ from a lone Structure")
				}
				if row.PathLength != fig.Paths.Directed.Mean() || row.Diameter != fig.Paths.DiameterDirected || row.Reciprocity != fig.Reciprocity.Global {
					t.Errorf("Table 4 (%v, %d, %v) is not Figure 5's (%v, %d) and Figure 4(a)'s %v",
						row.PathLength, row.Diameter, row.Reciprocity,
						fig.Paths.Directed.Mean(), fig.Paths.DiameterDirected, fig.Reciprocity.Global)
				}
				if got := stageSpans(rec); !reflect.DeepEqual(got, oncePerStage(1)) {
					t.Errorf("recorded spans %v, want %v", got, oncePerStage(1))
				}
				for v := range cv.outs {
					if cv.outs[v].Load() != loneView.outs[v].Load() || cv.ins[v].Load() != loneView.ins[v].Load() {
						t.Fatalf("node %d: %d out-row and %d in-row reads, a lone Structure makes %d and %d",
							v, cv.outs[v].Load(), cv.ins[v].Load(), loneView.outs[v].Load(), loneView.ins[v].Load())
					}
				}
			})
		}
	}
}

// TestStagesComputedOnceConcurrently: sixteen goroutines mixing every
// entry point on one Study still leave one span per stage and all see
// the same results (run under -race by `make race`).
func TestStagesComputedOnceConcurrently(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	ctx := context.Background()
	want, err := New(ds, Options{Seed: 7, PathSources: 32}).Structure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantRow := New(ds, Options{Seed: 7, PathSources: 32}).Topology(ctx)

	rec := trace.NewRecorder(0, trace.Rules{})
	s := New(ds, Options{Seed: 7, PathSources: 32, Tracer: trace.New(trace.Config{Recorder: rec})})
	const workers = 16
	structures := 0
	var wg sync.WaitGroup
	for i := range workers {
		call := perFigure
		switch i % 4 {
		case 0:
			call = func(ctx context.Context, s *Study) (*StructureResult, error) { return s.Structure(ctx) }
			structures++
		case 1:
			call = func(ctx context.Context, s *Study) (*StructureResult, error) {
				if row := s.Topology(ctx); row != wantRow {
					t.Errorf("worker %d: Topology %+v, want %+v", i, row, wantRow)
				}
				return perFigure(ctx, s)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := call(ctx, s); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("worker %d: results differ from a lone Structure (err %v)", i, err)
			}
		}()
	}
	wg.Wait()
	if got := stageSpans(rec); !reflect.DeepEqual(got, oncePerStage(structures)) {
		t.Errorf("recorded spans %v, want %v", got, oncePerStage(structures))
	}
}

// TestPathMilesComputedOnce: Figure 9(a)'s pair sample is drawn once,
// whoever asks — the text report and -plotdir both do — and every
// caller reads the same result.
func TestPathMilesComputedOnce(t *testing.T) {
	rec := trace.NewRecorder(0, trace.Rules{})
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	want := New(ds, Options{Seed: 7}).PathMiles()
	s := New(ds, Options{Seed: 7, Tracer: trace.New(trace.Config{Recorder: rec})})
	for range 2 {
		if got := s.PathMiles(); !reflect.DeepEqual(got, want) {
			t.Fatal("PathMiles differs from a lone Study's")
		}
	}
	if got := stageSpans(rec); !reflect.DeepEqual(got, map[string]int{"analyze.fig9": 1}) {
		t.Errorf("recorded spans %v, want one analyze.fig9", got)
	}
}

// TestCancelledStageIsNotCached: a stage called under a cancelled
// context is that caller's alone; the next caller with a live context
// gets the full result, and that one is kept. A context cancelled before
// the call computes nothing — none of the six stages, nor Table 4 built
// from two of them, reads a row — and Structure under it returns the
// context's error rather than zeroed figures. A context cancelled while
// the paths stage's four searches run leaves nothing kept either.
func TestCancelledStageIsNotCached(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(2_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	want, err := New(ds, Options{Seed: 7, PathSources: 32}).Structure(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder(0, trace.Rules{})
	s := New(ds, Options{Seed: 7, PathSources: 32, Tracer: trace.New(trace.Config{Recorder: rec})})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cv := newCountingView(s.g)
	s.g = cv
	if _, err := s.degrees(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("degrees under a cancelled context: error %v, want context.Canceled", err)
	}
	s.scc(cancelled)
	s.wcc(cancelled)
	s.triads(cancelled)
	if row := s.Topology(cancelled); row.PathLength != 0 || row.Reciprocity != 0 {
		t.Errorf("Table 4 under a cancelled context = %+v, want no paths or reciprocity figure", row)
	}
	if _, err := s.Structure(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Structure under a cancelled context: error %v, want context.Canceled", err)
	}
	for v := range cv.outs {
		if outs, ins := cv.outs[v].Load(), cv.ins[v].Load(); outs+ins > 0 {
			t.Fatalf("the cancelled calls read node %d's out-row %d times and in-row %d times, want none", v, outs, ins)
		}
	}
	for range 2 {
		if got, err := s.Structure(context.Background()); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Structure after cancelled calls is not the full result (error %v)", err)
		}
	}
	// Three spans of each stage: the two cancelled calls, and the one
	// that was kept.
	spans := stageSpans(rec)
	for _, stage := range []string{"degrees", "reciprocity", "scc", "wcc", "paths", "triads"} {
		if spans["analyze."+stage] != 3 {
			t.Errorf("%d analyze.%s spans, want 3", spans["analyze."+stage], stage)
		}
	}

	// Cancelled partway: the context goes once the paths stage has read
	// a third of the rows its four searches read in full, while they run
	// side by side. The cut-short figures are that caller's alone.
	full := New(ds, Options{Seed: 7, PathSources: 32})
	counted := newCountingView(full.g)
	full.g = counted
	full.PathLengths(context.Background())
	var reads int64
	for v := range counted.outs {
		reads += int64(counted.outs[v].Load() + counted.ins[v].Load())
	}
	for _, par := range []int{1, 4} {
		rec := trace.NewRecorder(0, trace.Rules{})
		s := New(ds, Options{Seed: 7, PathSources: 32, Parallelism: par, Tracer: trace.New(trace.Config{Recorder: rec})})
		ctx, cancel := context.WithCancel(context.Background())
		cut := &cancellingView{View: s.g, limit: reads / 3, cancel: cancel}
		s.g = cut
		s.PathLengths(ctx)
		if ctx.Err() == nil || cut.reads.Load() >= reads {
			t.Fatalf("P=%d: the paths stage read %d of %d rows under a context cancelled after %d", par, cut.reads.Load(), reads, reads/3)
		}
		s.g = cut.View
		if got := s.PathLengths(context.Background()); !reflect.DeepEqual(got, want.Paths) {
			t.Errorf("P=%d: the paths stage after a call cancelled partway is not the full result", par)
		}
		if n := stageSpans(rec)["analyze.paths"]; n != 2 {
			t.Errorf("P=%d: %d analyze.paths spans, want 2: the cut-short call's and the kept one's", par, n)
		}
	}
}

// cancellingView cancels a context once limit rows have been read
// through it.
type cancellingView struct {
	graph.View
	reads  atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

func (v *cancellingView) read() {
	if v.reads.Add(1) == v.limit {
		v.cancel()
	}
}

func (v *cancellingView) Out(u graph.NodeID) []graph.NodeID { v.read(); return v.View.Out(u) }
func (v *cancellingView) In(u graph.NodeID) []graph.NodeID  { v.read(); return v.View.In(u) }
func (v *cancellingView) Rows() graph.Rows                  { return cancellingRows{v, v.View.Rows()} }

type cancellingRows struct {
	v     *cancellingView
	inner graph.Rows
}

func (r cancellingRows) Out(u graph.NodeID) []graph.NodeID { r.v.read(); return r.inner.Out(u) }
func (r cancellingRows) In(u graph.NodeID) []graph.NodeID  { r.v.read(); return r.inner.In(u) }
