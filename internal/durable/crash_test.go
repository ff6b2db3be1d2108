package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/durable"
	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/obs/prof"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

var errCrash = errors.New("simulated crash")

// crashCase is one durable write in the pipeline. build lays down the
// old state in a fresh directory and returns the write under test plus
// an observer. The observer reopens what is on disk the way a restarted
// process would, fails the test if anything is unreadable or a mix of
// old and new, and reports — keyed by file base name — whether each
// file it tracks now holds the new version.
type crashCase struct {
	name  string
	build func(t *testing.T) (write func() error, observe func(t *testing.T) map[string]bool)
	// order, when set, is the sequence in which the named files must
	// commit: dataset profiles may never be published before their graph.
	order []string
}

type step struct{ file, step string }

// TestCrashAtEveryStep is the repo's one crash contract, checked for
// every writer that goes through durable.WriteFile: abort the write at
// each durability step in turn, reopen, and require that every file is
// completely old or completely new — new exactly when its rename had
// already run — never a mix.
func TestCrashAtEveryStep(t *testing.T) {
	for _, c := range crashCases {
		t.Run(c.name, func(t *testing.T) {
			// Clean run: record the steps and check the new state lands.
			var steps []step
			write, observe := c.build(t)
			durable.StepHook = func(path, s string) error {
				steps = append(steps, step{filepath.Base(path), s})
				return nil
			}
			err := write()
			durable.StepHook = nil
			if err != nil {
				t.Fatalf("clean write: %v", err)
			}
			if len(steps) == 0 {
				t.Fatal("write went through no durable.WriteFile step")
			}
			for file, isNew := range observe(t) {
				if !isNew {
					t.Errorf("clean write left %s at its old version", file)
				}
			}
			var commits []string
			for _, s := range steps {
				if s.step == "renamed" && slices.Contains(c.order, s.file) {
					commits = append(commits, s.file)
				}
			}
			if c.order != nil && !reflect.DeepEqual(commits, c.order) {
				t.Fatalf("commit order %v, want %v", commits, c.order)
			}

			for k, at := range steps {
				write, observe := c.build(t)
				calls := 0
				durable.StepHook = func(string, string) error {
					calls++
					if calls == k+1 {
						return errCrash
					}
					return nil
				}
				err := write()
				durable.StepHook = nil
				if !errors.Is(err, errCrash) {
					t.Fatalf("crash at step %d (%s:%s) not surfaced: %v", k, at.file, at.step, err)
				}
				committed := map[string]bool{}
				for _, s := range steps[:k+1] {
					if s.step == "renamed" {
						committed[s.file] = true
					}
				}
				for file, isNew := range observe(t) {
					if isNew != committed[file] {
						t.Errorf("crash at step %d (%s:%s): %s new=%v, want %v",
							k, at.file, at.step, file, isNew, committed[file])
					}
				}
			}
		})
	}
}

// isNew classifies got as the old or the new version of what, failing
// the test if it is neither.
func isNew(t *testing.T, what string, got, old, new any) bool {
	t.Helper()
	switch {
	case reflect.DeepEqual(got, new):
		return true
	case reflect.DeepEqual(got, old):
		return false
	}
	t.Fatalf("%s is neither the old nor the new version", what)
	return false
}

// crawlResult hand-builds a crawl over ids a..f whose edges and profile
// names both carry version, so old and new results share a roster (any
// mix of their files still agrees on the node count) but differ in
// every file.
func crawlResult(version string) *crawler.Result {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	res := &crawler.Result{
		Profiles:   make(map[string]profile.Profile),
		Discovered: make(map[string]bool),
	}
	for i, id := range ids {
		res.Discovered[id] = true
		res.Profiles[id] = profile.Profile{
			Name:   version + "-" + id,
			Public: profile.AttrSet(0).With(profile.AttrName),
		}
		to := ids[(i+1)%len(ids)]
		if version == "new" {
			to = ids[(i+2)%len(ids)]
		}
		res.Edges = append(res.Edges, crawler.Edge{From: id, To: to}, crawler.Edge{From: to, To: ids[0]})
	}
	return res
}

// inRAM builds the dataset res describes, numbered the way the pipeline
// numbers it (ids in sorted order) with every profile crawled: the
// reference the saves under test are read back against.
func inRAM(res *crawler.Result) *dataset.Dataset {
	u := &synth.Universe{}
	for id := range res.Discovered {
		u.IDs = append(u.IDs, id)
	}
	sort.Strings(u.IDs)
	node := make(map[string]graph.NodeID, len(u.IDs))
	for i, id := range u.IDs {
		node[id] = graph.NodeID(i)
		u.Profiles = append(u.Profiles, res.Profiles[id])
	}
	var pairs []graph.NodeID
	for _, e := range res.Edges {
		pairs = append(pairs, node[e.From], node[e.To])
	}
	u.Graph = graph.FromEdges(len(u.IDs), pairs...)
	return dataset.FromUniverse(u)
}

// observeDataset reloads dir and classifies its graph and profile files.
func observeDataset(dir string, old, new *dataset.Dataset) func(*testing.T) map[string]bool {
	return func(t *testing.T) map[string]bool {
		got, err := dataset.LoadWith(dir, dataset.Options{})
		if err != nil {
			t.Fatalf("dataset unloadable: %v", err)
		}
		return map[string]bool{
			"graph.v2":       isNew(t, "graph", got.View(), old.View(), new.View()),
			"profiles.jsonl": isNew(t, "profiles", got.Profiles, old.Profiles, new.Profiles),
		}
	}
}

// captureBody is what the ring's capture seq holds.
func captureBody(seq int) []byte { return []byte(fmt.Sprintf("capture %d", seq)) }

var captureSeq = regexp.MustCompile(`^[a-z]+-([0-9]+)(-.*)?\.pb\.gz$`)

// reopenRing reopens the three-capture profile ring at dir, as a
// restarted process does, and returns the seqs of its capture files in
// order, failing the test if a file is not the whole capture of its seq
// or two files share a seq.
func reopenRing(t *testing.T, dir string) []int {
	if _, err := prof.OpenStore(dir, prof.StoreOptions{MaxCaptures: 3}); err != nil {
		t.Fatalf("ring unopenable: %v", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for _, de := range des {
		m := captureSeq.FindStringSubmatch(de.Name())
		if m == nil {
			continue
		}
		seq, _ := strconv.Atoi(m[1])
		if slices.Contains(seqs, seq) {
			t.Fatalf("two capture files share seq %d", seq)
		}
		seqs = append(seqs, seq)
		if b, err := os.ReadFile(filepath.Join(dir, de.Name())); err != nil || !bytes.Equal(b, captureBody(seq)) {
			t.Fatalf("%s is not the whole capture %d: %q (err=%v)", de.Name(), seq, b, err)
		}
	}
	slices.Sort(seqs)
	return seqs
}

var crashCases = []crashCase{
	{
		name:  "dataset.SaveV2",
		order: []string{"graph.v2", "profiles.jsonl"},
		build: func(t *testing.T) (func() error, func(*testing.T) map[string]bool) {
			dir := t.TempDir()
			old, new := inRAM(crawlResult("old")), inRAM(crawlResult("new"))
			if err := old.SaveV2(dir); err != nil {
				t.Fatal(err)
			}
			return func() error { return new.SaveV2(dir) }, observeDataset(dir, old, new)
		},
	},
	{
		// The out-of-core save: segment flush, remapped temp segments,
		// compaction into graph.v2, then the profile column.
		name:  "dataset.FromCrawlSegments",
		order: []string{"graph.v2", "profiles.jsonl"},
		build: func(t *testing.T) (func() error, func(*testing.T) map[string]bool) {
			dir := t.TempDir()
			oldRes, newRes := crawlResult("old"), crawlResult("new")
			old, new := inRAM(oldRes), inRAM(newRes)
			if err := old.SaveV2(dir); err != nil {
				t.Fatal(err)
			}
			sink, err := dataset.NewSegmentSink(t.TempDir(), 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range newRes.Edges {
				if err := sink.ObserveEdge(e.From, e.To); err != nil {
					t.Fatal(err)
				}
			}
			write := func() error {
				ds, err := dataset.FromCrawlSegments(newRes, sink, dir, nil)
				if err != nil {
					return err
				}
				return ds.Close()
			}
			return write, observeDataset(dir, old, new)
		},
	},
	{
		name: "diskcsr.WriteGraph",
		build: func(t *testing.T) (func() error, func(*testing.T) map[string]bool) {
			path := filepath.Join(t.TempDir(), "graph.v2")
			old, new := graph.FromEdges(4, 0, 1, 1, 2), graph.FromEdges(4, 3, 2, 2, 1, 1, 0)
			if err := diskcsr.WriteGraph(path, old); err != nil {
				t.Fatal(err)
			}
			observe := func(t *testing.T) map[string]bool {
				m, err := diskcsr.Open(path, diskcsr.Options{})
				if err != nil {
					t.Fatalf("v2 graph unopenable: %v", err)
				}
				defer m.Close()
				got, err := m.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				return map[string]bool{"graph.v2": isNew(t, "graph", got, old, new)}
			}
			return func() error { return diskcsr.WriteGraph(path, new) }, observe
		},
	},
	{
		// A segment never replaces anything: its old version is "absent".
		name: "diskcsr.Writer.Flush",
		build: func(t *testing.T) (func() error, func(*testing.T) map[string]bool) {
			dir := t.TempDir()
			w, err := diskcsr.NewWriter(dir, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			for u := graph.NodeID(0); u < 5; u++ {
				if err := w.Add(u, u+1); err != nil {
					t.Fatal(err)
				}
			}
			observe := func(t *testing.T) map[string]bool {
				segs, err := diskcsr.ListSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				st, err := diskcsr.Compact(dir, filepath.Join(t.TempDir(), "out.v2"), diskcsr.CompactOptions{NumNodes: 6})
				if err != nil {
					t.Fatalf("segment dir does not compact: %v", err)
				}
				if want := int64(5 * len(segs)); len(segs) > 1 || st.Edges != want {
					t.Fatalf("%d segments holding %d edges, want %d", len(segs), st.Edges, want)
				}
				return map[string]bool{"seg-000000.seg": len(segs) == 1}
			}
			return w.Flush, observe
		},
	},
	{
		// A fourth capture into a three-capture ring. The directory is the
		// ring's only index, so a crash before the rename leaves captures
		// {0,1,2} and one after it {1,2,3} — the reopen re-applies the
		// eviction the crash cut off.
		name: "prof.Store capture",
		build: func(t *testing.T) (func() error, func(*testing.T) map[string]bool) {
			dir := t.TempDir()
			s, err := prof.OpenStore(dir, prof.StoreOptions{MaxCaptures: 3})
			if err != nil {
				t.Fatal(err)
			}
			for seq := 0; seq < 3; seq++ {
				if err := s.Append("heap", "interval", captureBody(seq)); err != nil {
					t.Fatal(err)
				}
			}
			write := func() error { return s.Append("heap", "interval", captureBody(3)) }
			observe := func(t *testing.T) map[string]bool {
				return map[string]bool{
					"heap-000003-interval.pb.gz": isNew(t, "ring", reopenRing(t, dir), []int{0, 1, 2}, []int{1, 2, 3}),
				}
			}
			return write, observe
		},
	}, {
		// The retention rewrite of a run directory's series log: a store
		// of capacity 2 holds ticks 1..3, and Close's last sample, tick 4,
		// takes it to 2 x 2, so it drops back to ticks 3 and 4 and
		// series.jsonl is rewritten to exactly those.
		name: "rundir series retention",
		build: func(t *testing.T) (func() error, func(*testing.T) map[string]bool) {
			dir := t.TempDir()
			n := 0
			clock := func() time.Time { n++; return time.Unix(int64(n), 0) }
			run, err := rundir.Start(rundir.Config{Dir: dir, Series: series.Options{
				Interval: time.Hour, // the sampling goroutine never fires
				Capacity: 2,
				Now:      clock,
			}})
			if err != nil {
				t.Fatal(err)
			}
			run.Collector.Sample(clock())
			run.Collector.Sample(clock())
			observe := func(t *testing.T) map[string]bool {
				var got []int64
				for _, tick := range readTicks(t, dir) {
					got = append(got, tick.T.Unix())
				}
				return map[string]bool{rundir.SeriesFile: isNew(t, "series log", got, []int64{1, 2, 3}, []int64{3, 4})}
			}
			return run.Close, observe
		},
	},
}
