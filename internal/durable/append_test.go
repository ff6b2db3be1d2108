package durable_test

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/durable"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
)

// appendCase is one user of durable.Log. Both funcs go through the
// user's own API, the way its process would: session appends the named
// records to the log under dir — opening it as a restarted process does,
// load-then-append where the user has a load step — and closes it; read
// returns the names of the records a reader now finds, in order.
// log is the log file's path under dir.
type appendCase struct {
	name    string
	log     string
	session func(t *testing.T, dir string, names []string)
	read    func(t *testing.T, dir string) []string
}

// TestCutAtEveryByte is the crash contract of the append paths: write
// records through each user of durable.Log, cut the log at every byte
// offset — what a crash mid-append leaves — then run a second session
// that appends one more record, and require a reader to find a prefix
// of the first session's records followed by the new one: never a lost
// complete record, never a record fused onto a torn tail.
func TestCutAtEveryByte(t *testing.T) {
	// Names sort in write order: the journal's reader returns a set.
	first, last := []string{"a", "b", "c"}, "z"
	for _, c := range appendCases {
		t.Run(c.name, func(t *testing.T) {
			src := t.TempDir()
			c.session(t, src, first)
			if got := c.read(t, src); !slices.Equal(got, first) {
				t.Fatalf("uncut log reads back %v, want %v", got, first)
			}
			whole, err := os.ReadFile(filepath.Join(src, c.log))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= len(whole); k++ {
				dir := t.TempDir()
				copyTree(t, src, dir)
				if err := os.WriteFile(filepath.Join(dir, c.log), whole[:k], 0o644); err != nil {
					t.Fatal(err)
				}
				c.session(t, dir, []string{last})
				got := c.read(t, dir)
				// Records are newline-terminated, so exactly those whose
				// newline made it into the cut survive.
				want := append(slices.Clone(first[:bytes.Count(whole[:k], []byte("\n"))]), last)
				if !slices.Equal(got, want) {
					t.Fatalf("cut at byte %d of %d: read back %v, want %v", k, len(whole), got, want)
				}
			}
		})
	}
}

// copyTree copies the files under src into the existing directory dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

var appendCases = []appendCase{
	{
		name: "raw Log",
		log:  "log",
		session: func(t *testing.T, dir string, names []string) {
			l, err := durable.OpenLog(filepath.Join(dir, "log"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if _, err := fmt.Fprintln(l, name); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		read: func(t *testing.T, dir string) []string {
			f, err := os.Open(filepath.Join(dir, "log"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var got []string
			torn, err := durable.ReadLog(f, func(rec []byte) error {
				got = append(got, string(rec))
				return nil
			})
			if err != nil || torn != 0 {
				t.Fatalf("reopened log: torn=%d err=%v", torn, err)
			}
			return got
		},
	},
	{
		// A restarted gpluscrawl loads the journal (which must tolerate
		// the torn tail) and then opens it for appending.
		name: "crawl journal",
		log:  "crawl.journal",
		session: func(t *testing.T, dir string, names []string) {
			path := filepath.Join(dir, "crawl.journal")
			if prev, err := crawler.LoadCheckpoint(path); err == nil {
				if prev.Stats.TornRecords > 1 {
					t.Fatalf("cut journal reports %d torn records", prev.Stats.TornRecords)
				}
			} else if !os.IsNotExist(err) {
				t.Fatalf("cut journal does not load: %v", err)
			}
			j, err := crawler.OpenJournal(path, crawler.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if err := j.Bootstrap(&crawler.Result{Discovered: map[string]bool{name: true}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		},
		read: func(t *testing.T, dir string) []string {
			res, err := crawler.LoadCheckpoint(filepath.Join(dir, "crawl.journal"))
			if err != nil || res.Stats.TornRecords != 0 {
				t.Fatalf("reopened journal: %+v err=%v", res, err)
			}
			got := make([]string, 0, len(res.Discovered))
			for id := range res.Discovered {
				got = append(got, id)
			}
			sort.Strings(got)
			return got
		},
	},
	{
		// The live exemplar stream into a run directory's trace log:
		// every failed trace trips the production exemplar rules.
		name: "exemplar stream",
		log:  rundir.TracesFile,
		session: func(t *testing.T, dir string, names []string) {
			run, err := rundir.Start(rundir.Config{Dir: dir, Trace: trace.Config{SampleRate: 1}})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				_, sp := run.Tracer.StartSpan(context.Background(), name)
				sp.Fail("boom")
				sp.Finish()
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
		},
		read: func(t *testing.T, dir string) []string {
			f, err := os.Open(filepath.Join(dir, rundir.TracesFile))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			trs, _, err := trace.ReadTraces(f)
			if err != nil {
				t.Fatalf("reopened trace log: %v", err)
			}
			var got []string
			for _, tr := range trs {
				got = append(got, tr.Root().Name)
			}
			return got
		},
	}, {
		// A run directory's series log, one line per collector tick. Each
		// record is a tick stamped with its name: Start takes the first,
		// Close the last and Sample any between, so a one-record session
		// writes its record twice, and the reader folds repeats.
		name: "series log",
		log:  rundir.SeriesFile,
		session: func(t *testing.T, dir string, names []string) {
			at := func(name string) time.Time { return time.Unix(int64(name[0]), 0) }
			clock := names[0]
			run, err := rundir.Start(rundir.Config{Dir: dir, Series: series.Options{
				Interval: time.Hour, // the sampling goroutine never fires
				Now:      func() time.Time { return at(clock) },
			}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(names)-1; i++ {
				run.Collector.Sample(at(names[i]))
			}
			clock = names[len(names)-1]
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
		},
		read: func(t *testing.T, dir string) []string {
			var got []string
			for _, tick := range readTicks(t, dir) {
				if name := string(rune(tick.T.Unix())); len(got) == 0 || got[len(got)-1] != name {
					got = append(got, name)
				}
			}
			return got
		},
	},
}

// readTicks reads a run directory's series.jsonl the way `gplusanalyze
// metrics` does, failing the test on a torn or malformed line.
func readTicks(t *testing.T, dir string) []series.Tick {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, rundir.SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, torn, err := series.ReadTicks(f)
	if err != nil || torn != 0 {
		t.Fatalf("reopened series log: torn=%d err=%v", torn, err)
	}
	return s.Ticks()
}
