package crawler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"gplus/internal/geo"
	"gplus/internal/gplusd"
	"gplus/internal/obs"
	"gplus/internal/profile"
)

func sortEdges(es []Edge) []Edge {
	cp := append([]Edge(nil), es...)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].From != cp[j].From {
			return cp[i].From < cp[j].From
		}
		return cp[i].To < cp[j].To
	})
	return cp
}

func TestJournalMirrorsCrawl(t *testing.T) {
	u := crawlUniverse(t)
	url := startService(t, u, gplusd.Options{})
	path := filepath.Join(t.TempDir(), "crawl.journal")
	reg := obs.NewRegistry()
	j, err := OpenJournal(path, JournalOptions{FlushInterval: 10 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	res, err := crawlInRAM(context.Background(), Config{
		BaseURL: url, Seeds: []string{seedID(u)}, Workers: 4,
		MaxProfiles: 200, FetchIn: true, FetchOut: true,
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading journal: %v", err)
	}
	if got.Stats.TornRecords != 0 {
		t.Errorf("clean journal reports %d torn records", got.Stats.TornRecords)
	}
	if !reflect.DeepEqual(got.Profiles, res.Profiles) {
		t.Error("journaled profiles differ from the crawl's")
	}
	if !reflect.DeepEqual(got.Discovered, res.Discovered) {
		t.Error("journaled discovered set differs from the crawl's")
	}
	if !reflect.DeepEqual(sortEdges(got.Edges), sortEdges(res.Edges)) {
		t.Error("journaled edges differ from the crawl's")
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`crawler_journal_records_total{kind="profile"}`]; got != int64(len(res.Profiles)) {
		t.Errorf("profile record counter = %d, want %d", got, len(res.Profiles))
	}
	if got := snap.Counters[`crawler_journal_records_total{kind="edge"}`]; got != int64(len(res.Edges)) {
		t.Errorf("edge record counter = %d, want %d", got, len(res.Edges))
	}
	if got := snap.Counters[`crawler_journal_records_total{kind="discovered"}`]; got != int64(len(res.Discovered)) {
		t.Errorf("discovered record counter = %d, want %d", got, len(res.Discovered))
	}
	if snap.Counters["crawler_journal_flushes_total"] == 0 {
		t.Error("no flush cycles recorded")
	}
}

// TestCrawlStopsOnEdgeSinkFailure: a sink that starts failing mid-crawl
// ends the crawl with its error close to the page that hit it, and the
// journal — which took every edge, the refused ones included — resumes to
// the dataset of a crawl that never lost its sink.
func TestCrawlStopsOnEdgeSinkFailure(t *testing.T) {
	u := crawlUniverse(t)
	ctx := context.Background()
	cfg := Config{
		BaseURL: startService(t, u, gplusd.Options{}), Seeds: []string{seedID(u)}, Workers: 4,
		FetchIn: true, FetchOut: true,
	}
	reference, err := crawlInRAM(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "crawl.journal")
	j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	diskFull := errors.New("disk full")
	failAfter := reference.Stats.EdgesObserved / 10
	var offered atomic.Int64
	broken := cfg
	broken.Journal = j
	broken.EdgeSink = sinkFunc(func(string, string) error {
		if offered.Add(1) > failAfter {
			return diskFull
		}
		return nil
	})
	res, err := Crawl(ctx, broken)
	if !errors.Is(err, diskFull) {
		t.Fatalf("err = %v, want the sink's error wrapped", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	// The crawl starts at the best-connected users, whose pages are full:
	// a tenth of the edges is under a tenth of the pages, and past it each
	// worker only finishes the user it holds.
	if res.Stats.PagesFetched == 0 || res.Stats.PagesFetched > reference.Stats.PagesFetched/5 {
		t.Errorf("fetched %d of %d pages after the sink failed at edge %d of %d",
			res.Stats.PagesFetched, reference.Stats.PagesFetched, failAfter, reference.Stats.EdgesObserved)
	}

	prev, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading journal: %v", err)
	}
	if int64(len(prev.Edges)) != res.Stats.EdgesObserved {
		t.Errorf("journal holds %d edges, the crawl observed %d", len(prev.Edges), res.Stats.EdgesObserved)
	}
	resumed := cfg
	resumed.Resume = prev
	final, err := crawlInRAM(ctx, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Profiles) != len(reference.Profiles) {
		t.Errorf("resumed crawl has %d profiles, reference %d", len(final.Profiles), len(reference.Profiles))
	}
	gFinal, idsFinal := buildGraph(final)
	gRef, idsRef := buildGraph(reference)
	if !reflect.DeepEqual(idsFinal, idsRef) || !reflect.DeepEqual(gFinal, gRef) {
		t.Error("graph resumed from the failed session's journal differs from the reference")
	}
}

func TestJournalSyncMakesRecordsLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.journal")
	// An hour-long flush interval: only Sync/Close barriers flush.
	j, err := OpenJournal(path, JournalOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the real pipeline: the scheduler journals a D record for
	// every id before its edges appear in any circle page.
	j.discoveredIDs([]string{"a", "b", "c"})
	j.circlePage("a", true, []string{"b"})  // out-list: a -> b
	j.circlePage("a", false, []string{"c"}) // in-list: c -> a
	j.profile("a", profile.Profile{Name: "alice"})
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// The journal is still open; everything synced must already load.
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Profiles["a"]; !ok || len(got.Profiles) != 1 {
		t.Errorf("profiles after sync: %+v", got.Profiles)
	}
	wantEdges := []Edge{{From: "a", To: "b"}, {From: "c", To: "a"}}
	if !reflect.DeepEqual(sortEdges(got.Edges), sortEdges(wantEdges)) {
		t.Errorf("edges = %+v, want %+v (direction must encode in/out)", got.Edges, wantEdges)
	}
	if !got.Discovered["a"] || !got.Discovered["b"] || !got.Discovered["c"] {
		t.Errorf("discovered = %+v", got.Discovered)
	}

	// Records after the sync surface at Close.
	j.discoveredIDs([]string{"d"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Discovered["d"] {
		t.Error("record enqueued after Sync lost at Close")
	}
}

func TestJournalBootstrapCopiesCheckpoint(t *testing.T) {
	prev := &Result{
		Profiles:   map[string]profile.Profile{"a": {Name: "alice"}},
		Edges:      []Edge{{From: "a", To: "b"}},
		Discovered: map[string]bool{"a": true, "b": true},
	}
	path := filepath.Join(t.TempDir(), "boot.journal")
	j, err := OpenJournal(path, JournalOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bootstrap(prev); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	// Bootstrap is a barrier: the state must be on disk before it returns.
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Discovered, prev.Discovered) || !reflect.DeepEqual(got.Edges, prev.Edges) {
		t.Errorf("bootstrapped journal = %+v, want %+v", got, prev)
	}
	if len(got.Profiles) != 1 || got.Profiles["a"].Name != "alice" {
		t.Errorf("bootstrapped profiles = %+v", got.Profiles)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalNilIsSafe(t *testing.T) {
	var j *Journal
	j.profile("x", profile.Profile{})
	j.circlePage("x", true, []string{"y"})
	j.discoveredIDs([]string{"z"})
	if err := j.Bootstrap(&Result{}); err != nil {
		t.Errorf("nil Bootstrap: %v", err)
	}
	if err := j.Sync(); err != nil {
		t.Errorf("nil Sync: %v", err)
	}
	if err := j.Err(); err != nil {
		t.Errorf("nil Err: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestOpenJournalRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	// A crash mid-append: two whole records plus a torn third.
	if err := os.WriteFile(path, []byte("D aa\nD bb\nD c"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, JournalOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Appending after repair must start on a fresh line, not fuse onto
	// the torn "D c".
	j.discoveredIDs([]string{"dd"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("journal corrupted by post-torn append: %v", err)
	}
	want := map[string]bool{"aa": true, "bb": true, "dd": true}
	if !reflect.DeepEqual(got.Discovered, want) {
		t.Errorf("discovered = %+v, want %+v", got.Discovered, want)
	}
	if got.Stats.TornRecords != 0 {
		t.Errorf("repaired journal still reports %d torn records", got.Stats.TornRecords)
	}

	// A newline-free file is one torn record: repaired to empty.
	path2 := filepath.Join(t.TempDir(), "all-torn.journal")
	if err := os.WriteFile(path2, []byte("D never-finished"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path2, JournalOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path2); err != nil || fi.Size() != 0 {
		t.Errorf("newline-free journal not truncated to empty: %v, %v", fi, err)
	}
}

func TestOpenJournalBadPath(t *testing.T) {
	if _, err := OpenJournal(filepath.Join(t.TempDir(), "no", "such", "dir", "x.journal"), JournalOptions{}); err == nil {
		t.Error("OpenJournal in a missing directory succeeded")
	}
}

// TestJournalErrorSurfacedInProgress: the journal reports its own health
// as recorded series, with nobody sampling the crawl on its behalf — the
// flush-lag gauge follows the oldest unflushed record, and a disk that
// fails flips crawler_journal_failed at the write that hit it.
func TestJournalErrorSurfacedInProgress(t *testing.T) {
	reg := obs.NewRegistry()
	gauge := func(name string) int64 { return reg.Snapshot().Gauges[name] }

	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.journal"), JournalOptions{FlushInterval: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if lag, failed := gauge("crawler_journal_flush_lag_seconds"), gauge("crawler_journal_failed"); lag != 0 || failed != 0 {
		t.Fatalf("clean journal: lag=%ds failed=%d", lag, failed)
	}
	j.dirtySince.Store(time.Now().Add(-5 * time.Second).UnixNano())
	if lag := gauge("crawler_journal_flush_lag_seconds"); lag < 5 || lag > 6 {
		t.Errorf("a record buffered 5s ago reads as lag=%ds", lag)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if lag := gauge("crawler_journal_flush_lag_seconds"); lag != 0 {
		t.Errorf("lag=%ds after a sync", lag)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	reg = obs.NewRegistry()
	full, err := OpenJournal("/dev/full", JournalOptions{FlushInterval: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	full.discoveredIDs([]string{"aa"})
	if err := full.Sync(); err == nil {
		t.Fatal("sync to a full disk succeeded")
	}
	if failed := gauge("crawler_journal_failed"); failed != 1 {
		t.Errorf("crawler_journal_failed = %d after the disk filled, want 1", failed)
	}
	if err := full.Close(); err == nil {
		t.Error("Close did not report the sticky error")
	}
}

// TestJournalBytesMatchEncodingJSON pins the journal's bytes to the
// rendering the wire codec replaced — json.Marshal for the document (the
// two P records below are its bytes), fmt.Fprintf for every record —
// across all record kinds, both circle directions, a bootstrap, and
// strings the encoders must escape.
func TestJournalBytesMatchEncodingJSON(t *testing.T) {
	odd := profile.Profile{
		Name:        "<Zoë> & \"co\" \x01",
		Public:      profile.AttrSet(0).With(profile.AttrName).With(profile.AttrPlacesLived).With(profile.AttrGender),
		Gender:      profile.GenderOther,
		PlacesLived: []string{"São Paulo", "tab\there"},
		Place:       "tab\there",
		CountryCode: "BR",
		Loc:         geo.Point{Lat: -23.5e-8, Lon: 1e21},
	}
	plain := profile.Profile{Name: "user-1", DeclaredInDegree: 12, DeclaredOutDegree: 3}
	boot := &Result{
		Profiles:   map[string]profile.Profile{"101": odd},
		Edges:      []Edge{{From: "101", To: "102"}, {From: "103", To: "101"}},
		Discovered: map[string]bool{"101": true},
	}

	path := filepath.Join(t.TempDir(), "crawl.journal")
	j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	j.circlePage("102", true, []string{"104", "105"})
	j.circlePage("102", false, []string{"106"})
	j.circlePage("102", true, nil)
	j.discoveredIDs([]string{"104", "105", "106"})
	j.profile("102", plain)
	j.profile("101", odd)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	const (
		recOdd   = `P {"id":"101","name":"\u003cZoë\u003e \u0026 \"co\"\u2028\u0001","fields":["name","gender","places_lived"],"gender":"Other","placesLived":["São Paulo","tab\there"],"place":{"name":"tab\there","lat":-2.35e-7,"lon":1e+21,"country":"BR"},"inCircleCount":0,"outCircleCount":0}` + "\n"
		recPlain = `P {"id":"102","name":"user-1","fields":null,"inCircleCount":12,"outCircleCount":3}` + "\n"
	)
	want.WriteString(recOdd)
	fmt.Fprintf(&want, "E %s %s\nE %s %s\nD %s\n", "101", "102", "103", "101", "101")
	fmt.Fprintf(&want, "E %s %s\nE %s %s\nE %s %s\n", "102", "104", "102", "105", "106", "102")
	fmt.Fprintf(&want, "D %s\nD %s\nD %s\n", "104", "105", "106")
	want.WriteString(recPlain + recOdd)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("journal bytes differ from the encoding/json + fmt rendering:\n got %q\nwant %q", got, want.Bytes())
	}
}
