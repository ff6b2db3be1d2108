package main

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusd"
	"gplus/internal/obs"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/synth"
)

// smallUniverse is a service's worth of users a test crawls in well
// under a second.
func smallUniverse(t *testing.T) *synth.Universe {
	t.Helper()
	cfg := synth.DefaultConfig(300)
	cfg.Seed = 18
	u, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestRerunResumesToTheSameDataset drives the command itself, twice,
// into one -out: the first run crawls a small service to completion, the
// second finds the journal, replays it into fresh segments, fetches no
// profile, and must leave a byte-identical dataset behind. Both log
// progress lines off the sampled series; the last one of a session must
// count the profiles its closing summary does.
func TestRerunResumesToTheSameDataset(t *testing.T) {
	u := smallUniverse(t)
	served := obs.NewRegistry()
	ts := httptest.NewServer(gplusd.New(u, gplusd.Options{Metrics: served}))
	defer ts.Close()

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	out := filepath.Join(t.TempDir(), "data")
	journal := filepath.Join(out, "crawl.journal")
	files := []string{"graph.v2", "profiles.jsonl", "crawl.journal"}
	session := func() (written map[string][]byte, profileFetches int64) {
		t.Helper()
		logged.Reset()
		if err := run(context.Background(), []string{"-url", ts.URL, "-out", out, "-workers", "4", "-progress", "10ms", "-sample-interval", "5ms"}); err != nil {
			t.Fatalf("gpluscrawl: %v\n%s", err, &logged)
		}
		written = make(map[string][]byte)
		for _, name := range files {
			var err error
			if written[name], err = os.ReadFile(filepath.Join(out, name)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := os.Stat(filepath.Join(out, ".segments")); !os.IsNotExist(err) {
			t.Errorf("segment directory left behind after compaction (stat: %v)", err)
		}
		lines := regexp.MustCompile(`crawl progress: crawled=(\d+) `).FindAllStringSubmatch(logged.String(), -1)
		summary := regexp.MustCompile(` crawled (\d+) profiles`).FindStringSubmatch(logged.String())
		if len(lines) == 0 || summary == nil || lines[len(lines)-1][1] != summary[1] {
			t.Errorf("last progress line and closing summary disagree (%v vs %v):\n%s", lines, summary, &logged)
		}
		return written, served.Counter("gplusd_requests_total", obs.Label{Key: obs.KeyEndpoint, Value: obs.EndpointProfile}).Value()
	}

	first, fetched := session()
	if fetched == 0 {
		t.Fatal("first run fetched no profile")
	}
	prev, err := crawler.LoadCheckpoint(journal)
	if err != nil {
		t.Fatalf("journal is not a loadable checkpoint: %v", err)
	}
	ds, err := dataset.LoadWith(out, dataset.Options{})
	if err != nil {
		t.Fatalf("loading the crawled dataset: %v", err)
	}
	if ds.NumCrawled() != len(prev.Profiles) || ds.NumUsers() != len(prev.Discovered) || int64(len(prev.Profiles)) != fetched {
		t.Errorf("dataset has %d/%d crawled/users, journal %d/%d, server saw %d profile fetches",
			ds.NumCrawled(), ds.NumUsers(), len(prev.Profiles), len(prev.Discovered), fetched)
	}

	second, fetchedAfter := session()
	if fetchedAfter != fetched {
		t.Errorf("rerun fetched %d new profiles, want 0", fetchedAfter-fetched)
	}
	if !strings.Contains(logged.String(), "resuming: ") || !strings.Contains(logged.String(), "crawled 0 profiles (+") {
		t.Errorf("rerun did not report a resumed, empty session:\n%s", &logged)
	}
	for _, name := range files {
		if !bytes.Equal(first[name], second[name]) {
			t.Errorf("%s differs after the rerun (%d vs %d bytes)", name, len(first[name]), len(second[name]))
		}
	}
}

// TestGivingUpExitsNonZeroAndResumes: against a service that sheds every
// request, -abort-errors ends the session with an error — after saving
// what it has, so an unattended loop can tell "gave up" from "finished" —
// and the journal it leaves resumes, against a healthy service, to the
// dataset of a crawl that never met the outage.
func TestGivingUpExitsNonZeroAndResumes(t *testing.T) {
	u := smallUniverse(t)
	healthy := httptest.NewServer(gplusd.New(u, gplusd.Options{}))
	defer healthy.Close()
	down := httptest.NewServer(gplusd.New(u, gplusd.Options{Faults: &gplusd.FaultSpec{
		Seed: 1, Rules: []gplusd.FaultRule{{Kind: gplusd.FaultUnavailable, Rate: 1}},
	}}))
	defer down.Close()

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	dir := t.TempDir()
	crawl := func(url, out string) error {
		return run(context.Background(), []string{"-url", url, "-out", out, "-seeds", u.IDs[0] + "," + u.IDs[1],
			"-workers", "4", "-abort-errors", "2", "-progress", "0"})
	}
	out, ref := filepath.Join(dir, "data"), filepath.Join(dir, "ref")
	if err := crawl(healthy.URL, ref); err != nil {
		t.Fatalf("reference crawl: %v\n%s", err, &logged)
	}

	if err := crawl(down.URL, out); !errors.Is(err, crawler.ErrTooManyErrors) {
		t.Fatalf("crawl of a dead service returned %v, want ErrTooManyErrors\n%s", err, &logged)
	}
	if !strings.Contains(logged.String(), "saving partial results") || !strings.Contains(logged.String(), "wrote dataset: ") {
		t.Errorf("giving up did not save what it had:\n%s", &logged)
	}
	if prev, err := crawler.LoadCheckpoint(filepath.Join(out, "crawl.journal")); err != nil {
		t.Fatalf("journal of the abandoned session is not a loadable checkpoint: %v", err)
	} else if len(prev.Profiles) != 0 || len(prev.Discovered) != 2 {
		t.Errorf("journal holds %d profiles, %d discovered; want the two seeds, uncrawled", len(prev.Profiles), len(prev.Discovered))
	}

	if err := crawl(healthy.URL, out); err != nil {
		t.Fatalf("rerun against the healthy service: %v\n%s", err, &logged)
	}
	for _, name := range []string{"graph.v2", "profiles.jsonl"} {
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the reference crawl's (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestSeedFetchHonorsAttemptTimeout: without -seeds the crawl starts
// with a GET /seed, and that request runs under -attempt-timeout like
// every worker's. The first GET /seed hangs until the client hangs up
// (at most 5s); the crawl must cut it at the attempt deadline and retry,
// not wait the hang out.
func TestSeedFetchHonorsAttemptTimeout(t *testing.T) {
	srv := gplusd.New(smallUniverse(t), gplusd.Options{})
	var mu sync.Mutex
	var seeds int
	var hung time.Duration
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/seed" {
			mu.Lock()
			seeds++
			first := seeds == 1
			mu.Unlock()
			if first {
				start := time.Now()
				select {
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
				mu.Lock()
				hung = time.Since(start)
				mu.Unlock()
			}
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	out := filepath.Join(t.TempDir(), "data")
	if err := run(context.Background(), []string{"-url", ts.URL, "-out", out, "-attempt-timeout", "250ms", "-max", "5", "-progress", "0"}); err != nil {
		t.Fatalf("gpluscrawl: %v\n%s", err, &logged)
	}
	mu.Lock()
	defer mu.Unlock()
	if seeds == 0 {
		t.Fatal("the crawl never fetched /seed")
	}
	if hung <= 0 || hung >= 2*time.Second {
		t.Errorf("the hung GET /seed held %v, want it cut by the 250ms attempt deadline (< 2s)", hung)
	}
}

// TestResumeCountsATornRecordOnce: a session cut short leaves a journal
// whose final line a crash then tears; the resumed session warns of the
// one torn record and its run directory counts it once in
// crawler_journal_torn_records_total.
func TestResumeCountsATornRecordOnce(t *testing.T) {
	ts := httptest.NewServer(gplusd.New(smallUniverse(t), gplusd.Options{}))
	defer ts.Close()

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	dir := t.TempDir()
	out, obsDir := filepath.Join(dir, "data"), filepath.Join(dir, "run")
	crawl := func(more ...string) {
		t.Helper()
		args := append([]string{"-url", ts.URL, "-out", out, "-workers", "2", "-progress", "0"}, more...)
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("gpluscrawl %v: %v\n%s", args, err, &logged)
		}
	}
	crawl("-max", "40", "-sample-interval", "0")
	journal := filepath.Join(out, "crawl.journal")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: its newline and the byte before it are lost.
	if err := os.Truncate(journal, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	crawl("-obs-dir", obsDir, "-profile-interval", "0")
	if want := "dropped 1 torn trailing record(s)"; !strings.Contains(logged.String(), want) {
		t.Errorf("resumed session did not warn %q:\n%s", want, &logged)
	}
	f, err := os.Open(filepath.Join(obsDir, rundir.SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dump, _, err := series.ReadTicks(f)
	if err != nil {
		t.Fatal(err)
	}
	ticks := dump.Ticks()
	if len(ticks) == 0 {
		t.Fatal("the run directory holds no sample")
	}
	if n := ticks[len(ticks)-1].Counters["crawler_journal_torn_records_total"]; n != 1 {
		t.Errorf("crawler_journal_torn_records_total = %d after resuming over one torn record, want 1", n)
	}
}
