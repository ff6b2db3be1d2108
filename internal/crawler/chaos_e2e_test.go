package crawler

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gplus/internal/gplusd"
)

// TestChaosKillResumeConvergence is the end-to-end robustness proof: a
// crawl against a misbehaving service (503 bursts, mid-body resets,
// hangs past the client timeout, scheduled outages) is killed mid-flight,
// its journal tail is torn, and the resumed crawl must still converge to
// exactly the dataset a fault-free crawl collects.
func TestChaosKillResumeConvergence(t *testing.T) {
	u := crawlUniverse(t)
	seed := seedID(u)
	ctx := context.Background()

	// The ground truth: a fault-free, unbudgeted crawl.
	ref, err := crawlInRAM(ctx, Config{
		BaseURL: startService(t, u, gplusd.Options{}),
		Seeds:   []string{seed}, Workers: 8,
		FetchIn: true, FetchOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The same universe behind a full chaos suite. The hang hold (300ms)
	// deliberately exceeds the crawler's HTTP timeout (150ms).
	chaosURL := startService(t, u, gplusd.Options{
		Faults: &gplusd.FaultSpec{Seed: 42, Rules: []gplusd.FaultRule{
			{Kind: gplusd.FaultUnavailable, Rate: 0.08},
			{Kind: gplusd.FaultReset, Rate: 0.05},
			{Kind: gplusd.FaultHang, Rate: 0.01, Delay: 300 * time.Millisecond},
			{Kind: gplusd.FaultOutage, Every: 900 * time.Millisecond, Down: 60 * time.Millisecond},
		}},
	})
	chaosCfg := Config{
		BaseURL: chaosURL, Seeds: []string{seed}, Workers: 8,
		FetchIn: true, FetchOut: true,
		AttemptTimeout:   150 * time.Millisecond,
		MaxRetries:       16,
		RetryBackoffBase: 2 * time.Millisecond,
	}

	// Session 1: journal aggressively, then "kill" the crawl (cancel its
	// context) once the journal shows real progress on disk.
	path := filepath.Join(t.TempDir(), "crawl.journal")
	j1, err := OpenJournal(path, JournalOptions{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	go func() {
		for {
			if fi, err := os.Stat(path); err == nil && fi.Size() > 60_000 {
				kill()
				return
			}
			select {
			case <-killCtx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	cfg1 := chaosCfg
	cfg1.Journal = j1
	if _, err := crawlInRAM(killCtx, cfg1); err == nil {
		t.Fatal("session 1 finished before the kill; universe too small for this test")
	}
	kill()
	if err := j1.Close(); err != nil {
		t.Fatalf("session 1 journal: %v", err)
	}

	// Simulate the torn final line of a mid-append crash.
	fi, err := os.Stat(path)
	if err != nil || fi.Size() < 4 {
		t.Fatalf("journal too small to tear: %v, %v", fi, err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	prev, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading torn journal: %v", err)
	}
	if prev.Stats.TornRecords != 1 {
		t.Errorf("torn journal reports %d torn records, want 1", prev.Stats.TornRecords)
	}
	if len(prev.Profiles) == 0 || len(prev.Profiles) >= len(ref.Profiles) {
		t.Fatalf("session 1 checkpointed %d of %d profiles; kill threshold mistuned",
			len(prev.Profiles), len(ref.Profiles))
	}

	// Session 2: resume from the journal, appending to it, still under
	// chaos, and run to completion.
	j2, err := OpenJournal(path, JournalOptions{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := chaosCfg
	cfg2.Resume = prev
	cfg2.Journal = j2
	res, err := crawlInRAM(ctx, cfg2)
	if err != nil {
		t.Fatalf("session 2: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("session 2 journal: %v", err)
	}

	// Convergence: the kill, the torn tail, and every injected fault must
	// be invisible in the final dataset.
	assertSameCrawl := func(label string, got *Result) {
		t.Helper()
		if !reflect.DeepEqual(got.Profiles, ref.Profiles) {
			t.Errorf("%s: profiles diverge from fault-free crawl (%d vs %d)",
				label, len(got.Profiles), len(ref.Profiles))
		}
		if !reflect.DeepEqual(got.Discovered, ref.Discovered) {
			t.Errorf("%s: discovered sets diverge (%d vs %d)",
				label, len(got.Discovered), len(ref.Discovered))
		}
		// Refetching half-crawled profiles legitimately duplicates edge
		// observations, so compare the deduplicated graphs.
		gotGraph, gotIDs := buildGraph(got)
		refGraph, refIDs := buildGraph(ref)
		if !reflect.DeepEqual(gotIDs, refIDs) || !reflect.DeepEqual(gotGraph, refGraph) {
			t.Errorf("%s: graph diverges from fault-free crawl", label)
		}
	}
	assertSameCrawl("resumed result", res)

	// The journal alone — torn, repaired, appended across two sessions —
	// must reconstruct the same dataset.
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("reloading final journal: %v", err)
	}
	assertSameCrawl("final journal", final)
	if res.Stats.ProfilesResumed != len(prev.Profiles) {
		t.Errorf("ProfilesResumed = %d, want %d", res.Stats.ProfilesResumed, len(prev.Profiles))
	}
}
