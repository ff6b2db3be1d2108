package prof

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"gplus/internal/obs"
)

func testStore(t *testing.T, opts StoreOptions) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s, dir
}

// ring lists the capture files in dir, oldest seq first: the ring as an
// operator's shell glob sees it.
func ring(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if captureName.MatchString(de.Name()) {
			names = append(names, de.Name())
		}
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(seqOf(t, a), seqOf(t, b)) })
	return names
}

func seqOf(t *testing.T, name string) uint64 {
	t.Helper()
	seq, err := strconv.ParseUint(captureName.FindStringSubmatch(name)[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func appendN(t *testing.T, s *Store, kind string, data ...[]byte) {
	t.Helper()
	for _, d := range data {
		if err := s.Append(kind, "interval", d); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestStoreRetentionEvictsOldestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	s, dir := testStore(t, StoreOptions{MaxCaptures: 3, Metrics: reg})
	for i := 0; i < 6; i++ {
		appendN(t, s, "cpu", []byte{byte(i)})
	}
	want := []string{"cpu-000003-interval.pb.gz", "cpu-000004-interval.pb.gz", "cpu-000005-interval.pb.gz"}
	if got := ring(t, dir); !slices.Equal(got, want) {
		t.Fatalf("ring after eviction = %v, want %v (oldest must go first)", got, want)
	}
	for i, name := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(b, []byte{byte(3 + i)}) {
			t.Errorf("%s holds %v (err=%v), want capture %d", name, b, err, 3+i)
		}
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Mode().Perm() != 0o644 {
			t.Errorf("%s mode = %v (err=%v), want 0644", name, fi.Mode().Perm(), err)
		}
	}
	if got := reg.Counter("obsprof_evictions_total").Value(); got != 3 {
		t.Errorf("obsprof_evictions_total = %d, want 3", got)
	}
	if got := reg.Counter("obsprof_captures_total", obs.Label{Key: obs.KeyKind, Value: "cpu"}, obs.Label{Key: obs.KeyTrigger, Value: "interval"}).Value(); got != 6 {
		t.Errorf("obsprof_captures_total = %d, want 6", got)
	}
}

func TestStoreMaxBytesEviction(t *testing.T) {
	s, dir := testStore(t, StoreOptions{MaxCaptures: 100, MaxBytes: 1000})
	big := bytes.Repeat([]byte{0xab}, 400)
	appendN(t, s, "heap", big, big, big, big)
	want := []string{"heap-000002-interval.pb.gz", "heap-000003-interval.pb.gz"}
	if got := ring(t, dir); !slices.Equal(got, want) {
		t.Fatalf("ring = %v, want %v (2x400 fits in 1000, 3x400 does not)", got, want)
	}
}

// TestStoreTornTailRecovery: a crash inside durable.WriteFile leaves the
// capture's dot-prefixed temp file and no capture. Reopen removes it and
// continues the seq after the last whole capture.
func TestStoreTornTailRecovery(t *testing.T) {
	s, dir := testStore(t, StoreOptions{})
	appendN(t, s, "goroutine", []byte("a"), []byte("b"), []byte("c"))
	staleTmp := filepath.Join(dir, ".cpu-000003-slo-page_availability.pb.gz-123456")
	if err := os.WriteFile(staleTmp, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after torn capture: %v", err)
	}
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Errorf("temp file of the interrupted capture survived reopen: %v", err)
	}
	appendN(t, s2, "heap", []byte("x"))
	want := []string{"goroutine-000000-interval.pb.gz", "goroutine-000001-interval.pb.gz", "goroutine-000002-interval.pb.gz", "heap-000003-interval.pb.gz"}
	if got := ring(t, dir); !slices.Equal(got, want) {
		t.Errorf("ring after reopen = %v, want %v", got, want)
	}
}

// TestStoreDropsEntriesWithMissingFiles: a capture deleted by hand is
// gone from the reopened ring's retention and byte accounting.
func TestStoreDropsEntriesWithMissingFiles(t *testing.T) {
	s, dir := testStore(t, StoreOptions{MaxCaptures: 3})
	appendN(t, s, "heap", []byte("xx"), []byte("yy"), []byte("zz"))
	if err := os.Remove(filepath.Join(dir, "heap-000001-interval.pb.gz")); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s2, err := OpenStore(dir, StoreOptions{MaxCaptures: 3, Metrics: reg})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := reg.Gauge("obsprof_store_bytes").Value(); got != 4 {
		t.Errorf("obsprof_store_bytes = %d after a capture vanished, want 4", got)
	}
	appendN(t, s2, "heap", []byte("ww"))
	want := []string{"heap-000000-interval.pb.gz", "heap-000002-interval.pb.gz", "heap-000003-interval.pb.gz"}
	if got := ring(t, dir); !slices.Equal(got, want) {
		t.Errorf("ring = %v, want %v (the vanished capture must not count)", got, want)
	}
}

func TestStoreReopenReappliesRetention(t *testing.T) {
	s, dir := testStore(t, StoreOptions{MaxCaptures: 10})
	appendN(t, s, "cpu", []byte("0"), []byte("1"), []byte("2"), []byte("3"), []byte("4"))
	reg := obs.NewRegistry()
	if _, err := OpenStore(dir, StoreOptions{MaxCaptures: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	want := []string{"cpu-000003-interval.pb.gz", "cpu-000004-interval.pb.gz"}
	if got := ring(t, dir); !slices.Equal(got, want) {
		t.Errorf("ring reopened under a tighter bound = %v, want %v", got, want)
	}
	if got := reg.Counter("obsprof_evictions_total").Value(); got != 3 {
		t.Errorf("obsprof_evictions_total = %d, want 3", got)
	}
}

// TestStoreLeavesForeignFiles: a file outside the capture grammar —
// a <kind>-<seq>.pb.gz without a trigger among them — is not the ring's.
// It survives OpenStore and retention byte for byte, adds nothing to
// obsprof_store_bytes and does not advance the seq.
func TestStoreLeavesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"cpu-000007.pb.gz": "no trigger",
		"manifest.jsonl":   `{"seq":7,"kind":"cpu","file":"cpu-000007.pb.gz"}` + "\n",
		"notes.txt":        "mine",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	s, err := OpenStore(dir, StoreOptions{MaxCaptures: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("obsprof_store_bytes").Value(); got != 0 {
		t.Errorf("obsprof_store_bytes = %d over foreign files alone, want 0", got)
	}
	appendN(t, s, "cpu", []byte("first"))
	if got, want := ring(t, dir), []string{"cpu-000000-interval.pb.gz"}; !slices.Equal(got, want) {
		t.Errorf("ring = %v, want %v (the seq starts at 0)", got, want)
	}
	appendN(t, s, "cpu", []byte("second"))
	if got, want := ring(t, dir), []string{"cpu-000001-interval.pb.gz"}; !slices.Equal(got, want) {
		t.Errorf("ring = %v, want %v (retention evicts captures only)", got, want)
	}
	if got := reg.Gauge("obsprof_store_bytes").Value(); got != int64(len("second")) {
		t.Errorf("obsprof_store_bytes = %d, want %d (the one retained capture)", got, len("second"))
	}
	for name, body := range files {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != body {
			t.Errorf("foreign file %s changed: %q (err=%v)", name, b, err)
		}
	}
}

func TestCaptureFileNames(t *testing.T) {
	for _, tc := range []struct {
		kind, trigger string
		seq           uint64
		want          string
	}{
		{"cpu", "interval", 0, "cpu-000000-interval.pb.gz"},
		{"cpu", "slo-page:availability", 42, "cpu-000042-slo-page_availability.pb.gz"},
		{"goroutine", "slo-page:a/b c", 7, "goroutine-000007-slo-page_a_b_c.pb.gz"},
		{"mutex", "stall", 1234567, "mutex-1234567-stall.pb.gz"},
		{"heap", "v1.2_x", 3, "heap-000003-v1.2_x.pb.gz"},
	} {
		got := fileName(tc.kind, tc.seq, tc.trigger)
		if got != tc.want {
			t.Errorf("fileName(%q, %d, %q) = %q, want %q", tc.kind, tc.seq, tc.trigger, got, tc.want)
			continue
		}
		if !captureName.MatchString(got) || seqOf(t, got) != tc.seq {
			t.Errorf("%q does not parse back to seq %d", got, tc.seq)
		}
	}
}

// TestCollectorIntervalAndTriggerCaptures runs the collector until the
// ring holds an interval CPU capture, triggers it, and stops it once the
// trigger's goroutine dump and CPU burst are there too, each wait with a
// deadline far beyond the few hundred milliseconds they take on an idle
// machine, so a loaded one only makes the test slower.
func TestCollectorIntervalAndTriggerCaptures(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	// Room for every capture of a slow run: the ring must not evict the
	// interval capture while the trigger's are awaited.
	store, err := OpenStore(dir, StoreOptions{MaxCaptures: 1000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(store, Options{
		Interval:           120 * time.Millisecond,
		CPUDuration:        60 * time.Millisecond,
		TriggerCPUDuration: 40 * time.Millisecond,
		TriggerCooldown:    time.Millisecond,
		Metrics:            reg,
	})
	kindTrigger := regexp.MustCompile(`^([a-z]+)-[0-9]+-(.*)\.pb\.gz$`)
	// waitFor polls the ring until it holds a capture of each kind and
	// file-name trigger given.
	waitFor := func(want ...[2]string) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			have := make(map[[2]string]bool)
			for _, name := range ring(t, dir) {
				m := kindTrigger.FindStringSubmatch(name)
				have[[2]string{m[1], m[2]}] = true
			}
			missing := slices.DeleteFunc(slices.Clone(want), func(w [2]string) bool { return have[w] })
			if len(missing) == 0 {
				return
			}
			if time.Now().After(deadline) {
				c.Stop()
				t.Fatalf("no %v capture within 30 s; the ring holds %v", missing, ring(t, dir))
			}
		}
	}
	c.Start()
	waitFor([2]string{"cpu", "interval"})
	c.Trigger("slo-page:availability")
	waitFor([2]string{"goroutine", "slo-page_availability"}, [2]string{"cpu", "slo-page_availability"})
	c.Stop()

	byKindTrigger := make(map[[2]string]int)
	for _, name := range ring(t, dir) {
		m := kindTrigger.FindStringSubmatch(name)
		byKindTrigger[[2]string{m[1], m[2]}]++
		if m[1] != "cpu" {
			continue
		}
		// Every CPU capture is a whole gzip stream (a pprof file).
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		f.Close()
		if err != nil {
			t.Errorf("%s is not a whole gzip stream: %v", name, err)
		}
	}
	if byKindTrigger[[2]string{"cpu", "interval"}] == 0 {
		t.Errorf("no interval cpu capture: %v", byKindTrigger)
	}
	if byKindTrigger[[2]string{"goroutine", "slo-page_availability"}] == 0 {
		t.Errorf("no trigger goroutine dump: %v", byKindTrigger)
	}
	if byKindTrigger[[2]string{"cpu", "slo-page_availability"}] == 0 {
		t.Errorf("no trigger cpu burst: %v", byKindTrigger)
	}
	for _, kind := range []string{"heap", "mutex"} {
		if byKindTrigger[[2]string{kind, "interval"}]+byKindTrigger[[2]string{kind, "final"}] == 0 {
			t.Errorf("no %s snapshot captured: %v", kind, byKindTrigger)
		}
	}
	if got := reg.Counter("obsprof_captures_total", obs.Label{Key: obs.KeyKind, Value: "cpu"}, obs.Label{Key: obs.KeyTrigger, Value: "slo-page:availability"}).Value(); got == 0 {
		t.Error("obsprof_captures_total lost the unsanitised trigger label")
	}
	if got := reg.Counter("obsprof_capture_errors_total").Value(); got != 0 {
		t.Errorf("obsprof_capture_errors_total = %d, want 0", got)
	}
	if reg.Histogram("obsprof_capture_seconds", nil).Snapshot().Count == 0 {
		t.Error("obsprof_capture_seconds recorded nothing")
	}
}

func TestCollectorTriggerCooldown(t *testing.T) {
	store, _ := testStore(t, StoreOptions{})
	c := NewCollector(store, Options{TriggerCooldown: time.Hour})
	c.Trigger("stall")
	c.Trigger("stall")
	c.Trigger("stall")
	if n := len(c.triggers); n != 1 {
		t.Errorf("queued triggers = %d, want 1 (cooldown must drop the rest)", n)
	}
}

func TestNilCollectorAndStoreAreNoOps(t *testing.T) {
	var c *Collector
	c.Start()
	c.Trigger("x")
	c.Stop()
	var s *Store
	if err := s.Append("cpu", "interval", nil); err != nil {
		t.Errorf("nil store Append: %v", err)
	}
}
