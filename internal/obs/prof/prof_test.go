package prof

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
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
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// manifest reads the ring's capture list the way offline analysis does.
func manifest(t *testing.T, dir string) []Entry {
	t.Helper()
	es, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	return es
}

func TestStoreRetentionEvictsOldestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	s, dir := testStore(t, StoreOptions{MaxCaptures: 3, Metrics: reg})
	for i := 0; i < 6; i++ {
		if _, err := s.Append("cpu", "interval", "OK", time.Millisecond, []byte{byte(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	es := manifest(t, dir)
	if len(es) != 3 {
		t.Fatalf("entries after eviction = %d, want 3", len(es))
	}
	for i, e := range es {
		wantSeq := uint64(3 + i)
		if e.Seq != wantSeq {
			t.Errorf("entry %d seq = %d, want %d (oldest must go first)", i, e.Seq, wantSeq)
		}
		if _, err := os.Stat(e.Path(dir)); err != nil {
			t.Errorf("capture %s missing: %v", e.File, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.pb.gz"))
	if len(files) != 3 {
		t.Errorf("capture files on disk = %d, want 3", len(files))
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
	for i := 0; i < 4; i++ {
		if _, err := s.Append("heap", "interval", "", 0, big); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	es := manifest(t, dir)
	if len(es) != 2 {
		t.Fatalf("entries = %d, want 2 (2x400 fits in 1000, 3x400 does not)", len(es))
	}
	if es[0].Seq != 2 || es[1].Seq != 3 {
		t.Errorf("kept seqs = %d,%d, want 2,3", es[0].Seq, es[1].Seq)
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	s, dir := testStore(t, StoreOptions{})
	for i := 0; i < 3; i++ {
		if _, err := s.Append("goroutine", "interval", "OK", 0, []byte("dump")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-append leaves a torn (newline-less) final record.
	mf := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(mf, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"kind":"cpu","file":"cpu-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Plus an orphan capture file that never made the manifest.
	orphan := filepath.Join(dir, "cpu-000099.pb.gz")
	if err := os.WriteFile(orphan, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And the temp file of a manifest rewrite that crashed before its rename.
	staleTmp := filepath.Join(dir, "."+manifestName+"-123456")
	if err := os.WriteFile(staleTmp, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	es := manifest(t, dir)
	if len(es) != 3 {
		t.Fatalf("entries after recovery = %d, want 3", len(es))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan capture survived reopen: %v", err)
	}
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Errorf("stale manifest temp file survived reopen: %v", err)
	}
	if fi, err := os.Stat(mf); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("rewritten manifest mode = %v (err=%v), want 0644", fi.Mode().Perm(), err)
	}
	raw, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Error("repaired manifest does not end in newline")
	}
	if bytes.Contains(raw, []byte(`cpu-0000`)) {
		t.Error("torn record survived repair")
	}
	// The ring must keep working after repair: next seq continues.
	e, err := s2.Append("heap", "interval", "", 0, []byte("x"))
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if e.Seq != 3 {
		t.Errorf("seq after recovery = %d, want 3", e.Seq)
	}
}

func TestStoreDropsEntriesWithMissingFiles(t *testing.T) {
	s, dir := testStore(t, StoreOptions{})
	for i := 0; i < 3; i++ {
		if _, err := s.Append("heap", "interval", "", 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	es := manifest(t, dir)
	s.Close()
	os.Remove(es[1].Path(dir))
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := manifest(t, dir)
	if len(got) != 2 {
		t.Fatalf("entries = %d, want 2 after a capture file vanished", len(got))
	}
	for _, e := range got {
		if e.Seq == es[1].Seq {
			t.Errorf("entry %d kept despite missing file", e.Seq)
		}
	}
}

func TestDecodeHeapProfile(t *testing.T) {
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("capture heap: %v", err)
	}
	p, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.ValueIndex("inuse_space") < 0 {
		t.Fatalf("heap profile sample types = %v, want inuse_space present", p.SampleTypes)
	}
	if len(p.Samples) == 0 {
		t.Fatal("heap profile decoded to zero samples")
	}
	var foundStack bool
	for i := range p.Samples {
		if len(p.Samples[i].Stack) > 0 && p.Samples[i].Stack[0].Func != "" {
			foundStack = true
			break
		}
	}
	if !foundStack {
		t.Error("no sample carries a resolved function name")
	}
	_ = sink
}

// spin burns CPU until done is closed, in a form the compiler cannot
// elide.
func spin(done <-chan struct{}) uint64 {
	var acc uint64 = 1
	for {
		select {
		case <-done:
			return acc
		default:
		}
		for i := 0; i < 1<<14; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestLabelAttributionPinsSpinPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU-profile timing test")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("phase", "spin"), func(context.Context) {
				spin(done)
			})
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(done)
	wg.Wait()
	pprof.StopCPUProfile()

	p, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.ValueIndex("cpu") < 0 {
		t.Fatalf("cpu profile sample types = %v, want cpu present", p.SampleTypes)
	}
	rows := ByLabel([]*Profile{p}, "phase")
	var spinCost, total int64
	for _, r := range rows {
		total += r.Cost
		if r.Value == "spin" {
			spinCost = r.Cost
		}
	}
	if total == 0 {
		t.Fatal("cpu profile captured zero cost")
	}
	if share := float64(spinCost) / float64(total); share < 0.5 {
		t.Errorf("phase=spin share = %.2f (%d/%d), want >= 0.5\nby-label:\n%s",
			share, spinCost, total, FormatByLabel(rows, "phase", SampleUnit([]*Profile{p})))
	}
	// The spin function itself must dominate the flat top.
	top := TopFuncs([]*Profile{p}, "flat", 5)
	if len(top) == 0 || !strings.Contains(top[0].Func, "spin") {
		t.Errorf("top flat function = %+v, want the spin loop", top)
	}
}

func TestCollectorIntervalAndTriggerCaptures(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{MaxCaptures: 100, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var state atomic.Value
	state.Store("OK")
	c := NewCollector(store, Options{
		Interval:           120 * time.Millisecond,
		CPUDuration:        60 * time.Millisecond,
		TriggerCPUDuration: 40 * time.Millisecond,
		TriggerCooldown:    time.Millisecond,
		SLOState:           func() string { return state.Load().(string) },
		Metrics:            reg,
	})
	c.Start()
	time.Sleep(150 * time.Millisecond) // at least one full interval cycle
	state.Store("PAGE:availability")
	c.Trigger("slo-page:availability")
	time.Sleep(100 * time.Millisecond)
	c.Stop()

	byKindTrigger := make(map[[2]string]int)
	var pageSLO bool
	for _, e := range manifest(t, dir) {
		byKindTrigger[[2]string{e.Kind, e.Trigger}]++
		if e.Trigger == "slo-page:availability" && e.SLO == "PAGE:availability" {
			pageSLO = true
		}
	}
	if byKindTrigger[[2]string{"cpu", "interval"}] == 0 {
		t.Errorf("no interval cpu capture: %v", byKindTrigger)
	}
	if byKindTrigger[[2]string{"goroutine", "slo-page:availability"}] == 0 {
		t.Errorf("no trigger goroutine dump: %v", byKindTrigger)
	}
	if byKindTrigger[[2]string{"cpu", "slo-page:availability"}] == 0 {
		t.Errorf("no trigger cpu burst: %v", byKindTrigger)
	}
	for _, kind := range []string{"heap", "mutex"} {
		if byKindTrigger[[2]string{kind, "interval"}]+byKindTrigger[[2]string{kind, "final"}] == 0 {
			t.Errorf("no %s snapshot captured: %v", kind, byKindTrigger)
		}
	}
	if !pageSLO {
		t.Error("trigger capture not stamped with active SLO state")
	}
	// Triggered captures decode and carry the cpu dimension.
	for _, e := range manifest(t, dir) {
		if e.Kind != "cpu" {
			continue
		}
		p, err := ReadFile(e.Path(dir))
		if err != nil {
			t.Fatalf("decode %s: %v", e.File, err)
		}
		if p.ValueIndex("cpu") < 0 {
			t.Errorf("%s: sample types %v missing cpu", e.File, p.SampleTypes)
		}
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
	if _, err := s.Append("cpu", "interval", "", 0, nil); err != nil {
		t.Errorf("nil store Append: %v", err)
	}
	if s.Close() != nil {
		t.Error("nil store methods not no-ops")
	}
}

func TestDiffHighlightsShiftedCost(t *testing.T) {
	mk := func(phaseCosts map[string]int64) *Profile {
		p := &Profile{
			SampleTypes:       []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
			DefaultSampleType: "cpu",
		}
		for phase, cost := range phaseCosts {
			p.Samples = append(p.Samples, Sample{
				Stack:  []Frame{{Func: "work." + phase}},
				Value:  []int64{cost},
				Labels: map[string]string{"phase": phase},
			})
		}
		return p
	}
	a := mk(map[string]int64{"fetch": 80, "decode": 20})
	b := mk(map[string]int64{"fetch": 30, "decode": 70, "retry": 100})
	rows := Diff([]*Profile{a}, []*Profile{b}, "phase", 0)
	if len(rows) != 3 {
		t.Fatalf("diff rows = %d, want 3", len(rows))
	}
	if rows[0].Name != "fetch" && rows[0].Name != "retry" {
		t.Errorf("largest shift = %q, want fetch or retry", rows[0].Name)
	}
	for _, r := range rows {
		if r.Name == "retry" {
			if r.ShareA != 0 || r.ShareB == 0 {
				t.Errorf("retry shares = %.2f/%.2f, want 0/nonzero", r.ShareA, r.ShareB)
			}
		}
	}
	// Function-level diff over the same data.
	frows := Diff([]*Profile{a}, []*Profile{b}, "", 2)
	if len(frows) != 2 {
		t.Fatalf("function diff rows = %d, want 2 (truncated)", len(frows))
	}
}
