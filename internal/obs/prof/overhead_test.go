package prof

import (
	"testing"
	"time"
)

// workUnit is a fixed slab of CPU work whose wall-clock time the
// overhead test compares with and without continuous capture running.
func workUnit() uint64 {
	var acc uint64 = 1
	for i := 0; i < 40_000_000; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

var overheadSink uint64

func timedWork() time.Duration {
	start := time.Now()
	overheadSink += workUnit()
	return time.Since(start)
}

// TestCaptureOverheadBudget enforces the continuous-capture overhead
// budget: a collector running an aggressive schedule (CPU profiling
// most of the time plus per-cycle snapshots) must slow a fixed CPU
// workload by at most 2% wall-clock. Baseline and capture rounds
// alternate — a fresh collector started and stopped around each capture
// round — and each capture round is compared with the baseline round
// just before it, so neither drift in neighbouring load nor one lucky
// fast round lands on one side only. The best pair is held to the
// budget: scheduler noise cannot fail it; only a slowdown that shows in
// every pair can.
func TestCaptureOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock budget")
	}
	const rounds = 8
	timedWork() // warm up

	var baseline, withCapture time.Duration // the pair with the lowest ratio
	for i := 0; i < rounds; i++ {
		b := timedWork()

		store, err := OpenStore(t.TempDir(), StoreOptions{MaxCaptures: 32})
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(store, Options{
			Interval:    200 * time.Millisecond,
			CPUDuration: 150 * time.Millisecond,
		})
		c.Start()
		w := timedWork()
		c.Stop()
		if i == 0 || float64(w)/float64(b) < float64(withCapture)/float64(baseline) {
			baseline, withCapture = b, w
		}
	}

	ratio := float64(withCapture) / float64(baseline)
	t.Logf("baseline=%v with-capture=%v ratio=%.4f", baseline, withCapture, ratio)
	if ratio > 1.02 {
		t.Errorf("continuous capture slowdown %.2f%% exceeds the 2%% budget (baseline %v, with capture %v)",
			100*(ratio-1), baseline, withCapture)
	}
}
