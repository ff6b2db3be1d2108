package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestReservoirSmallStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	r := NewReservoir[int](10, rng)
	for i := 0; i < 5; i++ {
		r.Add(i)
	}
	if len(r.Items()) != 5 || r.seen != 5 {
		t.Fatalf("items=%v seen=%d", r.Items(), r.seen)
	}
}

// TestReservoirGrowsOnDemand: a stream far shorter than k must not pay
// for k slots (Figure 9 keeps ~10k pairs in 100k-slot reservoirs).
func TestReservoirGrowsOnDemand(t *testing.T) {
	const k = 100_000
	r := NewReservoir[int](k, rand.New(rand.NewPCG(3, 4)))
	for i := 0; i < 100; i++ {
		r.Add(i)
	}
	if got := cap(r.Items()); len(r.Items()) != 100 || got > k/100 {
		t.Fatalf("100 items of a %d-slot reservoir: len %d, cap %d", k, len(r.Items()), got)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of 20 items should land in a k=5 reservoir with p = 1/4.
	rng := rand.New(rand.NewPCG(5, 6))
	counts := make([]int, 20)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](5, rng)
		for i := 0; i < 20; i++ {
			r.Add(i)
		}
		for _, v := range r.Items() {
			counts[v]++
		}
	}
	want := float64(trials) * 5 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Errorf("item %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBoundedPareto(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 10_000; i++ {
		x := BoundedPareto(rng, 1.2, 1, 5000)
		if x < 1 || x > 5000 {
			t.Fatalf("sample %v outside [1, 5000]", x)
		}
	}
	// Degenerate parameters fall back to xmin.
	if x := BoundedPareto(rng, 0, 1, 10); x != 1 {
		t.Errorf("alpha=0 sample = %v, want 1", x)
	}
	if x := BoundedPareto(rng, 1, 5, 5); x != 5 {
		t.Errorf("xmax==xmin sample = %v, want 5", x)
	}
}

func TestBoundedParetoTail(t *testing.T) {
	// With alpha=1 on [1,1000], P(X >= 10) ≈ 0.1 (slightly above due to
	// the bounded upper tail).
	rng := rand.New(rand.NewPCG(11, 12))
	const n = 100_000
	count := 0
	for i := 0; i < n; i++ {
		if BoundedPareto(rng, 1, 1, 1000) >= 10 {
			count++
		}
	}
	got := float64(count) / n
	if got < 0.08 || got > 0.13 {
		t.Errorf("P(X>=10) = %v, want ~0.1", got)
	}
}

func TestWeightedChooser(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	w := NewWeightedChooser([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 40_000
	for i := 0; i < n; i++ {
		counts[w.Choose(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	if math.Abs(float64(counts[0])/n-0.25) > 0.02 {
		t.Errorf("index 0 frequency %v, want ~0.25", float64(counts[0])/n)
	}
	if math.Abs(float64(counts[2])/n-0.75) > 0.02 {
		t.Errorf("index 2 frequency %v, want ~0.75", float64(counts[2])/n)
	}
}

func TestWeightedChooserPanics(t *testing.T) {
	for _, weights := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v did not panic", weights)
				}
			}()
			NewWeightedChooser(weights)
		}()
	}
}
