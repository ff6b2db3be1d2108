package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d Mean=%v, want 8 and 5", s.N, s.Mean)
	}
	if s.Stddev != 2 {
		t.Errorf("Stddev = %v, want 2 (population form)", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(samples, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
}

func TestJaccard(t *testing.T) {
	a := []string{"IT", "Mu", "IT"}
	b := []string{"IT", "IT", "Bu"}
	// multiset: inter = {IT:2} = 2, union = {IT:2, Mu:1, Bu:1} = 4.
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("Jaccard(a,a) = %v, want 1", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("Jaccard(nil,nil) = %v, want 1", got)
	}
	if got := Jaccard(a, nil); got != 0 {
		t.Errorf("Jaccard(a,nil) = %v, want 0", got)
	}
}

func TestJaccardPropertySymmetricBounded(t *testing.T) {
	f := func(a, b []string) bool {
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileMatchesFullSort holds the selection-based Quantile to the
// definition it replaced — interpolate between two elements of the
// sorted copy — bit for bit, on inputs that stress a quickselect: runs
// of equal values, sorted and reversed input, NaNs and infinities.
func TestQuantileMatchesFullSort(t *testing.T) {
	bySort := func(samples []float64, q float64) float64 {
		sorted := sortedCopy(samples)
		n := len(sorted)
		if q <= 0 {
			return sorted[0]
		}
		if q >= 1 {
			return sorted[n-1]
		}
		pos := q * float64(n-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		if lo == hi {
			return sorted[lo]
		}
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]func(i, n int) float64{
		"uniform":  func(i, n int) float64 { return rng.Float64() },
		"few":      func(i, n int) float64 { return float64(rng.Intn(4)) },
		"equal":    func(i, n int) float64 { return 7 },
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"organ":    func(i, n int) float64 { return math.Abs(float64(n/2 - i)) },
		"special": func(i, n int) float64 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.5}[rng.Intn(6)]
		},
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 10, 101, 1000} {
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = shape(i, n)
			}
			before := append([]float64(nil), samples...)
			for _, q := range []float64{-1, 0, 0.001, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2, rng.Float64()} {
				got, want := Quantile(samples, q), bySort(samples, q)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s n=%d q=%v: Quantile = %v, full sort gives %v", name, n, q, got, want)
				}
			}
			for i := range samples {
				if math.Float64bits(samples[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s n=%d: Quantile modified its input", name, n)
				}
			}
		}
	}
}
