package stats

import (
	"math"
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
