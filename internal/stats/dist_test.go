package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{1, 2, 2, 3})
	want := []Point{{1, 1.0}, {2, 0.75}, {3, 0.25}}
	if len(pts) != len(want) {
		t.Fatalf("got %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCCDFEmpty(t *testing.T) {
	if pts := CCDF(nil); pts != nil {
		t.Fatalf("CCDF(nil) = %v", pts)
	}
	if pts := CDF(nil); pts != nil {
		t.Fatalf("CDF(nil) = %v", pts)
	}
}

func TestCDFBasic(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3})
	want := []Point{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCCDFInts(t *testing.T) {
	pts := CCDFInts([]int{0, 5, 5, 10})
	if pts[0] != (Point{0, 1.0}) {
		t.Errorf("first point %v", pts[0])
	}
	if pts[len(pts)-1] != (Point{10, 0.25}) {
		t.Errorf("last point %v", pts[len(pts)-1])
	}
}

func TestCCDFIntsMatchesCCDF(t *testing.T) {
	// Both entry points share one sort+scan path; on equivalent inputs
	// they must emit identical curves, without touching the input.
	rng := rand.New(rand.NewPCG(11, 12))
	ints := make([]int, 200)
	floats := make([]float64, len(ints))
	for i := range ints {
		ints[i] = rng.IntN(20)
		floats[i] = float64(ints[i])
	}
	orig := append([]float64(nil), floats...)
	a, b := CCDFInts(ints), CCDF(floats)
	if len(a) != len(b) {
		t.Fatalf("CCDFInts emitted %d points, CCDF %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d: CCDFInts %v vs CCDF %v", i, a[i], b[i])
		}
	}
	for i := range floats {
		if floats[i] != orig[i] {
			t.Fatal("CCDF modified its input slice")
		}
	}
}

func TestCCDFAtCDFAt(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := CCDFAt(CCDF(s), 3); got != 0.5 {
		t.Errorf("CCDFAt(3) = %v, want 0.5", got)
	}
	if got := CDFAt(CDF(s), 2); got != 0.5 {
		t.Errorf("CDFAt(2) = %v, want 0.5", got)
	}
	if got := CCDFAt(nil, 1); got != 0 {
		t.Errorf("CCDFAt(nil) = %v", got)
	}
}

// TestCDFReadersMatchSamples: a quantile and P(X <= x) read off the
// CDF's points are, to the bit, Quantile over the samples and the share
// a scan of the samples counts — with ties, one sample, even and odd
// counts, and samples lying exactly on the threshold.
func TestCDFReadersMatchSamples(t *testing.T) {
	share := func(samples []float64, x float64) float64 {
		count := 0
		for _, s := range samples {
			if s <= x {
				count++
			}
		}
		return float64(count) / float64(len(samples))
	}
	rng := rand.New(rand.NewPCG(3, 9))
	drawn := func(n int, grain float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Round(rng.Float64()*4000/grain) * grain
		}
		return out
	}
	cases := map[string][]float64{
		"n=1":             {1000},
		"n=2":             {250.5, 1000},
		"odd":             {7, 1000, 3, 1200.25, 999.5},
		"even ties":       {1000, 1000, 5, 5, 5, 2000},
		"all tied":        {1000, 1000, 1000},
		"ties at 1000":    append(drawn(4_000, 500), 1000, 1000),
		"odd fine":        drawn(3_001, 0.001),
		"even coarse":     drawn(10_000, 250),
		"even radix size": drawn(2_048, 1),
	}
	for name, samples := range cases {
		pts := CDF(samples)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.5001, 0.75, 0.99, 1} {
			got, want := CDFQuantile(pts, len(samples), q), Quantile(samples, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s q=%v: CDFQuantile = %v, Quantile = %v", name, q, got, want)
			}
		}
		for _, x := range []float64{-1, 0, 5, 999.5, 1000, math.Nextafter(1000, 0), 1500, 1e9} {
			if got, want := CDFAt(pts, x), share(samples, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s x=%v: CDFAt = %v, the samples' share = %v", name, x, got, want)
			}
		}
	}
	if got := CDFQuantile(nil, 0, 0.5); !math.IsNaN(got) {
		t.Errorf("CDFQuantile of no points = %v, want NaN", got)
	}
	if got := CDFAt(nil, 1000); got != 0 {
		t.Errorf("CDFAt of no points = %v, want 0", got)
	}
}

// TestDKW: the stated sizes and errors of the DKW bound.
func TestDKW(t *testing.T) {
	if n := DKWSize(0.01, 0.05); n != 18_445 {
		t.Errorf("DKWSize(0.01, 0.05) = %d, want 18445", n)
	}
	if got := fmt.Sprintf("%.4f", DKWEpsilon(100_000, 0.05)); got != "0.0043" {
		t.Errorf("DKWEpsilon(100000, 0.05) = %s, want 0.0043", got)
	}
	// The size buys at least its ε, and one draw fewer would not.
	n := DKWSize(0.01, 0.05)
	if DKWEpsilon(n, 0.05) > 0.01 || DKWEpsilon(n-1, 0.05) <= 0.01 {
		t.Errorf("ε(%d) = %v, ε(%d) = %v around 0.01", n, DKWEpsilon(n, 0.05), n-1, DKWEpsilon(n-1, 0.05))
	}
	if e := DKWEpsilon(0, 0.05); e != 1 {
		t.Errorf("DKWEpsilon of no draws = %v, want 1", e)
	}
}

func TestCCDFPropertyMonotoneAndBounded(t *testing.T) {
	f := func(raw []float64) bool {
		// Filter NaN which has no place in empirical curves.
		var samples []float64
		for _, v := range raw {
			if !math.IsNaN(v) {
				samples = append(samples, v)
			}
		}
		pts := CCDF(samples)
		prevX := math.Inf(-1)
		prevY := math.Inf(1)
		for _, p := range pts {
			if p.X <= prevX {
				return false // strictly increasing X
			}
			if p.Y > prevY || p.Y <= 0 || p.Y > 1 {
				return false // non-increasing Y in (0,1]
			}
			prevX, prevY = p.X, p.Y
		}
		// First point must be at the minimum with Y == 1.
		if len(pts) > 0 && pts[0].Y != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPropertyComplementsCCDF(t *testing.T) {
	// For any threshold x: P(X <= x) + P(X > x) == 1, i.e.
	// CDFAt(x) == 1 - CCDFAt(nextafter(x)).
	rng := rand.New(rand.NewPCG(7, 7))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = math.Round(rng.Float64()*10) / 2
	}
	for _, x := range []float64{0, 1, 2.5, 5, 9} {
		lhs := CDFAt(CDF(samples), x)
		rhs := 1 - CCDFAt(CCDF(samples), math.Nextafter(x, math.Inf(1)))
		if math.Abs(lhs-rhs) > 1e-12 {
			t.Errorf("x=%v: CDF %v vs 1-CCDF %v", x, lhs, rhs)
		}
	}
}

// checkSortedCopy holds sortedCopy to sort.Float64s on the same input,
// element for element by bits, and checks the input came back untouched.
func checkSortedCopy(t *testing.T, samples []float64) {
	t.Helper()
	orig := append([]float64(nil), samples...)
	want := append([]float64(nil), samples...)
	sort.Float64s(want)
	got := sortedCopy(samples)
	if len(got) != len(want) {
		t.Fatalf("sortedCopy returned %d of %d samples", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: element %d is %v (%#x), sort.Float64s has %v (%#x)",
				len(samples), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if math.Float64bits(samples[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("sortedCopy modified its input at %d", i)
		}
	}
}

// TestSortedCopyMatchesSortFloat64s is the sort's property test: over
// every class of float a caller could hand CDF — the radix-eligible
// ones and each kind that must fall back — and at lengths on both sides
// of radixMinLen.
func TestSortedCopyMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	subnormal := math.Float64frombits(1)
	classes := map[string]func() float64{
		"miles":      func() float64 { return rng.Float64() * 12_450 },
		"degrees":    func() float64 { return float64(rng.IntN(50)) },
		"all-equal":  func() float64 { return 7.5 },
		"all-zero":   func() float64 { return 0 },
		"subnormals": func() float64 { return subnormal * float64(rng.IntN(1000)) },
		"wide":       func() float64 { return math.Float64frombits(rng.Uint64() >> 1 % math.Float64bits(math.Inf(1))) },
		"+inf":       func() float64 { return []float64{math.Inf(1), 1.5, math.MaxFloat64, 0}[rng.IntN(4)] },
		"negatives":  func() float64 { return rng.NormFloat64() * 1e3 },
		"-inf":       func() float64 { return []float64{math.Inf(-1), math.Inf(1), 0, -1}[rng.IntN(4)] },
		"signed-0":   func() float64 { return []float64{0, math.Copysign(0, -1), 1}[rng.IntN(3)] },
		"nan":        func() float64 { return []float64{math.NaN(), 1, 2, math.Inf(1)}[rng.IntN(4)] },
		"any-bits":   func() float64 { return math.Float64frombits(rng.Uint64()) },
	}
	for name, draw := range classes {
		for _, n := range []int{0, 1, 17, radixMinLen - 1, radixMinLen, 100_000} {
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = draw()
			}
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) { checkSortedCopy(t, samples) })
		}
	}
}

// FuzzSortedCopy feeds sortedCopy arbitrary bit patterns, eight bytes a
// float, repeated past radixMinLen so both sorts meet every input.
func FuzzSortedCopy(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var data []byte
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		return data
	}
	f.Add([]byte{})
	f.Add(seed(3, 1, 2, 1, 0))
	f.Add(seed(1, math.Copysign(0, -1), 0))
	f.Add(seed(math.Inf(1), 1, math.NaN()))
	f.Add(seed(math.Float64frombits(1), math.MaxFloat64, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var samples []float64
		for ; len(data) >= 8; data = data[8:] {
			samples = append(samples, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		checkSortedCopy(t, samples)
		if len(samples) > 0 {
			long := make([]float64, 0, radixMinLen+len(samples))
			for len(long) < radixMinLen {
				long = append(long, samples...)
			}
			checkSortedCopy(t, long)
		}
	})
}
