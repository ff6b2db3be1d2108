// Package stats provides the statistical machinery of the study:
// empirical CDF/CCDF curves, log-log power-law fitting, summary
// statistics, Jaccard similarity, and sampling helpers.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Point is one (x, y) pair of an empirical curve.
type Point struct {
	X float64
	Y float64
}

// CCDF returns the complementary cumulative distribution function of the
// samples: for each distinct value x, the fraction of samples greater
// than or equal to x is plotted at x, i.e. P(X >= x). The input slice is
// not modified. Points come out sorted by X ascending.
func CCDF(samples []float64) []Point {
	// P(X >= the run's value) = (n - i) / n.
	return curve(sortedCopy(samples), func(i, _, n int) float64 { return float64(n-i) / float64(n) })
}

// CCDFInts is CCDF for integer-valued samples such as node degrees. It
// converts once and runs through the same sort+scan path as CCDF.
func CCDFInts(samples []int) []Point {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s)
	}
	return CCDF(vals)
}

// curve is the one scan under CDF and CCDF: a point per distinct value
// of sorted, its Y computed by y from the value's run sorted[i:j] and
// the sample count. The points are sized by counting the runs first.
func curve(sorted []float64, y func(i, j, n int) float64) []Point {
	n := len(sorted)
	if n == 0 {
		return nil
	}
	distinct := 1
	for i := 1; i < n; i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	pts := make([]Point, 0, distinct)
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		pts = append(pts, Point{X: sorted[i], Y: y(i, j, n)})
		i = j
	}
	return pts
}

// CCDFAt reads P(X >= x) off the points CCDF returned.
func CCDFAt(pts []Point, x float64) float64 {
	for _, p := range pts {
		if p.X >= x {
			return p.Y
		}
	}
	return 0
}

// CDF returns the empirical cumulative distribution function: for each
// distinct value x, P(X <= x). Points come out sorted by X ascending.
func CDF(samples []float64) []Point {
	return curve(sortedCopy(samples), func(_, j, n int) float64 { return float64(j) / float64(n) })
}

// CDFAt reads P(X <= x) off the points CDF returned: the Y of the last
// point at or below x, which is the share of samples a scan counts.
func CDFAt(pts []Point, x float64) float64 {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X > x })
	if i == 0 {
		return 0
	}
	return pts[i-1].Y
}

// CDFQuantile reads Quantile(samples, q) off pts = CDF(samples), where
// n = len(samples): the same closest ranks, interpolated the same way,
// so the result is Quantile's to the bit without a copy or a selection.
// A point's Y is j/n for the j samples at or below its X, so rounding
// Y·n recovers j exactly.
func CDFQuantile(pts []Point, n int, q float64) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	switch {
	case q <= 0:
		return pts[0].X
	case q >= 1:
		return pts[len(pts)-1].X
	}
	// atRank is the sample of rank r in sorted order.
	atRank := func(r int) float64 {
		return pts[sort.Search(len(pts), func(i int) bool {
			return int(math.Round(pts[i].Y*float64(n))) > r
		})].X
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return atRank(hi)
	}
	frac := pos - float64(lo)
	return atRank(lo)*(1-frac) + atRank(hi)*frac
}

// DKWSize is the number of i.i.d. draws whose empirical CDF lies within
// eps of the true CDF at every x, with probability at least 1 − alpha:
// the Dvoretzky–Kiefer–Wolfowitz inequality with Massart's constant,
// P(sup|Fₙ − F| > eps) ≤ 2·exp(−2n·eps²), solved for n.
func DKWSize(eps, alpha float64) int {
	return int(math.Ceil(math.Log(2/alpha) / (2 * eps * eps)))
}

// DKWEpsilon is the error DKWSize inverts: the eps that n i.i.d. draws
// guarantee at confidence 1 − alpha, at most 1 (no two CDFs are further
// apart), so an empty sample guarantees nothing.
func DKWEpsilon(n int, alpha float64) float64 {
	return min(1, math.Sqrt(math.Log(2/alpha)/(2*float64(n))))
}

// radixMinLen is the sample count from which sortedCopy's radix passes
// beat a comparison sort: below it the per-pass digit tables cost more
// than they save.
const radixMinLen = 2048

// sortedCopy returns the samples in sort.Float64s' order without
// touching the input; it is the single sort under CDF and CCDF. Floats
// that are all +0 or above and not NaN order as their bit patterns do,
// so a long run of them goes through RadixSort; anything else keeps
// the comparison sort, which alone knows where NaNs and -0 belong.
func sortedCopy(samples []float64) []float64 {
	out := make([]float64, len(samples))
	if len(samples) >= radixMinLen {
		keys := make([]uint64, 2*len(samples))
		var hi uint64
		for i, x := range samples {
			keys[i] = math.Float64bits(x)
			hi = max(hi, keys[i])
		}
		// A set sign bit (negatives, -0) and a NaN both lie above +Inf's
		// pattern; the largest key also bounds the digits in use.
		if hi <= math.Float64bits(math.Inf(1)) {
			sorted, _ := RadixSort(keys[:len(samples)], keys[len(samples):], 0, RadixPasses(bits.Len64(hi)))
			for i, k := range sorted {
				out[i] = math.Float64frombits(k)
			}
			return out
		}
	}
	copy(out, samples)
	sort.Float64s(out)
	return out
}
