// Package stats provides the statistical machinery of the study:
// empirical CDF/CCDF curves, log-log power-law fitting, summary
// statistics, Jaccard similarity, and sampling helpers.
package stats

import (
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
	return ccdfOwned(sortedCopy(samples))
}

// CCDFInts is CCDF for integer-valued samples such as node degrees. It
// converts once and runs through the same sort+scan path as CCDF.
func CCDFInts(samples []int) []Point {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s)
	}
	return ccdfOwned(vals)
}

// ccdfOwned is the one shared CCDF path: it sorts vals in place (the
// caller must own the slice) and scans out one point per distinct value.
func ccdfOwned(vals []float64) []Point {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return nil
	}
	var pts []Point
	for i := 0; i < n; {
		j := i
		for j < n && vals[j] == vals[i] {
			j++
		}
		// P(X >= vals[i]) = (n - i) / n.
		pts = append(pts, Point{X: vals[i], Y: float64(n-i) / float64(n)})
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
	sorted := sortedCopy(samples)
	n := len(sorted)
	if n == 0 {
		return nil
	}
	var pts []Point
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		pts = append(pts, Point{X: sorted[i], Y: float64(j) / float64(n)})
		i = j
	}
	return pts
}

// CDFAt evaluates P(X <= x) directly from samples.
func CDFAt(samples []float64, x float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	count := 0
	for _, s := range samples {
		if s <= x {
			count++
		}
	}
	return float64(count) / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	out := make([]float64, len(samples))
	copy(out, samples)
	sort.Float64s(out)
	return out
}
