package stats

import (
	"math"
	"slices"
)

// Summary holds the descriptive statistics used across the study's tables.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics of the samples. The standard
// deviation is the population form (divide by N), matching the error bars
// of Figure 9(b).
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(n)
	var ss float64
	for _, v := range samples {
		d := v - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(n))
	s.Median = Quantile(samples, 0.5)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples using
// linear interpolation between closest ranks. The input is not modified.
// The two ranks are found by selection on a copy, not by sorting it; the
// result is the one a full sort would give.
func Quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 || q >= 1 {
		// The first or last element of the sorted order.
		ext := samples[0]
		for _, v := range samples[1:] {
			if (q <= 0 && less(v, ext)) || (q >= 1 && !less(v, ext)) {
				ext = v
			}
		}
		return ext
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	work := slices.Clone(samples)
	selectRank(work, hi)
	if lo == hi {
		return work[hi]
	}
	// Rank hi-1 is the largest of what selection left below rank hi.
	below := work[0]
	for _, v := range work[1:hi] {
		if !less(v, below) {
			below = v
		}
	}
	frac := pos - float64(lo)
	return below*(1-frac) + work[hi]*frac
}

// less is sort.Float64s' order: ascending, NaNs first.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// selectRank partially orders a (Hoare's quickselect, median-of-three
// pivots) so that a[k] holds the element of rank k in less order, with
// nothing greater before it and nothing smaller after it.
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if less(a[hi], a[lo]) {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if less(a[hi], a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for less(a[i], pivot) {
				i++
			}
			for less(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= pivot <= a[i..hi], and anything between is the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Jaccard returns the Jaccard similarity |A ∩ B| / |A ∪ B| of two string
// multiset samples *treated as multisets*, the comparison used in Table 5
// to relate occupation-code lists across countries. Multiset intersection
// takes the per-element minimum multiplicity; union the maximum.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca := make(map[string]int, len(a))
	for _, s := range a {
		ca[s]++
	}
	cb := make(map[string]int, len(b))
	for _, s := range b {
		cb[s]++
	}
	var inter, union int
	for s, na := range ca {
		nb := cb[s]
		if nb < na {
			inter += nb
			union += na
		} else {
			inter += na
			union += nb
		}
	}
	for s, nb := range cb {
		if _, seen := ca[s]; !seen {
			union += nb
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
