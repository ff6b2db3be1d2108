package stats

import "math"

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
func Quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sorted := sortedCopy(samples)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
