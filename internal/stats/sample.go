package stats

import (
	"math"
	"math/rand/v2"
)

// Reservoir maintains a uniform sample of up to k items from a stream of
// unknown length (Algorithm R). It backs the pair-sampling used by the
// path-mile analysis when the candidate set is too large to materialize.
type Reservoir[T any] struct {
	k     int
	seen  int64
	items []T
	rng   *rand.Rand
}

// NewReservoir returns a reservoir holding at most k items. The sample
// grows with the stream, so a short stream never pays for k slots.
func NewReservoir[T any](k int, rng *rand.Rand) *Reservoir[T] {
	return &Reservoir[T]{k: k, rng: rng}
}

// Add offers one item to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.k {
		if len(r.items) == cap(r.items) {
			// Double, but never past the k slots a long stream ends with.
			grown := make([]T, len(r.items), min(r.k, max(64, 2*cap(r.items))))
			copy(grown, r.items)
			r.items = grown
		}
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(r.k) {
		r.items[j] = item
	}
}

// Items returns the current sample. The slice is owned by the reservoir.
func (r *Reservoir[T]) Items() []T { return r.items }

// Seen returns how many items the stream has offered; the sample is the
// whole stream exactly when Seen is at most len(Items()).
func (r *Reservoir[T]) Seen() int64 { return r.seen }

// BoundedPareto draws from a discrete bounded Pareto distribution on
// [xmin, xmax] with tail exponent alpha (the CCDF decays like x^-alpha).
// It is the degree-sequence sampler behind the synthetic generator.
func BoundedPareto(rng *rand.Rand, alpha, xmin, xmax float64) float64 {
	if xmin <= 0 || xmax <= xmin || alpha <= 0 {
		return xmin
	}
	// Inverse-CDF sampling of a bounded Pareto.
	u := rng.Float64()
	la := math.Pow(xmin, alpha)
	ha := math.Pow(xmax, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < xmin {
		x = xmin
	}
	if x > xmax {
		x = xmax
	}
	return x
}

// WeightedChooser samples indices in proportion to fixed non-negative
// weights in O(log n) per draw using an alias-free cumulative table.
type WeightedChooser struct {
	cum []float64
}

// NewWeightedChooser builds a chooser over the weights. Zero-weight
// entries are never chosen. It panics if all weights are zero or any is
// negative.
func NewWeightedChooser(weights []float64) *WeightedChooser {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("stats: negative or NaN weight")
		}
		total += w
		cum[i] = total
	}
	if total == 0 {
		panic("stats: all weights zero")
	}
	return &WeightedChooser{cum: cum}
}

// Choose returns an index with probability proportional to its weight.
func (w *WeightedChooser) Choose(rng *rand.Rand) int {
	target := rng.Float64() * w.cum[len(w.cum)-1]
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
