package gplusd

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// faultSource draws fault-injection decisions without a shared lock:
// each goroutine borrows a PCG stream from a pool, so concurrent
// /people/* requests never serialize on one RNG. Every stream is seeded
// from its rule's share of FaultSpec.Seed, keeping injection
// reproducible per stream (and exactly reproducible for the degenerate
// rates 0 and 1 regardless of scheduling).
type faultSource struct {
	rate float64
	seed uint64
	seq  atomic.Uint64
	pool sync.Pool
}

// newFaultSource returns nil (never fault) when rate is not positive.
func newFaultSource(rate float64, seed uint64) *faultSource {
	if rate <= 0 {
		return nil
	}
	f := &faultSource{rate: rate, seed: seed}
	f.pool.New = func() any {
		// Distinct odd multiplier per stream keeps the PCG states of
		// pooled RNGs decorrelated while still derived from the seed.
		n := f.seq.Add(1)
		return rand.New(rand.NewPCG(f.seed, f.seed^0xdead10cc^(n*0x9e3779b97f4a7c15)))
	}
	return f
}

// hit reports whether this request should be faulted.
func (f *faultSource) hit() bool {
	if f == nil {
		return false
	}
	return f.draw() < f.rate
}

// draw returns one uniform [0,1) sample from the pooled streams. A nil
// source draws 1, which is below no rate — the never-fault value.
func (f *faultSource) draw() float64 {
	if f == nil {
		return 1
	}
	r := f.pool.Get().(*rand.Rand)
	v := r.Float64()
	f.pool.Put(r)
	return v
}
