package stats

import (
	"math/rand/v2"
	"testing"
)

func benchSamples(n int) []float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	out := make([]float64, n)
	for i := range out {
		out[i] = BoundedPareto(rng, 1.3, 1, 1e6)
	}
	return out
}

func BenchmarkCCDF(b *testing.B) {
	samples := benchSamples(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CCDF(samples)
	}
}

func BenchmarkFitPowerLawCCDF(b *testing.B) {
	pts := CCDF(benchSamples(100_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitPowerLawCCDF(pts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitPowerLawMLE(b *testing.B) {
	samples := benchSamples(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FitPowerLawMLE(samples, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedChooser(b *testing.B) {
	weights := benchSamples(100_000)
	ch := NewWeightedChooser(weights)
	rng := rand.New(rand.NewPCG(3, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.Choose(rng)
	}
}
