package gplusd

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// BenchmarkRateLimiterAllow measures the striped limiter under
// concurrent distinct-key clients — the shape of a real crawl, where
// every machine presents its own identity. With per-shard locks the
// ns/op should stay roughly flat as clients grow; the old single-mutex
// table serialized them all.
func BenchmarkRateLimiterAllow(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			l := newLimiter(1e12, 1e12, rateShards, bucketTTL, nil, nil)
			per := b.N/clients + 1
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					key := "machine-" + strconv.Itoa(c)
					for i := 0; i < per; i++ {
						l.allow(key)
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// BenchmarkFaultInjection measures the lock-free fault draw at full
// parallelism; the old implementation took a global mutex per request.
func BenchmarkFaultInjection(b *testing.B) {
	f := newFaultSource(0.01, 42)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f.hit()
		}
	})
}
