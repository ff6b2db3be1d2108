package crawler

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// The scheduler benchmarks drive the frontier the way fetchCircle does:
// each worker claims an id and offers one discovered page in return. One
// op is one claim plus one 100-id page offered, so ns/op is the lock
// cost the crawl pays per profile's worth of frontier traffic. The
// headline comparison is OfferNext (offerBatch: one lock round-trip per
// page) against OfferSingle (the old shape: one round-trip per id).

const benchPageSize = 100

func benchSchedulerOffer(b *testing.B, workers int, single bool) {
	s := newScheduler(0)
	s.tel = newTelemetry(nil, 0)
	per := b.N/workers + 1
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			page := make([]string, benchPageSize)
			prefix := "u" + strconv.Itoa(w) + "-"
			for i := 0; i < per; i++ {
				base := prefix + strconv.Itoa(i) + "-"
				for j := range page {
					page[j] = base + strconv.Itoa(j)
				}
				if single {
					for _, id := range page {
						s.offerBatch([]string{id})
					}
				} else {
					s.offerBatch(page)
				}
				if _, ok := s.next(); ok {
					s.finish()
				}
			}
		}(w)
	}
	wg.Wait()
	b.ReportMetric(benchPageSize, "ids/op")
}

func BenchmarkSchedulerOfferNext(b *testing.B) {
	for _, workers := range []int{1, 11, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSchedulerOffer(b, workers, false)
		})
	}
}

func BenchmarkSchedulerOfferSingle(b *testing.B) {
	for _, workers := range []int{1, 11, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSchedulerOffer(b, workers, true)
		})
	}
}
