package gplusd

import (
	"hash/maphash"
	"sync"
	"time"

	"gplus/internal/obs"
)

const (
	// rateShards stripes the bucket table so concurrent crawler
	// identities contend on different locks; 64 comfortably covers the
	// paper's 11 machines with room for larger fleets.
	rateShards = 64
	// bucketTTL evicts buckets whose client has gone quiet, so a churn of
	// ephemeral RemoteAddrs cannot grow the table without bound.
	bucketTTL = 5 * time.Minute
)

// bucket is a token bucket replenished on demand.
type bucket struct {
	tokens float64
	last   time.Time
}

// limiterShard is one stripe of the bucket table with its own lock. The
// trailing pad keeps busy shards from sharing a cache line.
type limiterShard struct {
	mu        sync.Mutex
	buckets   map[string]*bucket
	nextSweep time.Time
	_         [24]byte
}

// limiter is a striped per-client-key token-bucket rate limiter. Keys
// hash to a shard; each shard has its own mutex, so distinct crawler
// identities never serialize on a global lock. Buckets are created
// lazily and evicted once idle for ttl, observable through the
// gplusd_rate_limiter_buckets gauge.
type limiter struct {
	rate   float64
	burst  float64
	ttl    time.Duration
	seed   maphash.Seed
	shards []limiterShard

	live      *obs.Gauge   // live buckets across all shards
	evictions *obs.Counter // buckets removed by idle sweeps

	now func() time.Time // injectable clock for eviction tests
}

// newLimiter builds the limiter striped over shards locks (rounded up
// to a power of two) with idle buckets evicted after ttl, or returns nil
// (allow everything) when rate limiting is disabled.
func newLimiter(rate, burst float64, shards int, ttl time.Duration, live *obs.Gauge, evictions *obs.Counter) *limiter {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = rate
	}
	// Power-of-two shard count makes the shard pick a mask, not a mod.
	n := 1
	for n < shards {
		n <<= 1
	}
	// An evicted key returns with a full burst, so evicting below the
	// full-refill horizon would hand a churning client extra tokens;
	// clamp the TTL to at least the time an empty bucket takes to refill.
	if refill := time.Duration(burst / rate * float64(time.Second)); ttl < refill {
		ttl = refill
	}
	l := &limiter{
		rate:      rate,
		burst:     burst,
		ttl:       ttl,
		seed:      maphash.MakeSeed(),
		shards:    make([]limiterShard, n),
		live:      live,
		evictions: evictions,
		now:       time.Now,
	}
	for i := range l.shards {
		l.shards[i].buckets = make(map[string]*bucket)
	}
	return l
}

// allow spends one token from key's bucket, reporting whether the
// request may proceed. A nil limiter allows everything.
func (l *limiter) allow(key string) bool {
	if l == nil {
		return true
	}
	now := l.now()
	sh := &l.shards[maphash.String(l.seed, key)&uint64(len(l.shards)-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !now.Before(sh.nextSweep) {
		l.sweepLocked(sh, now)
	}
	b, ok := sh.buckets[key]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		sh.buckets[key] = b
		l.live.Add(1)
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweepLocked evicts buckets idle past the TTL. The caller holds sh.mu;
// each shard sweeps at most once per TTL, so the amortized cost per
// request stays O(1).
func (l *limiter) sweepLocked(sh *limiterShard, now time.Time) {
	evicted := 0
	for key, b := range sh.buckets {
		if now.Sub(b.last) > l.ttl {
			delete(sh.buckets, key)
			evicted++
		}
	}
	if evicted > 0 {
		l.live.Add(int64(-evicted))
		l.evictions.Add(int64(evicted))
	}
	sh.nextSweep = now.Add(l.ttl)
}
