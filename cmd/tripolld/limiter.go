package main

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// limiter is a per-client token-bucket rate limiter keyed by the client's
// host (RemoteAddr without the port, so one misbehaving client cannot
// starve the rest by cycling source ports). Buckets refill continuously at
// rate tokens/second up to burst; a request costs one token. Hand-rolled
// because the admission decision must also compute a Retry-After.
type limiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the client table; past it the stalest buckets (the
// ones longest past a full refill, i.e. idle clients) are dropped.
// Dropping a bucket forgets at most `burst` tokens of debt, which only
// ever errs in the client's favor.
const maxBuckets = 4096

func newLimiter(rate, burst float64) *limiter {
	if rate <= 0 {
		return nil // disabled
	}
	if burst < 1 {
		burst = 1
	}
	return &limiter{rate: rate, burst: burst, buckets: make(map[string]*bucket), now: time.Now}
}

// clientKey extracts the bucket key from a request.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// allow spends one token from key's bucket. When the bucket is dry it
// returns false and the seconds until a token will be available — the
// Retry-After value, always ≥ 1.
func (l *limiter) allow(key string) (ok bool, retryAfter int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.evict(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / l.rate
	return false, int(math.Ceil(math.Max(wait, 1)))
}

// evict drops the quarter of buckets that have gone longest without
// activity. Called with l.mu held.
func (l *limiter) evict(now time.Time) {
	cutoff := now.Add(-time.Duration(l.burst / l.rate * float64(time.Second))) // idle past a full refill
	for k, b := range l.buckets {
		if b.last.Before(cutoff) {
			delete(l.buckets, k)
		}
	}
	if len(l.buckets) < maxBuckets {
		return
	}
	// Everyone is active; shed an arbitrary quarter rather than grow
	// without bound (the limiter is a protection, not an accounting
	// ledger).
	drop := maxBuckets / 4
	for k := range l.buckets {
		delete(l.buckets, k)
		if drop--; drop <= 0 {
			return
		}
	}
}
