package service

import (
	"sync/atomic"
	"time"
)

// retryPolicy bounds the coordinator's retry loop for transient shard
// errors along BOTH axes: attempt count and total wall-time. The wall-time
// cap matters when individual attempts are slow (a hung worker eats the
// full per-request deadline before failing) — an attempt-count bound alone
// would let one request occupy a caller for attempts × deadline. Every
// Service runs defaultRetry; in-package tests swap a copy in to tighten or
// widen one bound.
type retryPolicy struct {
	maxAttempts int           // total tries, the first included
	baseDelay   time.Duration // pre-jitter backoff before the second attempt, doubling per attempt
	maxDelay    time.Duration // cap on a single backoff sleep
	maxElapsed  time.Duration // cap on attempts and sleeps from the first failure on
}

// defaultRetry: 4 attempts, a 200µs backoff doubling up to 5ms, and a
// 250ms wall cap.
var defaultRetry = retryPolicy{maxAttempts: 4, baseDelay: 200 * time.Microsecond, maxDelay: 5 * time.Millisecond, maxElapsed: 250 * time.Millisecond}

// delay computes the backoff before attempt+1 (attempt is 0-based):
// baseDelay << attempt, capped at maxDelay, with ±50% jitter so retries
// from many callers against the same recovering shard spread out instead
// of stampeding in lockstep.
func (p retryPolicy) delay(attempt int, r *jitterRNG) time.Duration {
	d := p.baseDelay
	for i := 0; i < attempt && d < p.maxDelay; i++ {
		d *= 2
	}
	if d > p.maxDelay {
		d = p.maxDelay
	}
	// Jitter in [d/2, 3d/2): keep the expectation at d.
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + r.next()%(2*half))
}

// jitterRNG is a lock-free splitmix64 stream shared by every caller —
// statistical spread is all jitter needs, so one atomic add per draw is
// plenty and no seed bookkeeping leaks into the request path.
type jitterRNG struct {
	state atomic.Uint64
}

func (r *jitterRNG) seed(s uint64) { r.state.Store(s) }

func (r *jitterRNG) next() uint64 {
	z := r.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
