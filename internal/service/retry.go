package service

import (
	"sync/atomic"
	"time"
)

// RetryPolicy bounds the coordinator's retry loop for transient shard
// errors along BOTH axes: attempt count and total wall-time. The wall-time
// cap matters when individual attempts are slow (a hung worker eats the
// full per-request deadline before failing) — an attempt-count bound alone
// would let one request occupy a caller for attempts × deadline.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// 0 defaults to 4.
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff before the second attempt; it
	// doubles per attempt up to MaxDelay. 0 defaults to 200µs.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. 0 defaults to 5ms.
	MaxDelay time.Duration
	// MaxElapsed caps the wall-time spent retrying: attempts and sleeps
	// from the first failed attempt on (that attempt has its own
	// RequestTimeout); once exceeded the request fails open into a
	// degraded verdict. 0 defaults to 250ms.
	MaxElapsed time.Duration
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Millisecond
	}
	if p.MaxElapsed <= 0 {
		p.MaxElapsed = 250 * time.Millisecond
	}
	return p
}

// delay computes the backoff before attempt+1 (attempt is 0-based):
// BaseDelay << attempt, capped at MaxDelay, with ±50% jitter so retries
// from many callers against the same recovering shard spread out instead
// of stampeding in lockstep.
func (p RetryPolicy) delay(attempt int, r *jitterRNG) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
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
