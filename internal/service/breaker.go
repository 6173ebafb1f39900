package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the circuit breaker's coarse position.
type BreakerState int32

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected (the caller fails open into
	// degraded mode) until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: exactly one probe request is in flight; its result
	// decides between Closed and another Open period.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-shard circuit breaker. Closed trips to Open after
// Threshold consecutive failures; Open admits nothing until Cooldown has
// elapsed, then moves to HalfOpen and admits exactly one probe; the
// probe's success closes the breaker, its failure re-opens it.
//
// The half-open probe can race a concurrent trip: while the probe is in
// flight, another caller (a heartbeat, a queued request) may record a
// failure or force the breaker open. Probes are therefore issued with a
// generation token, and every trip invalidates outstanding tokens — a
// stale probe's success must NOT close a breaker that tripped after the
// probe was admitted.
//
// healthy mirrors "closed, no failures counted" — every op on a healthy
// shard: Allow and Record(true) answer from it with one atomic load. All
// transitions happen under mu and republish it (unlock), so a fast-path call
// linearizes just before the transition that cleared it.
type Breaker struct {
	healthy   atomic.Bool
	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	threshold int // failures that trip Closed → Open
	cooldown  time.Duration
	openedAt  time.Time
	probeGen  uint64 // current probe generation; trips invalidate it
	probeOut  bool   // a probe with token probeGen is in flight
	trips     uint64
	now       func() time.Time // injectable clock for tests
}

// NewBreaker creates a closed breaker. threshold <= 0 defaults to 5
// consecutive failures; cooldown <= 0 defaults to 50ms.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 50 * time.Millisecond
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
	b.healthy.Store(true)
	return b
}

// unlock publishes healthy and releases mu; every mutator leaves through it.
func (b *Breaker) unlock() {
	b.healthy.Store(b.state == BreakerClosed && b.failures == 0)
	b.mu.Unlock()
}

// Allow reports whether a request may proceed. probe is nonzero when the
// admitted request is the half-open probe; pass it to RecordProbe with the
// outcome. Ordinary admitted requests (probe == 0) report through Record.
func (b *Breaker) Allow() (ok bool, probe uint64) {
	if b.healthy.Load() {
		return true, 0
	}
	b.mu.Lock()
	defer b.unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, 0
		}
		b.state = BreakerHalfOpen
		b.probeGen++
		b.probeOut = true
		return true, b.probeGen
	case BreakerHalfOpen:
		if b.probeOut {
			return false, 0
		}
		b.probeGen++
		b.probeOut = true
		return true, b.probeGen
	}
	return false, 0
}

// Record reports the outcome of an ordinary (non-probe) operation against
// the shard — a routed request or a supervisor heartbeat. While half-open,
// a failure is the "concurrent trip" case: the breaker re-opens and the
// in-flight probe's token is invalidated, so its later success cannot
// close the breaker.
func (b *Breaker) Record(success bool) {
	if success && b.healthy.Load() {
		return
	}
	b.mu.Lock()
	defer b.unlock()
	switch b.state {
	case BreakerClosed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		if !success {
			b.trip()
		}
		// A non-probe success while half-open is not evidence enough to
		// close: only the designated probe closes the breaker.
	case BreakerOpen:
		// Stragglers from before the trip carry no new information.
	}
}

// RecordProbe reports the half-open probe's outcome. A stale token (the
// breaker tripped, was forced open, or was reset after the probe was
// admitted) is ignored: the trip already decided the state.
func (b *Breaker) RecordProbe(token uint64, success bool) {
	b.mu.Lock()
	defer b.unlock()
	if token == 0 || token != b.probeGen || !b.probeOut {
		return
	}
	b.probeOut = false
	if b.state != BreakerHalfOpen {
		return
	}
	if success {
		b.state = BreakerClosed
		b.failures = 0
		return
	}
	b.trip()
}

// ForceOpen trips the breaker unconditionally — the supervisor calls this
// at the start of a failover so no request races the rebuild.
func (b *Breaker) ForceOpen() {
	b.mu.Lock()
	defer b.unlock()
	b.trip()
}

// Reset closes the breaker — the supervisor calls this once a rebuilt
// worker is serving. Outstanding probe tokens are invalidated.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probeGen++
	b.probeOut = false
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns the cumulative Closed/HalfOpen → Open transition count.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// trip moves to Open and invalidates any in-flight probe. Callers hold mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probeGen++
	b.probeOut = false
	b.trips++
}
