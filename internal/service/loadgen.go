package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// LoadConfig shapes the synthetic client population driving a Service:
// connection churn (sessions drop their state and reconnect), hot keys (a
// small reused subset absorbs a fraction of traffic), and skewed tenants
// (a power-law over the tenant space concentrates load on few shards).
type LoadConfig struct {
	// Clients is the concurrent client count (0: 4).
	Clients int
	// Requests is the per-client operation count when Stop is nil (0: 1000).
	Requests int
	// Seed drives every client's deterministic op stream.
	Seed uint64
	// HeavyFrac is the fraction of keys allocated with HeavyStores
	// scattered pointer stores — enough to push their location sets into
	// hash mode and across the cold spill threshold (0: 0.05).
	HeavyFrac   float64
	HeavyStores int // 0: 600
	// Stop, when non-nil, overrides Requests: clients run until it closes.
	Stop <-chan struct{}
}

// The fixed shape of every client's stream.
const (
	// loadTenants is the tenant-id space; tenant choice is power-law
	// skewed toward low ids.
	loadTenants = 8
	// loadHotFrac is the probability an op targets the client's hot-key
	// set (loadHotKeys keys) instead of a fresh key.
	loadHotFrac = 0.3
	loadHotKeys = 8
	// loadChurnEvery drops the client's session (all key tracking
	// forgotten, keys leak server-side like an abandoned connection)
	// every that many ops.
	loadChurnEvery = 400
	// loadLightStores is the pointer-store count of a key that is not
	// heavy; object sizes are uniform in [loadSizeMin, loadSizeMax].
	loadLightStores = 6
	loadSizeMin     = 64
	loadSizeMax     = 4096
)

func (c LoadConfig) normalized() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.HeavyFrac == 0 {
		c.HeavyFrac = 0.05
	}
	if c.HeavyStores <= 0 {
		c.HeavyStores = 600
	}
	return c
}

// LoadResult aggregates what the client population observed. FalseUAF and
// Errors are the invariant-critical fields: both must be zero in every
// run, disrupted or not. MissedUAF and UnknownLive are coverage-loss
// indicators — legitimate under disruption (freed window aged out,
// journal replay raced a lost reply) and asserted
// zero only by clean-run tests.
type LoadResult struct {
	Issued    uint64 // operations attempted
	Confirmed uint64 // operations the shard answered
	Degraded  uint64 // fail-open verdicts (breaker open / retries exhausted)
	Detected  uint64 // freed-key probes the detector caught (UAF verdicts)
	MissedUAF uint64 // freed-key probes that did not fault
	FalseUAF  uint64 // live-key checks that faulted — NEVER acceptable
	Unknown   uint64 // live-key checks the shard had no record for
	Errors    []string
	Elapsed   time.Duration
}

// Violations returns the load-side invariant failures (false UAF verdicts
// and unexpected errors), empty when the run was clean.
func (r *LoadResult) Violations() []string {
	var out []string
	if r.FalseUAF > 0 {
		out = append(out, fmt.Sprintf("load: %d false UAF verdicts on live keys", r.FalseUAF))
	}
	out = append(out, r.Errors...)
	return out
}

// clientKey is a key the client believes it owns, with its lifecycle side.
type clientKey struct {
	tenant string
	key    uint64
}

// RunLoad drives the service with cfg.Clients concurrent clients and
// merges their observations.
func RunLoad(s *Service, cfg LoadConfig) LoadResult {
	cfg = cfg.normalized()
	results := make([]LoadResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(s, cfg, c)
		}(c)
	}
	wg.Wait()
	var out LoadResult
	for i := range results {
		r := &results[i]
		out.Issued += r.Issued
		out.Confirmed += r.Confirmed
		out.Degraded += r.Degraded
		out.Detected += r.Detected
		out.MissedUAF += r.MissedUAF
		out.FalseUAF += r.FalseUAF
		out.Unknown += r.Unknown
		if len(out.Errors) < 32 {
			out.Errors = append(out.Errors, r.Errors...)
		}
	}
	if len(out.Errors) > 32 {
		out.Errors = out.Errors[:32]
	}
	out.Elapsed = time.Since(start)
	return out
}

// runClient is one synthetic client: a session-scoped key space, an op mix
// over alloc/check/free/UAF-probe, hot-key reuse, skewed tenant choice,
// and periodic connection churn.
func runClient(s *Service, cfg LoadConfig, id int) LoadResult {
	var res LoadResult
	var rng jitterRNG
	rng.seed(cfg.Seed*1000003 + uint64(id)*7919 + 1)
	rand01 := func() float64 {
		return float64(rng.next()>>11) / float64(1<<53)
	}
	session := 0
	nextKey := uint64(0)
	var live []clientKey
	var freed []clientKey
	tenantFor := func() string {
		// Power-law skew: squaring the uniform draw concentrates mass on
		// low tenant ids, so a few tenants (and thus shards) run hot.
		t := int(float64(loadTenants) * rand01() * rand01())
		if t >= loadTenants {
			t = loadTenants - 1
		}
		return fmt.Sprintf("tenant-%d", t)
	}
	newKey := func() clientKey {
		nextKey++
		// Client and session namespaces keep key spaces disjoint across
		// clients (shared keys would make one client's free look like
		// another's lost object).
		return clientKey{tenant: tenantFor(), key: uint64(id)<<40 | uint64(session)<<24 | nextKey}
	}
	churn := func() {
		// Connection drop: forget everything without freeing — the
		// server-side records leak exactly like an abandoned connection's.
		session++
		live = live[:0]
		freed = freed[:0]
	}
	record := func(err error) {
		if err == nil {
			return
		}
		if len(res.Errors) < 8 {
			res.Errors = append(res.Errors, fmt.Sprintf("client %d: unexpected error: %v", id, err))
		}
	}
	stopRequested := func() bool {
		if cfg.Stop == nil {
			return false
		}
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}

	for op := 0; ; op++ {
		if cfg.Stop == nil {
			if op >= cfg.Requests {
				break
			}
		} else if stopRequested() {
			break
		}
		if op > 0 && op%loadChurnEvery == 0 {
			churn()
		}
		res.Issued++
		r := rand01()
		switch {
		case r < 0.40 || len(live) == 0:
			// Alloc — also hot-key reuse: with HotFrac, re-touch an
			// existing live key (idempotent alloc) instead of minting one.
			var k clientKey
			if len(live) > 0 && rand01() < loadHotFrac {
				k = live[int(rng.next()%uint64(min(loadHotKeys, len(live))))]
			} else {
				k = newKey()
			}
			size := loadSizeMin + rng.next()%(loadSizeMax-loadSizeMin+1)
			stores := loadLightStores
			if rand01() < cfg.HeavyFrac {
				stores = cfg.HeavyStores
			}
			v, err := s.Alloc(k.tenant, k.key, size, stores)
			switch {
			case err != nil:
				record(classifyClientErr(err, &res))
			case v.Degraded:
				res.Degraded++
			default:
				res.Confirmed++
				if !containsKey(live, k) {
					live = append(live, k)
				}
			}
		case r < 0.60:
			// Check a live key: must not fault.
			k := pickKey(live, &rng)
			v, err := s.Check(k.tenant, k.key)
			switch {
			case err != nil:
				var fault *vmem.Fault
				if errors.As(err, &fault) {
					res.FalseUAF++
				} else {
					record(classifyClientErr(err, &res))
				}
			case v.Degraded:
				res.Degraded++
			case !v.Known:
				res.Confirmed++
				res.Unknown++
			default:
				res.Confirmed++
			}
		case r < 0.80:
			// Free a live key.
			k := pickKey(live, &rng)
			v, err := s.Free(k.tenant, k.key)
			switch {
			case err != nil:
				record(classifyClientErr(err, &res))
			case v.Degraded:
				res.Degraded++
				// The free may or may not have landed: stop tracking the
				// key entirely (probing it could mis-classify either way).
				removeKey(&live, k)
			default:
				res.Confirmed++
				removeKey(&live, k)
				freed = append(freed, k)
				if len(freed) > 64 {
					freed = freed[1:]
				}
			}
		default:
			// UAF probe: check a freed key and see whether the detector
			// catches the dangling dereference.
			if len(freed) == 0 {
				res.Issued-- // nothing to probe; the op was not dispatched
				continue
			}
			k := freed[int(rng.next()%uint64(len(freed)))]
			v, err := s.Check(k.tenant, k.key)
			switch {
			case err != nil:
				record(classifyClientErr(err, &res))
			case v.Degraded:
				res.Degraded++
			case v.Known && v.Freed && v.UAF:
				res.Confirmed++
				res.Detected++
			default:
				// Aged out of the freed window, or lost to a failover
				// outside the journal's window: coverage loss, not a
				// violation.
				res.Confirmed++
				res.MissedUAF++
			}
		}
	}
	return res
}

// classifyClientErr sorts an op error into the acceptable-typed bucket
// (nil return: memory pressure and post-close are expected outcomes) or
// returns it for the unexpected-error list.
func classifyClientErr(err error, res *LoadResult) error {
	var oom *tcmalloc.OutOfMemoryError
	var closed *ClosedError
	if errors.As(err, &oom) || errors.As(err, &closed) {
		res.Confirmed++
		return nil
	}
	return err
}

func pickKey(keys []clientKey, rng *jitterRNG) clientKey {
	if len(keys) == 0 {
		return clientKey{tenant: "tenant-0", key: 0}
	}
	// Hot-key skew: most picks come from the head of the live list.
	if float64(rng.next()>>11)/float64(1<<53) < loadHotFrac {
		return keys[int(rng.next()%uint64(min(loadHotKeys, len(keys))))]
	}
	return keys[int(rng.next()%uint64(len(keys)))]
}

func containsKey(keys []clientKey, k clientKey) bool {
	for _, e := range keys {
		if e == k {
			return true
		}
	}
	return false
}

func removeKey(keys *[]clientKey, k clientKey) {
	for i, e := range *keys {
		if e == k {
			*keys = append((*keys)[:i], (*keys)[i+1:]...)
			return
		}
	}
}
