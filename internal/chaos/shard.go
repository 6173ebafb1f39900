package chaos

import (
	"fmt"
	"os"
	"time"

	"dangsan/internal/pointerlog"
	"dangsan/internal/service"
)

// ShardConfig shapes the sharded-service chaos cells: a supervised
// service (audit armed, cold tier at the minimum spill threshold) under continuous client load while a deterministic disruption
// script kills, hangs, and slows shards. The invariants extend the
// in-process fail-open contract across the shard boundary:
//
//   - no false UAF verdicts: a live key never faults, disrupted or not;
//   - no hangs: the watchdog bounds the whole cell; every request is
//     bounded by deadline × retry wall-cap;
//   - typed errors only: anything else a client observes is a violation;
//   - audit identity holds across every worker failover: the rebuilt
//     worker's LogBytes == live + released + spilled.
type ShardConfig struct {
	// Shards is the service's worker count (0: 4).
	Shards int
	// Clients is the concurrent load-generator population (0: 4).
	Clients int
	// HeapBytes sizes each worker's heap (0: 32 MiB).
	HeapBytes uint64
	// Timeout is the per-cell watchdog (0: 120s).
	Timeout time.Duration
	// Transport selects where workers live ("" / "chan": in-process
	// goroutines; "unix": spawned worker processes over the wire
	// codec). Wire cells extend the disruption script with sigkill (real
	// SIGKILL of the worker process) and the network stages — partition,
	// trickle, garbage — that break the wire rather than the worker.
	Transport string
}

func (c ShardConfig) normalized() ShardConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 32 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Transport == "" {
		c.Transport = service.TransportChan
	}
	return c
}

// wire reports whether the cell's workers are separate processes.
func (c ShardConfig) wire() bool { return c.Transport != service.TransportChan }

// ShardResult is one sharded-service chaos cell's outcome.
type ShardResult struct {
	Rate    float64 `json:"rate"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	// Kills/Hangs/Slows count the injected disruptions per kind.
	Kills int `json:"kills"`
	Hangs int `json:"hangs"`
	Slows int `json:"slows"`
	// Wire-cell disruptions: SigKills are real SIGKILLs of worker
	// processes; Partitions/Trickles/Garbage are network faults armed on
	// the coordinator's connections (dropped mid-request, byte-trickled
	// writes, non-frame bytes ahead of a request).
	SigKills   int `json:"sigkills,omitempty"`
	Partitions int `json:"partitions,omitempty"`
	Trickles   int `json:"trickles,omitempty"`
	Garbage    int `json:"garbage,omitempty"`
	// Failovers is the completed worker rebuild count; Replayed the
	// journal objects re-established across them.
	Failovers uint64 `json:"failovers"`
	Replayed  uint64 `json:"replayed"`
	// Issued/Degraded/Detected/Missed summarize the client population's
	// view. Degraded and Missed are expected under disruption (fail-open
	// verdicts, probes the freed window or a replay lost); FalseUAF is
	// folded into Violations.
	Issued   uint64 `json:"issued"`
	Degraded uint64 `json:"degraded"`
	Detected uint64 `json:"detected"`
	Missed   uint64 `json:"missed"`
	// Violations must be empty for the cell to pass.
	Violations []string `json:"violations,omitempty"`
}

// shardRNG is a tiny deterministic splitmix64 stream for the disruption
// script's shard choices.
type shardRNG struct{ state uint64 }

func (r *shardRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RunShard executes one sharded-service chaos cell under the watchdog.
// rate scales the disruption count (1 + rate×10 per kind); seed drives
// the load streams and the script's shard choices. Like the other chaos
// stages, a watchdog expiry abandons the cell's goroutine — the cell has
// already failed.
func RunShard(cfg ShardConfig, rate float64, seed int64) ShardResult {
	cfg = cfg.normalized()
	resCh := make(chan ShardResult, 1)
	go func() { resCh <- runShardCell(cfg, rate, seed) }()
	select {
	case r := <-resCh:
		return r
	case <-time.After(cfg.Timeout):
		return ShardResult{Rate: rate, Seed: seed, Violations: []string{
			fmt.Sprintf("shard cell exceeded %v watchdog (deadlock?)", cfg.Timeout)}}
	}
}

func runShardCell(cfg ShardConfig, rate float64, seed int64) ShardResult {
	r := ShardResult{Rate: rate, Seed: seed}
	start := time.Now()
	dir, err := os.MkdirTemp("", "dangsan-shard-chaos")
	if err != nil {
		r.Violations = append(r.Violations, fmt.Sprintf("work dir: %v", err))
		return r
	}
	defer os.RemoveAll(dir)
	scfg := service.Config{
		Shards:            cfg.Shards,
		HeapBytes:         cfg.HeapBytes,
		Audit:             true,
		ColdSpillBytes:    pointerlog.MinColdSpillBytes,
		Seed:              uint64(seed),
		Transport:         cfg.Transport,
		WorkDir:           dir,
		RequestTimeout:    25 * time.Millisecond,
		Retry:             service.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, MaxElapsed: 100 * time.Millisecond},
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Millisecond,
		HeartbeatMisses:   2,
		BreakerThreshold:  3,
		BreakerCooldown:   10 * time.Millisecond,
		SlowDelay:         60 * time.Millisecond,
		FreedWindow:       256,
	}
	if cfg.wire() {
		// Process workers pay exec/scheduling noise a goroutine never sees;
		// padded timings keep the disruptions — not OS jitter — the thing
		// the cell measures.
		scfg.RequestTimeout = 100 * time.Millisecond
		scfg.Retry = service.RetryPolicy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond, MaxElapsed: 500 * time.Millisecond}
		scfg.HeartbeatInterval = 10 * time.Millisecond
		scfg.HeartbeatTimeout = 50 * time.Millisecond
		scfg.SlowDelay = 150 * time.Millisecond
	}
	svc, err := service.New(scfg)
	if err != nil {
		r.Violations = append(r.Violations, fmt.Sprintf("service start: %v", err))
		return r
	}
	defer svc.Close()

	// Continuous client load for the whole disruption script.
	stop := make(chan struct{})
	loadCh := make(chan service.LoadResult, 1)
	go func() {
		loadCh <- service.RunLoad(svc, service.LoadConfig{
			Clients:     cfg.Clients,
			Seed:        uint64(seed)*2654435761 + 1,
			HeavyFrac:   0.03,
			HeavyStores: 200,
			Stop:        stop,
		})
	}()

	// Deterministic disruption script: every kind runs 1 + rate×10 times
	// (at least one kill per cell, so failover + audit-across-restart is
	// always exercised), each against a seeded shard choice, each waiting
	// for the supervisor to complete the failover before the next hit.
	rng := shardRNG{state: uint64(seed) ^ 0xc4a5}
	reps := 1 + int(rate*10)
	// Wire cells pay process spawn + per-op replay round trips per
	// failover (slower still under the race detector), so their recovery
	// waits get a bigger budget than the in-process cells.
	waitBudget := 10 * time.Second
	if cfg.wire() {
		waitBudget = 30 * time.Second
	}
	kinds := []string{"kill", "hang", "slow"}
	if cfg.wire() {
		// Process cells add the stages a goroutine can't model: a real
		// SIGKILL (failover must rebuild from the dead process's spill
		// file), and the network faults — the worker is healthy, the wire
		// is not, so no failover is owed; the shard just has to come back
		// clean once the one-shot faults burn off.
		kinds = append(kinds, "sigkill", "partition", "trickle", "garbage")
	}
	for _, kind := range kinds {
		netFault := kind == "partition" || kind == "trickle" || kind == "garbage"
		for i := 0; i < reps; i++ {
			shard := int(rng.next() % uint64(cfg.Shards))
			before := svc.Counters().Failovers
			if derr := svc.Disrupt(shard, kind); derr != nil {
				r.Violations = append(r.Violations, fmt.Sprintf("disrupt %s shard %d: %v", kind, shard, derr))
				continue
			}
			switch kind {
			case "kill":
				r.Kills++
			case "hang":
				r.Hangs++
			case "slow":
				r.Slows++
			case "sigkill":
				r.SigKills++
			case "partition":
				r.Partitions++
			case "trickle":
				r.Trickles++
			case "garbage":
				r.Garbage++
			}
			if netFault {
				// Recovery here means the shard answers a clean stats
				// exchange again — poisoned connections redialed, any
				// heartbeat-triggered rebuild finished.
				if !waitCondition(waitBudget, func() bool {
					_, _, _, serr := svc.DetectorStats(shard)
					return serr == nil
				}) {
					r.Violations = append(r.Violations,
						fmt.Sprintf("%s shard %d (rep %d): shard never recovered from network fault", kind, shard, i))
				}
				continue
			}
			if !waitCondition(waitBudget, func() bool { return svc.Counters().Failovers > before }) {
				r.Violations = append(r.Violations,
					fmt.Sprintf("%s shard %d (rep %d): failover never completed", kind, shard, i))
			}
		}
	}

	close(stop)
	load := <-loadCh
	r.Issued, r.Degraded, r.Detected, r.Missed = load.Issued, load.Degraded, load.Detected, load.MissedUAF
	r.Violations = append(r.Violations, load.Violations()...)

	// End-of-cell cross-check: require the audit identity on every
	// (rebuilt) worker and fold in any violations the service recorded
	// during failovers. A trailing failover (a net fault's heartbeat misses
	// can trigger a rebuild right as the script ends) surfaces as transient
	// typed errors here, so the check retries until the service settles;
	// only never settling is a violation.
	for i := 0; i < svc.Shards(); i++ {
		var audit []string
		var serr error
		ok := waitCondition(waitBudget, func() bool {
			_, _, audit, serr = svc.DetectorStats(i)
			return serr == nil
		})
		if !ok {
			r.Violations = append(r.Violations, fmt.Sprintf("shard %d stats: %v", i, serr))
			continue
		}
		for _, v := range audit {
			r.Violations = append(r.Violations, fmt.Sprintf("shard %d audit: %s", i, v))
		}
	}
	r.Violations = append(r.Violations, svc.Violations()...)
	c := svc.Counters()
	r.Failovers, r.Replayed = c.Failovers, c.ReplayedObjects
	r.Seconds = time.Since(start).Seconds()
	return r
}

// waitCondition polls cond every millisecond up to d.
func waitCondition(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// SweepShards runs the rate × seed grid of sharded-service cells.
func SweepShards(cfg ShardConfig, rates []float64, seeds []int64) []ShardResult {
	var out []ShardResult
	for _, rate := range rates {
		for _, seed := range seeds {
			out = append(out, RunShard(cfg, rate, seed))
		}
	}
	return out
}

// FailedShards summarizes the violating cells (empty: the sweep passed).
func FailedShards(results []ShardResult) []string {
	var out []string
	for _, r := range results {
		for _, v := range r.Violations {
			out = append(out, fmt.Sprintf("rate=%g seed=%d: %s", r.Rate, r.Seed, v))
		}
	}
	return out
}
