package chaos

import (
	"fmt"
	"math"
	"time"

	"dangsan/internal/pointerlog"
	"dangsan/internal/service"
)

// ShardConfig shapes the sharded-service chaos cells: a supervised
// service (audit armed, cold tier at the minimum spill threshold, tight
// timings) driven by Drive. The invariants extend the in-process
// fail-open contract across the shard boundary:
//
//   - every answered verdict is explained by service.RunLoad's model: a
//     live key never faults, a freed key is caught unless it aged out of
//     its shard's freed window, and a key misses a mutation only when a
//     failover lost it;
//   - no hangs: the watchdog bounds the whole cell; every request is
//     bounded by its deadline and the retry wall cap;
//   - no errors: any error but ClosedError a client observes is a
//     violation;
//   - audit identity holds across every worker failover: the rebuilt
//     worker's LogBytes == live + released + spilled.
type ShardConfig struct {
	// Shards is the service's worker count (0: 4).
	Shards int
	// Clients is the concurrent load-generator population (0: 4).
	Clients int
	// Transport selects where workers live ("" / "chan": in-process
	// goroutines; "unix": spawned worker processes over the wire
	// codec). Wire cells extend the disruption script with sigkill (real
	// SIGKILL of the worker process) and the network stages — partition,
	// trickle, garbage — that break the wire rather than the worker.
	Transport string
}

// shardRequests is each client's stream length in a chaos cell, at
// least: Drive holds the clients until the script is done.
const shardRequests = 1000

// shardWatchdog bounds a whole cell, wire cells under the race detector
// included.
const shardWatchdog = 180 * time.Second

func (c ShardConfig) normalized() ShardConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Transport == "" {
		c.Transport = service.TransportChan
	}
	return c
}

// serviceConfig is a cell's audited service with the cold tier at its
// minimum threshold and timings tight enough that every disruption turns
// into a failover within milliseconds. Only the timings differ by
// transport.
func (c ShardConfig) serviceConfig(seed int64) service.Config {
	scfg := service.Config{
		Shards:            c.Shards,
		HeapBytes:         32 << 20,
		Audit:             true,
		ColdSpillBytes:    pointerlog.MinColdSpillBytes,
		Seed:              uint64(seed),
		Transport:         c.Transport,
		RequestTimeout:    25 * time.Millisecond,
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Millisecond,
		FreedWindow:       256,
	}
	if c.Transport != service.TransportChan {
		// Process workers pay exec/scheduling noise a goroutine never sees;
		// padded timings keep the disruptions — not OS jitter — the thing
		// the cell measures.
		scfg.RequestTimeout = 100 * time.Millisecond
		scfg.HeartbeatInterval = 10 * time.Millisecond
		scfg.HeartbeatTimeout = 50 * time.Millisecond
	}
	return scfg
}

// Disruption is one entry of the shard script: a kind fired at a shard.
// At is the service's request count when Drive fired it (0 in the
// script).
type Disruption struct {
	Kind  string
	Shard int
	At    uint64
}

// ShardResult is the outcome of one Drive.
type ShardResult struct {
	Rate    float64
	Seed    int64
	Seconds float64
	// Disruptions are the ones fired, in order: the script of (seed, rate,
	// shards, transport) less any Disrupt refused (each a violation).
	Disruptions []Disruption
	// AfterLoad counts the fired disruptions that found the load already
	// over: they hit an idle service, not a client. Drive holds the load
	// until the script is done, so only a closed service makes it nonzero.
	AfterLoad int
	// Load is the client population's view. Degraded, AgedOut, Lost and
	// Pending are expected under disruption; its Failures are in
	// Violations too.
	Load service.LoadResult
	// Failovers is the completed worker rebuild count; Replayed the
	// journal objects re-established across them.
	Failovers uint64
	Replayed  uint64
	// Violations must be empty for the run to pass.
	Violations []string
}

// Count returns how many fired disruptions are of one of kinds.
func (r ShardResult) Count(kinds ...string) int {
	n := 0
	for _, d := range r.Disruptions {
		for _, k := range kinds {
			if d.Kind == k {
				n++
			}
		}
	}
	return n
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

// script is the seeded disruption list: round(10×rate) of every kind the
// transport supports, each on a seeded shard. A rate of 0 disrupts
// nothing.
func script(rate float64, seed int64, shards int, transport string) []Disruption {
	kinds := []string{"kill", "hang", "slow"}
	if transport != service.TransportChan {
		// Process cells add the stages a goroutine can't model: a real
		// SIGKILL (failover rebuilds the shard by replaying its journal
		// into a fresh process), and the network faults — the worker is
		// healthy, the wire is not, so no failover is owed; the shard just
		// has to come back clean once the one-shot faults burn off.
		kinds = append(kinds, "sigkill", "partition", "trickle", "garbage")
	}
	rng := shardRNG{state: uint64(seed) ^ 0xc4a5}
	var out []Disruption
	for _, kind := range kinds {
		for i := 0; i < int(math.Round(rate*10)); i++ {
			out = append(out, Disruption{Kind: kind, Shard: int(rng.next() % uint64(shards))})
		}
	}
	return out
}

// Drive is the one shard-disruption driver: it runs load against the
// running svc, fires script(rate, load.Seed, shards, transport) into it,
// and judges the run. The i-th of n disruptions fires once the service
// has counted i/(n+1) of the load's ops, so answered ops set the pace,
// not wall time. Each waits for its shard to fail over, or to answer
// again after a network fault, before the next, and Drive holds the
// clients (load.Stop) until the last has, so all land on live traffic;
// one that finds the load over anyway (a closed service ends it) counts
// in AfterLoad. After the load, one sweep
// requires every shard to answer a stats exchange — a shard still down is
// a violation — and collects each worker's audit findings (empty with
// audit off) and the service's own violations.
func Drive(svc *service.Service, load service.LoadConfig, rate float64) ShardResult {
	load = load.Normalized()
	stop := make(chan struct{})
	load.Stop = stop
	r := ShardResult{Rate: rate, Seed: load.Seed}
	transport := svc.Transport()
	start := time.Now()
	done := make(chan struct{})
	over := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	go func() {
		defer close(done)
		r.Load = service.RunLoad(svc, load)
	}()
	// Wire cells pay process spawn + per-op replay round trips per
	// failover (slower still under the race detector), so their recovery
	// waits get a bigger budget than the in-process cells.
	waitBudget := 10 * time.Second
	if transport != service.TransportChan {
		waitBudget = 30 * time.Second
	}
	plan := script(rate, load.Seed, svc.Shards(), transport)
	ops := uint64(load.Ops())
	for i, d := range plan {
		at := ops * uint64(i+1) / uint64(len(plan)+1)
	pace:
		for svc.Counters().Requests < at {
			select {
			case <-done:
				break pace
			case <-time.After(time.Millisecond):
			}
		}
		if over() {
			r.AfterLoad++
		}
		d.At = svc.Counters().Requests
		// Per shard: another shard's failover must not end the wait
		// while this one is still rebuilding.
		before := svc.ShardStats()[d.Shard]
		if err := svc.Disrupt(d.Shard, d.Kind); err != nil {
			r.Violations = append(r.Violations, fmt.Sprintf("disrupt %s shard %d: %v", d.Kind, d.Shard, err))
			continue
		}
		r.Disruptions = append(r.Disruptions, d)
		recovered := func() bool {
			st := svc.ShardStats()[d.Shard]
			return st.Failovers > before.Failovers && !st.Rebuilding
		}
		if d.Kind == "partition" || d.Kind == "trickle" || d.Kind == "garbage" {
			// The fault is one-shot on the shard's next exchange, and it is
			// the clients' to take, not the probe's below. Clients are
			// closed-loop, so once Clients+1 more ops have reached the
			// shard, one of them began and finished an exchange after the
			// fault was armed: it is spent. Recovery then means the shard
			// answers a clean stats exchange again — poisoned connections
			// redialed, any heartbeat-triggered rebuild finished.
			spent := before.Requests + uint64(load.Clients) + 1
			recovered = func() bool {
				if svc.ShardStats()[d.Shard].Requests < spent && !over() {
					return false
				}
				_, _, _, err := svc.DetectorStats(d.Shard)
				return err == nil
			}
		}
		if !waitCondition(waitBudget, recovered) {
			r.Violations = append(r.Violations,
				fmt.Sprintf("%s shard %d (disruption %d): shard never recovered", d.Kind, d.Shard, i))
		}
	}
	close(stop)
	<-done
	r.Violations = append(r.Violations, r.Load.Failures...)

	// Settle and audit. A trailing failover (a net fault's heartbeat misses
	// can trigger a rebuild right as the script ends) surfaces as transient
	// typed errors here, so each shard gets the wait budget to answer; only
	// never answering is a violation.
	for i := 0; i < svc.Shards(); i++ {
		var audit []string
		var err error
		if !waitCondition(waitBudget, func() bool {
			_, _, audit, err = svc.DetectorStats(i)
			return err == nil
		}) {
			r.Violations = append(r.Violations, fmt.Sprintf("shard %d stats: %v", i, err))
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

// RunShard executes one sharded-service chaos cell under the watchdog:
// cfg's audited, tight-timing service, its clients each issuing at least
// shardRequests ops, driven by Drive at rate. Like the other chaos stages, a watchdog expiry
// abandons the cell's goroutine — the cell has already failed.
func RunShard(cfg ShardConfig, rate float64, seed int64) ShardResult {
	cfg = cfg.normalized()
	resCh := make(chan ShardResult, 1)
	go func() {
		svc, err := service.New(cfg.serviceConfig(seed))
		if err != nil {
			resCh <- ShardResult{Rate: rate, Seed: seed, Violations: []string{fmt.Sprintf("service start: %v", err)}}
			return
		}
		defer svc.Close()
		resCh <- Drive(svc, service.LoadConfig{Clients: cfg.Clients, Requests: shardRequests, Seed: seed}, rate)
	}()
	select {
	case r := <-resCh:
		return r
	case <-time.After(shardWatchdog):
		return ShardResult{Rate: rate, Seed: seed, Violations: []string{
			fmt.Sprintf("shard cell exceeded %v watchdog (deadlock?)", shardWatchdog)}}
	}
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
