// Command dangsan-serve runs the supervised sharded detection service
// under a configurable client load, optionally disrupting shards (kills,
// hangs, slowdowns) while it runs, and reports the supervision outcome:
// per-shard breaker/heartbeat/failover status, the client population's
// verdict mix, and every invariant violation.
//
// Usage:
//
//	dangsan-serve [-shards 4] [-clients 8] [-requests 2000] [-seed 1]
//	              [-transport chan|unix]
//	              [-kill-rate 0] [-hang-rate 0] [-slow-rate 0] [-sigkill-rate 0]
//	              [-audit] [-cold-spill-bytes N] [-metrics out.json]
//
// -transport selects where the workers live: "chan" (the default) keeps
// them as in-process goroutines; "unix" spawns one OS process per shard,
// reached over the wire codec on a unix socket. Wire workers are spawned
// by re-execing this binary and are supervised exactly like in-process
// ones: heartbeats, breakers, and failover with journal replay work
// unchanged across the process boundary.
//
// The disruption rates are per-tick probabilities (one tick every 20ms of
// the run): -kill-rate 0.5 kills a random shard's worker roughly every
// other tick; -sigkill-rate delivers real SIGKILLs to wire worker
// processes (the immediate in-process stop for chan). The supervisor
// restarts dead workers and rebuilds their state from the journal;
// clients ride through on retries or fail-open degraded verdicts, and
// re-issue a degraded mutation once its shard is back. Every answered
// verdict is checked against an exact model of the clients' own ops. The
// run exits nonzero if any invariant broke: a verdict the model does not
// explain (a false UAF, a missed UAF, a lost key — other than a freed key
// aged out of the shard's freed window, or a mutation a failover lost
// between the worker's reply and the journal), an error other than
// ClosedError, a violation the service recorded during a failover, or
// (with -audit) accounting drift on any worker, including rebuilt ones.
//
// -metrics writes a final obs snapshot to the given file ("-" for
// stdout); feed it to `dangsan-stats service` for the supervision view or
// `dangsan-stats metrics` for everything.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dangsan/internal/obs"
	"dangsan/internal/service"
)

func main() {
	// A spawned copy of this binary must become a shard worker, not a
	// second coordinator.
	service.RunWorkerIfSpawned()
	os.Exit(run())
}

// run is the whole command. It returns the exit code rather than calling
// os.Exit, so that its deferred Close stops the worker processes and
// removes the service's work dir on every path out.
func run() int {
	shards := flag.Int("shards", 4, "worker shard count")
	clients := flag.Int("clients", 8, "concurrent load-generator clients")
	requests := flag.Int("requests", 2000, "operations per client")
	seed := flag.Int64("seed", 1, "load and disruption seed")
	transport := flag.String("transport", service.TransportChan, "worker transport: chan|unix (in-process goroutines | worker processes)")
	killRate := flag.Float64("kill-rate", 0, "per-tick probability of killing a random shard's worker")
	hangRate := flag.Float64("hang-rate", 0, "per-tick probability of hanging a random shard's worker")
	slowRate := flag.Float64("slow-rate", 0, "per-tick probability of slowing a random shard's worker")
	sigkillRate := flag.Float64("sigkill-rate", 0, "per-tick probability of SIGKILLing a random shard's worker process")
	audit := flag.Bool("audit", false, "enable log-byte accounting cross-checks on every worker")
	coldSpill := flag.Uint64("cold-spill-bytes", 0, "tiered-log spill threshold per worker (0: off)")
	metricsFile := flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit (\"-\" for stdout)")
	flag.Parse()

	reg := obs.NewRegistry()
	cfg := service.Config{
		Shards:         *shards,
		Audit:          *audit,
		ColdSpillBytes: *coldSpill,
		Seed:           uint64(*seed),
		Transport:      *transport,
		Metrics:        reg,
	}
	svc, err := service.New(cfg)
	if err != nil {
		return fail(err)
	}
	defer svc.Close()

	// Client load in the background; the disruptor runs against it.
	loadCh := make(chan service.LoadResult, 1)
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		loadCh <- service.RunLoad(svc, service.LoadConfig{
			Clients:  *clients,
			Requests: *requests,
			Seed:     *seed,
		})
	}()

	disrupted := map[string]int{}
	if *killRate > 0 || *hangRate > 0 || *slowRate > 0 || *sigkillRate > 0 {
		rng := rng{state: uint64(*seed)*0x9e3779b97f4a7c15 + 1}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
	disrupt:
		for {
			select {
			case <-loadDone:
				break disrupt
			case <-tick.C:
				for _, d := range []struct {
					kind string
					rate float64
				}{{"kill", *killRate}, {"hang", *hangRate}, {"slow", *slowRate}, {"sigkill", *sigkillRate}} {
					if d.rate <= 0 || rng.float() >= d.rate {
						continue
					}
					shard := int(rng.next() % uint64(*shards))
					if err := svc.Disrupt(shard, d.kind); err == nil {
						disrupted[d.kind]++
					}
				}
			}
		}
	}
	load := <-loadCh

	// The last disruptions may still be mid-failover: give every shard's
	// supervisor a bounded window to finish rebuilding before the final
	// accounting. A shard still down past the window is itself a
	// violation, reported by the stats loop below.
	settleDeadline := time.Now().Add(15 * time.Second)
	for {
		healthy := true
		for i := 0; i < svc.Shards(); i++ {
			if _, _, _, err := svc.DetectorStats(i); err != nil {
				healthy = false
				break
			}
		}
		if healthy || time.Now().After(settleDeadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Settled: collect the full verdict.
	violations := append(load.Failures, svc.Violations()...)
	if *audit {
		for i := 0; i < svc.Shards(); i++ {
			_, _, av, err := svc.DetectorStats(i)
			if err != nil {
				violations = append(violations, fmt.Sprintf("shard %d stats: %v", i, err))
				continue
			}
			for _, v := range av {
				violations = append(violations, fmt.Sprintf("shard %d audit: %s", i, v))
			}
		}
	}

	c := svc.Counters()
	fmt.Printf("load: %d issued, %d degraded, %d UAF detected, %d aged out, %d lost, %d pending, %d failed in %.2fs\n",
		load.Issued, load.Degraded, load.Detected, load.AgedOut, load.Lost, load.Pending, load.Failed,
		load.Elapsed.Seconds())
	if len(disrupted) > 0 {
		fmt.Printf("disruptions: %d kills, %d hangs, %d slows, %d sigkills\n",
			disrupted["kill"], disrupted["hang"], disrupted["slow"], disrupted["sigkill"])
	}
	fmt.Printf("service: %d requests, %d retries, %d timeouts, %d failovers (%d objects replayed), %d heartbeat misses, %d breaker trips, %d sends found the turn taken (%d parked), %d wire exchanges direct and %d polled\n",
		c.Requests, c.Retries, c.Timeouts, c.Failovers, c.ReplayedObjects,
		c.HeartbeatMisses, c.BreakerTrips, c.TurnContended, c.TurnParked, c.WireDirect, c.WirePolled)
	fmt.Printf("%-6s %-9s %-6s %-10s %-10s %-7s %-6s %-6s\n",
		"shard", "breaker", "trips", "failovers", "hb age", "incarn", "live", "freed")
	for _, st := range svc.ShardStats() {
		fmt.Printf("%-6d %-9s %-6d %-10d %-10s %-7d %-6d %-6d\n",
			st.Shard, st.Breaker, st.BreakerTrips, st.Failovers,
			st.HeartbeatAge.Round(time.Millisecond), st.Incarnation, st.LiveKeys, st.FreedKeys)
	}

	if *metricsFile != "" {
		data, err := reg.Snapshot().MarshalJSONIndent()
		if err != nil {
			return fail(err)
		}
		if *metricsFile == "-" {
			fmt.Printf("%s\n", data)
		} else if err := os.WriteFile(*metricsFile, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "dangsan-serve: violation: %s\n", v)
		}
		return 1
	}
	fmt.Println("all invariants held")
	return 0
}

// rng is a splitmix64 stream for the disruption draws.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "dangsan-serve: %v\n", err)
	return 1
}
