// Command dangsan-serve runs the supervised sharded detection service
// under a configurable client load, optionally disrupting shards while it
// runs, and reports the supervision outcome: per-shard heartbeat and
// failover status, the client population's verdict mix,
// and every invariant violation.
//
// Usage:
//
//	dangsan-serve [-shards 4] [-clients 8] [-requests 2000] [-seed 1]
//	              [-transport chan|unix] [-rate R]
//	              [-audit] [-cold-spill-bytes N] [-metrics out.json]
//
// -transport selects where the workers live: "chan" (the default) keeps
// them as in-process goroutines; "unix" spawns one OS process per shard,
// reached over the wire codec on a unix socket. Wire workers are spawned
// by re-execing this binary and are supervised exactly like in-process
// ones: heartbeats, retries, and failover with journal replay work
// unchanged across the process boundary.
//
// The run is chaos.Drive, the same driver as the chaos shard cells. -rate
// R fires its seeded disruption script: round(10×R) each of kill, hang
// and slow (plus sigkill, partition, trickle and garbage under unix), each
// on a seeded shard, spread evenly over the load's ops and each waiting
// for its shard to recover before the next. -rate 0, the default,
// fires nothing. The chan script has no sigkill: in process it is kill
// without waiting for the worker's next request. The supervisor restarts
// dead workers and rebuilds their state from the journal; clients ride
// through on retries or fail-open degraded verdicts, and re-issue a
// degraded mutation once its shard is back. Every answered verdict is
// checked against an exact model of the clients' own ops. The run exits
// nonzero if any invariant broke: a verdict the model does not explain
// (a false UAF, a missed UAF, a lost key — other than a freed key aged
// out of the shard's freed window, or a mutation a failover lost between
// the worker's reply and the journal), an error other than ClosedError,
// a shard still down after the load, a violation the service recorded
// during a failover, or (with -audit) accounting drift on any worker,
// including rebuilt ones.
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

	"dangsan/internal/chaos"
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
	requests := flag.Int("requests", 2000, "operations per client (at least: the load runs until the disruption script is done)")
	seed := flag.Int64("seed", 1, "load and disruption seed")
	transport := flag.String("transport", service.TransportChan, "worker transport: chan|unix (in-process goroutines | worker processes)")
	rate := flag.Float64("rate", 0, "disruption script rate: round(10×rate) of each kind the transport supports, paced by ops (0: no disruption)")
	audit := flag.Bool("audit", false, "enable log-byte accounting cross-checks on every worker")
	coldSpill := flag.Uint64("cold-spill-bytes", 0, "tiered-log spill threshold per worker (0: off)")
	metricsFile := flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit (\"-\" for stdout)")
	flag.Parse()

	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{
		Shards:         *shards,
		Audit:          *audit,
		ColdSpillBytes: *coldSpill,
		Seed:           uint64(*seed),
		Transport:      *transport,
		Metrics:        reg,
	})
	if err != nil {
		return fail(err)
	}
	defer svc.Close()

	r := chaos.Drive(svc, service.LoadConfig{Clients: *clients, Requests: *requests, Seed: *seed}, *rate)
	load, c := r.Load, svc.Counters()
	fmt.Printf("load: %d issued, %d degraded, %d UAF detected, %d aged out, %d lost, %d pending, %d failed in %.2fs\n",
		load.Issued, load.Degraded, load.Detected, load.AgedOut, load.Lost, load.Pending, load.Failed,
		load.Elapsed.Seconds())
	if len(r.Disruptions) > 0 {
		fmt.Printf("disruptions: %d kills, %d hangs, %d slows, %d sigkills, %d network faults, %d after the load\n",
			r.Count("kill"), r.Count("hang"), r.Count("slow"), r.Count("sigkill"),
			r.Count("partition", "trickle", "garbage"), r.AfterLoad)
	}
	fmt.Printf("service: %d requests, %d retries, %d timeouts, %d failovers (%d objects replayed), %d heartbeat misses, %d sends found the turn taken (%d parked), %d wire exchanges direct and %d polled\n",
		c.Requests, c.Retries, c.Timeouts, c.Failovers, c.ReplayedObjects,
		c.HeartbeatMisses, c.TurnContended, c.TurnParked, c.WireDirect, c.WirePolled)
	fmt.Printf("%-6s %-10s %-10s %-7s %-6s %-6s\n",
		"shard", "failovers", "hb age", "incarn", "live", "freed")
	for _, st := range svc.ShardStats() {
		fmt.Printf("%-6d %-10d %-10s %-7d %-6d %-6d\n",
			st.Shard, st.Failovers,
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

	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "dangsan-serve: violation: %s\n", v)
		}
		return 1
	}
	fmt.Println("all invariants held")
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "dangsan-serve: %v\n", err)
	return 1
}
