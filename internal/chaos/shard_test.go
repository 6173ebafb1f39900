package chaos

import (
	"testing"

	"dangsan/internal/service"
)

func shardTestConfig() ShardConfig {
	return ShardConfig{Shards: 4, Clients: 4}
}

func logShardCell(t *testing.T, r ShardResult) {
	t.Helper()
	l := r.Load
	var last uint64
	if n := len(r.Disruptions); n > 0 {
		last = r.Disruptions[n-1].At
	}
	t.Logf("rate=%g seed=%d: %.2fs %d disruptions (%d kills, %d hangs, %d slows, %d sigkills, %d net, %d after the load, the last at request %d) failovers=%d replayed=%d issued=%d degraded=%d detected=%d aged_out=%d lost=%d pending=%d",
		r.Rate, r.Seed, r.Seconds, len(r.Disruptions), r.Count("kill"), r.Count("hang"), r.Count("slow"),
		r.Count("sigkill"), r.Count("partition", "trickle", "garbage"), r.AfterLoad, last,
		r.Failovers, r.Replayed, l.Issued, l.Degraded, l.Detected, l.AgedOut, l.Lost, l.Pending)
}

// TestShardSweepInvariants is the sharded-service acceptance gate: a
// rate × seed grid of cells, each driving a supervised 4-shard service
// with concurrent clients while the disruption script kills, hangs, and
// slows shards — with zero invariant violations: no false UAF verdicts,
// no untyped client errors, no hangs past the watchdog, and the audit
// identity holding on every rebuilt worker.
func TestShardSweepInvariants(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.4}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		rates = rates[:2]
		seeds = seeds[:2]
	}
	results := Sweep(shardTestConfig(), rates, seeds, RunShard)
	if len(results) != len(rates)*len(seeds) {
		t.Fatalf("grid has %d cells, want %d", len(results), len(rates)*len(seeds))
	}
	for _, v := range Failed(results) {
		t.Error(v)
	}
	for _, r := range results {
		logShardCell(t, r)
		// Every cell injects at least one disruption of each kind, and the
		// supervisor must have rebuilt a worker for every one of them.
		if r.Count("kill") == 0 {
			t.Errorf("rate=%g seed=%d: no kill injected; failover was not exercised", r.Rate, r.Seed)
		}
		if r.Failovers < uint64(len(r.Disruptions)) {
			t.Errorf("rate=%g seed=%d: %d disruptions but only %d failovers",
				r.Rate, r.Seed, len(r.Disruptions), r.Failovers)
		}
		if r.Load.Issued == 0 {
			t.Errorf("rate=%g seed=%d: load generator issued nothing", r.Rate, r.Seed)
		}
		if r.AfterLoad != 0 {
			t.Errorf("rate=%g seed=%d: %d of %d disruptions fired after the load ended",
				r.Rate, r.Seed, r.AfterLoad, len(r.Disruptions))
		}
	}
}

// TestWireShardSweepInvariants runs the sharded-service chaos grid with
// workers as real OS processes over unix sockets. On top of the in-process
// script it injects real SIGKILLs and the network stages — partition
// (connection dropped mid-request), trickle (byte-at-a-time writes until
// the deadline), garbage (non-frame bytes ahead of a request) — and holds
// the same invariants: no false UAF, no hang, typed errors only, audit
// identity on every rebuilt worker process.
func TestWireShardSweepInvariants(t *testing.T) {
	cfg := ShardConfig{Shards: 2, Clients: 2, Transport: "unix"}
	rates := []float64{0.1, 0.2}
	seeds := []int64{1, 2}
	if testing.Short() {
		rates = rates[:1]
		seeds = seeds[:1]
	}
	results := Sweep(cfg, rates, seeds, RunShard)
	for _, v := range Failed(results) {
		t.Error(v)
	}
	for _, r := range results {
		logShardCell(t, r)
		for _, kind := range []string{"sigkill", "partition", "trickle", "garbage"} {
			if r.Count(kind) == 0 {
				t.Errorf("rate=%g seed=%d: no %s injected", r.Rate, r.Seed, kind)
			}
		}
		// Every queue-observed disruption and every SIGKILL owes a completed
		// failover; network faults do not (the worker process never died).
		if n := r.Count("kill", "hang", "slow", "sigkill"); r.Failovers < uint64(n) {
			t.Errorf("rate=%g seed=%d: %d process disruptions but only %d failovers",
				r.Rate, r.Seed, n, r.Failovers)
		}
		if r.Load.Issued == 0 {
			t.Errorf("rate=%g seed=%d: load generator issued nothing", r.Rate, r.Seed)
		}
		if r.AfterLoad != 0 {
			t.Errorf("rate=%g seed=%d: %d of %d disruptions fired after the load ended",
				r.Rate, r.Seed, r.AfterLoad, len(r.Disruptions))
		}
	}
}

// TestShardCellRebuildCoversColdTier: the heavy-key fraction of the load
// pushes location sets across the cold spill threshold, and a multi-kill
// cell must have replayed journal objects into the replacement workers —
// the one source of a rebuilt worker's state, cold tier included (the
// service tests pin that replay re-spills it).
func TestShardCellRebuildCoversColdTier(t *testing.T) {
	r := RunShard(shardTestConfig(), 0.4, 42)
	if len(r.Violations) != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.AfterLoad != 0 {
		t.Fatalf("%d of %d disruptions fired after the load ended", r.AfterLoad, len(r.Disruptions))
	}
	if r.Replayed == 0 {
		t.Fatal("no journal objects replayed across any failover")
	}
}

// TestShardScriptIgnoresAudit: the disruption list Drive fires — kind,
// shard and order — depends only on (seed, rate, shards, transport), not
// on how fast the service is, and each disruption lands at its share of
// the load's ops while clients still run. The same small chan cell with
// audit on and off fires the script's list, the i-th of n once the
// service has counted i/(n+1) of the ops and before the load ends, and
// every disruption owes a failover in both.
func TestShardScriptIgnoresAudit(t *testing.T) {
	const rate = 0.1
	cfg := ShardConfig{Shards: 2, Clients: 2}.normalized()
	load := service.LoadConfig{Clients: cfg.Clients, Requests: shardRequests, Seed: 5}
	want := script(rate, load.Seed, cfg.Shards, cfg.Transport)
	for _, audit := range []bool{true, false} {
		scfg := cfg.serviceConfig(load.Seed)
		scfg.Audit = audit
		svc, err := service.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		r := Drive(svc, load, rate)
		svc.Close()
		logShardCell(t, r)
		for _, v := range r.Violations {
			t.Errorf("audit=%v: %s", audit, v)
		}
		if r.Failovers < uint64(len(r.Disruptions)) {
			t.Errorf("audit=%v: %d disruptions but only %d failovers", audit, len(r.Disruptions), r.Failovers)
		}
		if r.AfterLoad != 0 {
			t.Errorf("audit=%v: %d of %d disruptions fired after the load ended", audit, r.AfterLoad, len(r.Disruptions))
		}
		if len(r.Disruptions) != len(want) {
			t.Fatalf("audit=%v: fired %v, script %v", audit, r.Disruptions, want)
		}
		for i, d := range r.Disruptions {
			at := uint64(load.Ops()) * uint64(i+1) / uint64(len(want)+1)
			if d.Kind != want[i].Kind || d.Shard != want[i].Shard || d.At < at {
				t.Errorf("audit=%v: disruption %d is %s on shard %d at request %d, script says %s on shard %d at request >= %d",
					audit, i, d.Kind, d.Shard, d.At, want[i].Kind, want[i].Shard, at)
			}
		}
	}
}
