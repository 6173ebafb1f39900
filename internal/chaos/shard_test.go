package chaos

import (
	"testing"
	"time"
)

func shardTestConfig() ShardConfig {
	return ShardConfig{
		Shards:  4,
		Clients: 4,
		Timeout: 120 * time.Second,
	}
}

// TestShardSweepInvariants is the sharded-service acceptance gate: a
// rate × seed grid of cells, each driving a supervised 4-shard service
// with concurrent clients while the disruption script kills, hangs, and
// slows shards — with zero invariant violations: no false UAF verdicts,
// no untyped client errors, no hangs past the watchdog, and the audit
// identity holding on every rebuilt worker.
func TestShardSweepInvariants(t *testing.T) {
	rates := []float64{0.0, 0.1, 0.3}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		rates = rates[:2]
		seeds = seeds[:2]
	}
	results := SweepShards(shardTestConfig(), rates, seeds)
	if len(results) != len(rates)*len(seeds) {
		t.Fatalf("grid has %d cells, want %d", len(results), len(rates)*len(seeds))
	}
	for _, v := range FailedShards(results) {
		t.Error(v)
	}
	for _, r := range results {
		t.Logf("rate=%g seed=%d: %.2fs kills=%d hangs=%d slows=%d failovers=%d replayed=%d issued=%d degraded=%d detected=%d missed=%d",
			r.Rate, r.Seed, r.Seconds, r.Kills, r.Hangs, r.Slows,
			r.Failovers, r.Replayed, r.Issued, r.Degraded, r.Detected, r.Missed)
		// Every cell injects at least one disruption of each kind, and the
		// supervisor must have rebuilt a worker for every one of them.
		if r.Kills == 0 {
			t.Errorf("rate=%g seed=%d: no kill injected; failover was not exercised", r.Rate, r.Seed)
		}
		if r.Failovers < uint64(r.Kills+r.Hangs+r.Slows) {
			t.Errorf("rate=%g seed=%d: %d disruptions but only %d failovers",
				r.Rate, r.Seed, r.Kills+r.Hangs+r.Slows, r.Failovers)
		}
		if r.Issued == 0 {
			t.Errorf("rate=%g seed=%d: load generator issued nothing", r.Rate, r.Seed)
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
	cfg := ShardConfig{
		Shards:    2,
		Clients:   2,
		Timeout:   180 * time.Second,
		Transport: "unix",
	}
	rates := []float64{0.0, 0.1}
	seeds := []int64{1, 2}
	if testing.Short() {
		rates = rates[:1]
		seeds = seeds[:1]
	}
	results := SweepShards(cfg, rates, seeds)
	for _, v := range FailedShards(results) {
		t.Error(v)
	}
	for _, r := range results {
		t.Logf("rate=%g seed=%d: %.2fs kills=%d hangs=%d slows=%d sigkills=%d partitions=%d trickles=%d garbage=%d failovers=%d replayed=%d issued=%d degraded=%d detected=%d missed=%d",
			r.Rate, r.Seed, r.Seconds, r.Kills, r.Hangs, r.Slows,
			r.SigKills, r.Partitions, r.Trickles, r.Garbage,
			r.Failovers, r.Replayed, r.Issued, r.Degraded, r.Detected, r.Missed)
		if r.SigKills == 0 || r.Partitions == 0 || r.Trickles == 0 || r.Garbage == 0 {
			t.Errorf("rate=%g seed=%d: wire stages not all injected (sigkill=%d partition=%d trickle=%d garbage=%d)",
				r.Rate, r.Seed, r.SigKills, r.Partitions, r.Trickles, r.Garbage)
		}
		// Every queue-observed disruption and every SIGKILL owes a completed
		// failover; network faults do not (the worker process never died).
		if r.Failovers < uint64(r.Kills+r.Hangs+r.Slows+r.SigKills) {
			t.Errorf("rate=%g seed=%d: %d process disruptions but only %d failovers",
				r.Rate, r.Seed, r.Kills+r.Hangs+r.Slows+r.SigKills, r.Failovers)
		}
		if r.Issued == 0 {
			t.Errorf("rate=%g seed=%d: load generator issued nothing", r.Rate, r.Seed)
		}
	}
}

// TestShardCellRebuildCoversColdTier: the heavy-key fraction of the load
// pushes location sets across the cold spill threshold, and a multi-kill
// cell must have replayed journal objects into the replacement workers —
// the one source of a rebuilt worker's state, cold tier included (the
// service tests pin that replay re-spills it).
func TestShardCellRebuildCoversColdTier(t *testing.T) {
	r := RunShard(shardTestConfig(), 0.3, 42)
	if len(r.Violations) != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.Replayed == 0 {
		t.Fatal("no journal objects replayed across any failover")
	}
}
