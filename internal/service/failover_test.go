package service

import (
	"testing"
	"time"
)

// TestFailoverRebuildsStateAndAuditHolds is the tentpole's core invariant
// test: kill a worker whose state spans every tier (live keys, freed keys,
// cold spill segments on disk), let the supervisor fail over, and require
// that (a) the journal replay restored every confirmed key, (b) the cold
// segments were recovered through ReadSegments, (c) the audit identity
// held on the rebuilt worker, and (d) verdicts stay correct: live keys
// never fault, freed keys are detected.
func TestFailoverRebuildsStateAndAuditHolds(t *testing.T) {
	cfg := testConfig(t, 1)
	s := mustNew(t, cfg)

	// Heavy keys force hash mode and cold spills (600 stores ≫ the
	// 128-entry hash threshold and the 1 KiB spill threshold).
	for k := uint64(1); k <= 8; k++ {
		if v, err := s.Alloc("t", k, 512, 600); err != nil || v.Degraded {
			t.Fatalf("heavy alloc %d: %+v %v", k, v, err)
		}
	}
	for k := uint64(9); k <= 40; k++ {
		if v, err := s.Alloc("t", k, 128, 4); err != nil || v.Degraded {
			t.Fatalf("alloc %d: %+v %v", k, v, err)
		}
	}
	for k := uint64(30); k <= 40; k++ {
		if v, err := s.Free("t", k); err != nil || v.Degraded {
			t.Fatalf("free %d: %+v %v", k, v, err)
		}
	}
	snap, cold, _, err := s.DetectorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Spills == 0 || cold.Segments == 0 {
		t.Fatalf("setup did not reach the cold tier: spills=%d segments=%d", snap.Spills, cold.Segments)
	}

	if err := s.Disrupt(0, "kill"); err != nil {
		t.Fatal(err)
	}
	// The next heartbeat crashes the worker; the supervisor rebuilds.
	waitUntil(t, 5*time.Second, "failover", func() bool {
		return s.Counters().Failovers >= 1
	})
	waitUntil(t, 5*time.Second, "shard reopen", func() bool {
		st := s.ShardStats()[0]
		return !st.Rebuilding && st.Breaker == BreakerClosed
	})

	c := s.Counters()
	if c.ReplayedObjects == 0 {
		t.Fatal("failover replayed nothing")
	}
	if c.RecoveredLocs == 0 {
		t.Fatal("failover recovered no cold-segment locations through ReadSegments")
	}
	if c.ReplayErrors != 0 {
		t.Fatalf("replay errors: %d", c.ReplayErrors)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("failover broke service invariants: %v", v)
	}

	// Live keys survived the restart — no false UAF, no lost records.
	for k := uint64(1); k <= 29; k++ {
		v, err := s.Check("t", k)
		if err != nil {
			t.Fatalf("live key %d faulted after failover (false UAF): %v", k, err)
		}
		if v.Degraded {
			t.Fatalf("live key %d degraded after reopen", k)
		}
		if !v.Known {
			t.Fatalf("live key %d unknown after failover — journal replay lost it", k)
		}
	}
	// Freed keys kept their freed status and their invalidated anchors:
	// the UAF is still detected post-restart.
	for k := uint64(30); k <= 40; k++ {
		v, err := s.Check("t", k)
		if err != nil {
			t.Fatalf("freed probe %d errored: %v", k, err)
		}
		if !v.Known || !v.Freed || !v.UAF {
			t.Fatalf("freed key %d after failover: %+v, want detected UAF", k, v)
		}
	}
	// The rebuilt worker's audit identity must hold right now, with the
	// replayed + post-failover traffic on the books.
	_, _, audit, err := s.DetectorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit) > 0 {
		t.Fatalf("audit identity broken after failover: %v", audit)
	}
}

// TestFailoverOnDeath: the supervisor wakes on a worker's death, not on its
// next tick. With an hour between ticks, a kill disruption and the one
// request it crashes the worker on must still see the shard rebuilt within
// a second.
func TestFailoverOnDeath(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour
	s := mustNew(t, cfg)
	failoverOnDeath(t, s, "kill")
}

// failoverOnDeath disrupts shard 0 with mode, sends one request, and waits
// up to a second for the rebuilt shard to serve again.
func failoverOnDeath(t *testing.T, s *Service, mode string) {
	t.Helper()
	if v, err := s.Alloc("t", 1, 64, 2); err != nil || v.Degraded {
		t.Fatalf("alloc: %+v %v", v, err)
	}
	if err := s.Disrupt(0, mode); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Check("t", 1); err != nil {
		t.Fatalf("check on the disrupted shard: %v", err)
	}
	waitUntil(t, time.Second, "failover on worker death", func() bool {
		return s.Counters().Failovers >= 1
	})
	waitUntil(t, time.Second, "shard reopen", func() bool {
		st := s.ShardStats()[0]
		return !st.Rebuilding && st.Breaker == BreakerClosed
	})
	if v, err := s.Check("t", 1); err != nil || v.Degraded || !v.Known {
		t.Fatalf("check after failover: %+v %v, want the replayed key served", v, err)
	}
}

// TestFailoverStaleTriggerIsNoOp: a trigger is good for the worker it was
// observed on. One that reaches failover after that worker was replaced —
// it waited on failMu behind the failover that did it — must not tear the
// fresh worker down.
func TestFailoverStaleTriggerIsNoOp(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // the test is the only trigger
	s := mustNew(t, cfg)
	if v, err := s.Alloc("t", 1, 64, 2); err != nil || v.Degraded {
		t.Fatalf("alloc: %+v %v", v, err)
	}
	sh := s.shards[0]
	seen := sh.ep.Load()
	seen.ep.kill()
	s.failover(sh, seen)
	fresh := sh.ep.Load()
	if fresh == seen || s.Counters().Failovers != 1 {
		t.Fatalf("failover of a dead worker: same box %v, %d failovers", fresh == seen, s.Counters().Failovers)
	}

	s.failover(sh, seen)
	if sh.ep.Load() != fresh || s.Counters().Failovers != 1 {
		t.Fatalf("stale trigger replaced the fresh worker: %d failovers", s.Counters().Failovers)
	}
	select {
	case <-fresh.ep.doneCh():
		t.Fatal("stale trigger stopped the fresh worker")
	default:
	}
	if v, err := s.Check("t", 1); err != nil || v.Degraded || !v.Known {
		t.Fatalf("check after a stale trigger: %+v %v, want the replayed key served", v, err)
	}
}

// TestFailoverOnHang: a hung worker (never replies) must be detected by
// heartbeat misses and replaced; the shard serves again afterwards.
func TestFailoverOnHang(t *testing.T) {
	cfg := testConfig(t, 1)
	s := mustNew(t, cfg)
	if v, err := s.Alloc("t", 1, 64, 2); err != nil || v.Degraded {
		t.Fatalf("alloc: %+v %v", v, err)
	}
	if err := s.Disrupt(0, "hang"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "hang failover", func() bool {
		return s.Counters().Failovers >= 1
	})
	waitUntil(t, 5*time.Second, "shard reopen", func() bool {
		st := s.ShardStats()[0]
		return !st.Rebuilding && st.Breaker == BreakerClosed
	})
	v, err := s.Check("t", 1)
	if err != nil || v.Degraded || !v.Known {
		t.Fatalf("post-hang-failover check: %+v %v", v, err)
	}
	if c := s.Counters(); c.HeartbeatMisses == 0 {
		t.Fatal("hang produced no heartbeat misses")
	}
	if c := s.Counters(); c.Abandoned != 0 {
		t.Fatalf("hung worker was abandoned (%d) — stop should release it", c.Abandoned)
	}
}

// TestFailoverOnSlowShardRecovers: slow mode pushes every request past the
// deadline; the breaker trips (degraded verdicts, not hangs) and once the
// supervisor's heartbeats also miss, failover restores a fast worker.
func TestFailoverOnSlowShardRecovers(t *testing.T) {
	cfg := testConfig(t, 1)
	s := mustNew(t, cfg)
	if v, err := s.Alloc("t", 1, 64, 2); err != nil || v.Degraded {
		t.Fatalf("alloc: %+v %v", v, err)
	}
	if err := s.Disrupt(0, "slow"); err != nil {
		t.Fatal(err)
	}
	// Requests against the slow shard fail open promptly.
	start := time.Now()
	v, err := s.Check("t", 1)
	if err != nil {
		t.Fatalf("slow-shard check errored: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("slow shard held the caller past the retry wall cap")
	}
	_ = v // degraded or served-late are both acceptable; hanging is not
	waitUntil(t, 5*time.Second, "slow failover", func() bool {
		return s.Counters().Failovers >= 1
	})
	waitUntil(t, 5*time.Second, "shard reopen", func() bool {
		st := s.ShardStats()[0]
		return !st.Rebuilding && st.Breaker == BreakerClosed
	})
	v, err = s.Check("t", 1)
	if err != nil || v.Degraded || !v.Known {
		t.Fatalf("post-slow-failover check: %+v %v", v, err)
	}
}

// TestFailoverUnderLoad: failovers happening mid-traffic must never
// produce a false UAF or an untyped error — degraded verdicts and missed
// probes are the worst allowed outcomes.
func TestFailoverUnderLoad(t *testing.T) {
	cfg := testConfig(t, 2)
	s := mustNew(t, cfg)
	stop := make(chan struct{})
	resCh := make(chan LoadResult, 1)
	go func() {
		resCh <- RunLoad(s, LoadConfig{Clients: 4, Seed: 13, Stop: stop, HeavyStores: 200})
	}()
	for i := 0; i < 3; i++ {
		shard := i % 2
		if err := s.Disrupt(shard, "kill"); err != nil {
			t.Fatal(err)
		}
		before := s.ShardStats()[shard].Failovers
		waitUntil(t, 5*time.Second, "failover under load", func() bool {
			return s.ShardStats()[shard].Failovers > before
		})
	}
	close(stop)
	res := <-resCh
	if v := res.Violations(); len(v) > 0 {
		t.Fatalf("load violations during failovers: %v", v)
	}
	if res.Issued == 0 {
		t.Fatal("load generator issued nothing")
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("service violations during failovers: %v", v)
	}
	if c := s.Counters(); c.Failovers < 3 {
		t.Fatalf("failovers = %d, want >= 3", c.Failovers)
	}
}
