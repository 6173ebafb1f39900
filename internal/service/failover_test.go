package service

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"
	"time"
)

// TestFailoverRebuildsStateAndAuditHolds is the failover invariant test:
// kill a worker whose state spans every tier (live keys, freed keys, cold
// spill segments), let the supervisor fail over, and require that (a) the
// journal replay restored every confirmed key, (b) the replay re-spilled
// the rebuilt worker's cold tier, (c) the audit identity held on the
// rebuilt worker, and (d) verdicts stay correct: live keys never fault,
// freed keys are detected.
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
	waitFailedOver(t, s, 0, 1, 5*time.Second)

	// Replay is the rebuilt worker's only source of state: before any new
	// traffic, its stores have re-spilled the cold tier.
	if snap, cold, _, err := s.DetectorStats(0); err != nil || snap.Spills == 0 || cold.Segments == 0 {
		t.Fatalf("rebuilt worker: spills=%d segments=%d err=%v, want the cold tier re-spilled by replay", snap.Spills, cold.Segments, err)
	}

	c := s.Counters()
	if c.ReplayedObjects == 0 {
		t.Fatal("failover replayed nothing")
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
	waitFailedOver(t, s, 0, 1, time.Second)
	if v, err := s.Check("t", 1); err != nil || v.Degraded || !v.Known {
		t.Fatalf("check after failover: %+v %v, want the replayed key served", v, err)
	}
}

// TestFreedWindowBound pins the AgedOut bound RunLoad's model allows: a
// shard forgets a freed key after exactly FreedWindow later frees, and a
// worker rebuilt from the journal forgets the same keys and remembers the
// rest.
func TestFreedWindowBound(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour
	cfg.FreedWindow = 4
	s := mustNew(t, cfg)
	for k := uint64(1); k <= 5; k++ {
		if v, err := s.Alloc("w", k, 64, 2); err != nil || v.Degraded {
			t.Fatalf("alloc %d: %+v %v", k, v, err)
		}
		if v, err := s.Free("w", k); err != nil || v.Degraded {
			t.Fatalf("free %d: %+v %v", k, v, err)
		}
	}
	probe := func(when string) {
		t.Helper()
		for k := uint64(1); k <= 5; k++ {
			v, err := s.Check("w", k)
			if want := k > 1; err != nil || v.Degraded || v.Known != want || v.UAF != want {
				t.Fatalf("%s: check freed key %d: %+v %v, want known and caught = %v", when, k, v, err, want)
			}
		}
	}
	probe("before failover")
	failoverOnDeath(t, s, "kill") // on tenant t's key 1, no free among them
	probe("after failover")
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
	waitFailedOver(t, s, 0, 1, 5*time.Second)
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
// deadline; requests fail open under the retry wall cap (degraded verdicts,
// not hangs) and once the supervisor's heartbeats miss, failover restores
// a fast worker.
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
	waitFailedOver(t, s, 0, 1, 5*time.Second)
	v, err = s.Check("t", 1)
	if err != nil || v.Degraded || !v.Known {
		t.Fatalf("post-slow-failover check: %+v %v", v, err)
	}
}

// TestFailoverUnderLoad: failovers happening mid-traffic must never
// produce a verdict the load's model does not explain, or an error —
// degraded verdicts, aged-out freed keys and mutations a failover lost are
// the worst allowed outcomes.
func TestFailoverUnderLoad(t *testing.T) {
	cfg := testConfig(t, 2)
	s := mustNew(t, cfg)
	// Stop holds the clients until the third kill's failover, so every
	// kill lands while they run.
	stop := make(chan struct{})
	load := LoadConfig{Clients: 4, Requests: 1000, Seed: 13, Stop: stop}
	done := make(chan struct{})
	var res LoadResult
	go func() {
		defer close(done)
		res = RunLoad(s, load)
	}()
	for i := 0; i < 3; i++ {
		shard := i % 2
		// Kill i fires at (i+1)/4 of the load's ops.
		at := uint64(load.Ops() * (i + 1) / 4)
		waitUntil(t, 30*time.Second, "load progress", func() bool { return s.Counters().Requests >= at })
		select {
		case <-done:
			t.Fatalf("load ended before kill %d landed", i)
		default:
		}
		// Read the count before the kill: a failover can complete before
		// Disrupt returns.
		before := s.ShardStats()[shard].Failovers
		if err := s.Disrupt(shard, "kill"); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 5*time.Second, "failover under load", func() bool {
			return s.ShardStats()[shard].Failovers > before
		})
	}
	close(stop)
	<-done
	if res.Failed != 0 {
		t.Fatalf("%d load failures during failovers: %v", res.Failed, res.Failures)
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

// TestWorkDirShowsNoSpillFile: a worker's spill file is unlinked as soon as
// it is made, so while workers spill, and after a kill and a sigkill
// failover, the service's work dir holds nothing but wire sockets — on
// either transport.
func TestWorkDirShowsNoSpillFile(t *testing.T) {
	for _, transport := range []string{TransportChan, TransportUnix} {
		t.Run(transport, func(t *testing.T) {
			cfg := testConfig(t, 1)
			if transport == TransportUnix {
				cfg = wireConfig(t, 1, transport)
			}
			s := mustNew(t, cfg)
			onlySockets := func(when string) {
				t.Helper()
				err := filepath.WalkDir(s.workDir, func(path string, d fs.DirEntry, err error) error {
					if err == nil && path != s.workDir && filepath.Ext(path) != ".sock" {
						err = fmt.Errorf("%s is visible", path)
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			for k := uint64(1); k <= 8; k++ {
				if v, err := s.Alloc("t", k, 512, 600); err != nil || v.Degraded {
					t.Fatalf("heavy alloc %d: %+v %v", k, v, err)
				}
			}
			if snap, cold, _, err := s.DetectorStats(0); err != nil || snap.Spills == 0 || cold.Segments == 0 {
				t.Fatalf("setup did not reach the cold tier: spills=%d segments=%d err=%v", snap.Spills, cold.Segments, err)
			}
			onlySockets("spilling")
			for i, mode := range []string{"kill", "sigkill"} {
				if err := s.Disrupt(0, mode); err != nil {
					t.Fatal(err)
				}
				waitFailedOver(t, s, 0, uint64(i)+1, 10*time.Second)
				if snap, _, _, err := s.DetectorStats(0); err != nil || snap.Spills == 0 {
					t.Fatalf("after %s: spills=%d err=%v, want replay to re-spill", mode, snap.Spills, err)
				}
				onlySockets("after " + mode)
			}
		})
	}
}
