package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/service/transport"
)

// testConfig returns a service config with test-scale timings: failures
// surface in milliseconds instead of the production-ish defaults.
func testConfig(t *testing.T, shards int) Config {
	t.Helper()
	return Config{
		Shards:            shards,
		HeapBytes:         32 << 20,
		Audit:             true,
		ColdSpillBytes:    pointerlog.MinColdSpillBytes,
		ColdDir:           t.TempDir(),
		Seed:              42,
		RequestTimeout:    25 * time.Millisecond,
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Millisecond,
		FreedWindow:       128,
	}
}

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitUntil polls cond up to timeout.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitFailedOver waits until shard has completed n failovers and is out of
// its rebuild: the gate is open again, so the caller's next op must be
// served.
func waitFailedOver(t *testing.T, s *Service, shard int, n uint64, timeout time.Duration) {
	t.Helper()
	waitUntil(t, timeout, fmt.Sprintf("shard %d to finish failover %d", shard, n), func() bool {
		st := s.ShardStats()[shard]
		return st.Failovers >= n && !st.Rebuilding
	})
}

// TestServiceLifecycle: the basic contract — allocs are visible, live-key
// checks never fault, a probe after the free detects the UAF, and the
// audit identity holds on every shard.
func TestServiceLifecycle(t *testing.T) {
	s := mustNew(t, testConfig(t, 2))
	for k := uint64(1); k <= 40; k++ {
		if v, err := s.Alloc("acme", k, 256, 4); err != nil || v.Degraded {
			t.Fatalf("alloc %d: v=%+v err=%v", k, v, err)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		v, err := s.Check("acme", k)
		if err != nil {
			t.Fatalf("live check %d faulted (false UAF): %v", k, err)
		}
		if !v.Known || v.Freed {
			t.Fatalf("live check %d: %+v", k, v)
		}
	}
	for k := uint64(1); k <= 20; k++ {
		if v, err := s.Free("acme", k); err != nil || v.Degraded {
			t.Fatalf("free %d: v=%+v err=%v", k, v, err)
		}
	}
	detected := 0
	for k := uint64(1); k <= 20; k++ {
		v, err := s.Check("acme", k)
		if err != nil {
			t.Fatalf("freed probe %d errored: %v", k, err)
		}
		if !v.Known || !v.Freed {
			t.Fatalf("freed probe %d: %+v", k, v)
		}
		if v.UAF {
			detected++
		}
	}
	if detected != 20 {
		t.Fatalf("post-free probes detected %d/20 UAFs", detected)
	}
	// Live keys still clean after the frees.
	for k := uint64(21); k <= 40; k++ {
		if _, err := s.Check("acme", k); err != nil {
			t.Fatalf("live check %d after the frees faulted: %v", k, err)
		}
	}
	for i := 0; i < s.Shards(); i++ {
		snap, _, audit, err := s.DetectorStats(i)
		if err != nil {
			t.Fatalf("stats shard %d: %v", i, err)
		}
		if len(audit) > 0 {
			t.Fatalf("shard %d audit violations: %v", i, audit)
		}
		if snap.ObjectsTracked == 0 {
			t.Fatalf("shard %d tracked nothing — routing is broken", i)
		}
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("service violations: %v", v)
	}
}

// TestServiceRoutingCoversShards: the tenant/key hash must spread keys
// over every shard.
func TestServiceRoutingCoversShards(t *testing.T) {
	s := mustNew(t, testConfig(t, 4))
	seen := make(map[int]int)
	for k := uint64(0); k < 256; k++ {
		seen[s.ShardOf("tenant", k)]++
	}
	for i := 0; i < 4; i++ {
		if seen[i] == 0 {
			t.Fatalf("shard %d received no keys: %v", i, seen)
		}
	}
}

// TestRoutingSpreadsStridedKeys: which shard a key reaches must not depend
// on the key's low bits alone. Keys that are all multiples of 16 — every
// heavy key of the service workloads — spread over every shard, each
// shard's share within 10 points of an even share.
func TestRoutingSpreadsStridedKeys(t *testing.T) {
	for _, tenant := range []string{"c0", "c1", "tenant-0", "tenant-3", "parity"} {
		for _, shards := range []uint64{2, 4} {
			seen := make([]int, shards)
			for k := uint64(1); k <= 1000; k++ {
				seen[keyFor(tenant, k*16)%shards]++
			}
			for i, n := range seen {
				if share := float64(n) / 1000; math.Abs(share-1/float64(shards)) > 0.10 {
					t.Errorf("tenant %q, %d shards: shard %d got %d of 1000 keys k*16 (%v)", tenant, shards, i, n, seen)
				}
			}
		}
	}
}

// TestKeyForMatchesHashFNV: keyFor inlines FNV-1a; routing, the committed
// fingerprints and the parity digests all rest on it staying bit-identical
// to hash/fnv's New64a over the tenant.
func TestKeyForMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 1000; i++ {
		tenant := make([]byte, rng.Intn(40)) // includes "", and bytes ≥ 0x80
		rng.Read(tenant)
		key := rng.Uint64()
		h := fnv.New64a()
		h.Write(tenant)
		want := h.Sum64()
		want ^= key + 0x9e3779b97f4a7c15 + (want << 6) + (want >> 2)
		want = (want ^ want>>30) * 0xbf58476d1ce4e5b9
		want = (want ^ want>>27) * 0x94d049bb133111eb
		want ^= want >> 31
		if got := keyFor(string(tenant), key); got != want {
			t.Fatalf("keyFor(%q, %d) = %#x, hash/fnv gives %#x", tenant, key, got, want)
		}
	}
}

// stopSupervisors ends s's supervisor loops, so nothing rebuilds a dead
// shard; Close still works afterwards.
func stopSupervisors(s *Service) {
	close(s.supStop)
	s.supWG.Wait()
	s.supStop = make(chan struct{})
}

// TestServiceDegradedFailOpen: with supervision stopped (so nothing
// rebuilds the shard), killing a worker must turn that shard's
// requests into degraded verdicts — typed, prompt, never a hang or a
// false answer — while other shards keep answering.
func TestServiceDegradedFailOpen(t *testing.T) {
	cfg := testConfig(t, 2)
	s := mustNew(t, cfg)
	s.retry.maxElapsed = 20 * time.Millisecond
	stopSupervisors(s)

	// Find keys for both shards.
	var k0, k1 uint64
	for k := uint64(1); k0 == 0 || k1 == 0; k++ {
		if s.ShardOf("t", k) == 0 {
			if k0 == 0 {
				k0 = k
			}
		} else if k1 == 0 {
			k1 = k
		}
	}
	if v, err := s.Alloc("t", k1, 64, 2); err != nil || v.Degraded {
		t.Fatalf("healthy alloc: %+v %v", v, err)
	}

	if err := s.Disrupt(0, "kill"); err != nil {
		t.Fatal(err)
	}
	// First request crashes the worker; the response is a typed timeout
	// or down error internally, surfaced as a degraded verdict.
	start := time.Now()
	v, err := s.Alloc("t", k0, 64, 2)
	if err != nil {
		t.Fatalf("killed-shard alloc returned error instead of failing open: %v", err)
	}
	if !v.Degraded {
		t.Fatalf("killed-shard alloc verdict: %+v, want degraded", v)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fail-open took %v — the deadline/retry caps are not bounding", elapsed)
	}
	// Subsequent requests hit the dead worker or its rebuild and stay
	// degraded without accumulating latency.
	for i := 0; i < 5; i++ {
		if v, err := s.Check("t", k0); err != nil || !v.Degraded {
			t.Fatalf("degraded check %d: %+v %v", i, v, err)
		}
	}
	if c := s.Counters(); c.Degraded == 0 {
		t.Fatal("degraded requests not counted")
	}
	// The healthy shard is unaffected.
	if v, err := s.Check("t", k1); err != nil || v.Degraded || !v.Known {
		t.Fatalf("healthy shard affected by the dead one: %+v %v", v, err)
	}
}

// TestServiceRetryWallTimeCap: a hung shard makes every attempt eat the
// full request deadline; the retry loop must give up on wall-time, not
// grind through maxAttempts × deadline. Eight callers pile onto the hung
// shard at once and nothing sheds them early: each one's own deadline and
// wall cap must return it.
func TestServiceRetryWallTimeCap(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // keep failover out of the timing
	cfg.RequestTimeout = 30 * time.Millisecond
	s := mustNew(t, cfg)
	s.retry = retryPolicy{maxAttempts: 100, baseDelay: time.Millisecond, maxDelay: 2 * time.Millisecond, maxElapsed: 80 * time.Millisecond}
	if err := s.Disrupt(0, "hang"); err != nil {
		t.Fatal(err)
	}
	// The first failed attempt (≤30ms) starts the 80ms cap, and the
	// attempt in flight when it runs out takes up to 30ms more; the rest is
	// slack. Without the cap each call would take ≥ 100 × 30ms = 3s.
	limit := cfg.RequestTimeout + s.retry.maxElapsed + cfg.RequestTimeout + 300*time.Millisecond
	var wg sync.WaitGroup
	for i := uint64(1); i <= 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			v, err := s.Alloc("t", i, 64, 1)
			if elapsed := time.Since(start); elapsed > limit {
				t.Errorf("caller %d took %v, past %v; the wall-time cap is not enforced", i, elapsed, limit)
			}
			if err != nil || !v.Degraded {
				t.Errorf("caller %d on the hung shard: %+v %v, want degraded fail-open", i, v, err)
			}
		}()
	}
	wg.Wait()
	if c := s.Counters(); c.Timeouts == 0 {
		t.Fatal("deadline errors not counted")
	}
}

// TestLastAttemptFailsOpenAtOnce: a transient failure on the last attempt
// has nothing left to back off for, so the request fails open at once and
// counts no retry. One attempt on a hung shard, with a backoff far longer
// than the deadline: the degraded verdict comes within RequestTimeout plus
// slack, not a backoff later.
func TestLastAttemptFailsOpenAtOnce(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // keep failover out of the timing
	cfg.RequestTimeout = 5 * time.Millisecond
	s := mustNew(t, cfg)
	s.retry = retryPolicy{maxAttempts: 1, baseDelay: 100 * time.Millisecond, maxDelay: 100 * time.Millisecond, maxElapsed: time.Second}
	if err := s.Disrupt(0, "hang"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, err := s.Alloc("t", 1, 64, 1)
	elapsed := time.Since(start)
	if err != nil || !v.Degraded {
		t.Fatalf("alloc on the hung shard: %+v %v, want degraded fail-open", v, err)
	}
	if limit := cfg.RequestTimeout + 40*time.Millisecond; elapsed > limit {
		t.Fatalf("fail-open took %v, past %v: the last attempt backed off", elapsed, limit)
	}
	if c := s.Counters(); c.Retries != 0 || c.Timeouts != 1 {
		t.Fatalf("%d retries and %d timeouts, want 0 and 1: the one attempt is no retry", c.Retries, c.Timeouts)
	}
}

// TestServiceClosed: requests after Close fail with the typed ClosedError
// and a degraded verdict.
func TestServiceClosed(t *testing.T) {
	s := mustNew(t, testConfig(t, 1))
	s.Close()
	v, err := s.Alloc("t", 1, 64, 1)
	var closed *ClosedError
	if !errors.As(err, &closed) {
		t.Fatalf("post-close error = %v, want ClosedError", err)
	}
	if !v.Degraded {
		t.Fatalf("post-close verdict: %+v", v)
	}
	s.Close() // idempotent
}

// TestServiceLoadGenClean: on an undisrupted run every answered verdict
// matches the model exactly — no failure, no loss, nothing degraded or left
// pending — and checks of freed keys do detect. The timings are the svc-*
// benchmark's, loose enough that a starved scheduler times out no request
// and misses no heartbeat; a failover, if one happens anyway, is named as
// the cause.
func TestServiceLoadGenClean(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.RequestTimeout = 250 * time.Millisecond
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.HeartbeatTimeout = 50 * time.Millisecond
	s := mustNew(t, cfg)
	res := RunLoad(s, LoadConfig{Clients: 4, Requests: 500, Seed: 7})
	if c := s.Counters(); c.Failovers != 0 {
		t.Fatalf("undisrupted run failed over %d times (%d heartbeat misses, %d timeouts)", c.Failovers, c.HeartbeatMisses, c.Timeouts)
	}
	if res.Failed != 0 {
		t.Fatalf("clean load run failed %d verdicts: %v", res.Failed, res.Failures)
	}
	if res.Lost != 0 || res.Degraded != 0 || res.Pending != 0 {
		t.Fatalf("clean run: %d lost, %d degraded, %d pending", res.Lost, res.Degraded, res.Pending)
	}
	if res.Detected == 0 {
		t.Fatal("no UAF probe detected anything across the whole run")
	}
	snap, err := s.AggregateStats()
	if err != nil {
		t.Fatalf("aggregate stats: %v", err)
	}
	if snap.HashTables == 0 || snap.Spills == 0 {
		t.Fatalf("heavy keys exercised neither hash mode (%d) nor the cold tier (%d)", snap.HashTables, snap.Spills)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("service violations: %v", v)
	}
}

// TestServiceMetricsGauges: the service registers its gauges — one per
// Counters field, named by its JSON tag, plus the per-shard ones — and they
// reflect traffic.
func TestServiceMetricsGauges(t *testing.T) {
	cfg := testConfig(t, 2)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s := mustNew(t, cfg)
	if _, err := s.Alloc("t", 1, 64, 1); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Gauges["service.requests"] == 0 {
		t.Fatalf("service.requests gauge missing or zero: %v", snap.Gauges)
	}
	names := []string{"service.shard0.heartbeat_age_ms", "service.shard1.failovers"}
	for ct, i := reflect.TypeOf(Counters{}), 0; i < ct.NumField(); i++ {
		names = append(names, "service."+ct.Field(i).Tag.Get("json"))
	}
	for _, name := range names {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s not registered (have %v)", name, snap.Gauges)
		}
	}
}

// TestDegradedDuringRebuildBacksOffOnce: a request that finds its shard
// mid-rebuild fails open after one backoff delay, not at once (a
// closed-loop caller would otherwise spin on instant verdicts against the
// rebuild that ends them); a failure outside a rebuild, and a rebuild
// with the wall-time cap leaving no room, fail open at once.
func TestDegradedDuringRebuildBacksOffOnce(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour
	s := mustNew(t, cfg)
	s.retry = retryPolicy{maxAttempts: 3, baseDelay: 40 * time.Millisecond, maxDelay: 40 * time.Millisecond, maxElapsed: time.Second}
	sh := s.shards[0]
	timeDo := func(op transport.Op) time.Duration {
		start := time.Now()
		if v, err := s.do(transport.Request{Op: op, Key: keyFor("t", 1)}); err != nil || !v.Degraded {
			t.Fatalf("op %d: %+v %v, want degraded", op, v, err)
		}
		return time.Since(start)
	}
	// An op the worker cannot serve fails with an error no retry fixes.
	if d := timeDo(0xff); d >= 20*time.Millisecond {
		t.Fatalf("unservable op, no rebuild: fail-open took %v, want immediate", d)
	}
	timeCheck := func() time.Duration { return timeDo(transport.OpCheck) }
	sh.rebuilding.Store(true)
	if d := timeCheck(); d < 20*time.Millisecond || d > 2*time.Second {
		t.Fatalf("mid-rebuild: fail-open took %v, want one backoff of 20..60ms", d)
	}
	s.retry.maxElapsed = 10 * time.Millisecond // no room for a 20ms+ sleep
	if d := timeCheck(); d >= 20*time.Millisecond {
		t.Fatalf("mid-rebuild with the wall-time cap exhausted: fail-open took %v, want immediate", d)
	}
	sh.rebuilding.Store(false)
}
