package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dangsan/internal/service/transport"
)

// TestLoadModelJudges feeds fabricated check verdicts to the client's
// judge, one row per rule: what it fails, what it explains as AgedOut or
// Lost, what it counts as Detected, and that a pending key is not judged.
func TestLoadModelJudges(t *testing.T) {
	const window = 128
	type counts struct{ failed, lost, agedOut, detected uint64 }
	for _, tc := range []struct {
		name     string
		state    keyState
		pending  uint8
		failover bool   // the shard failed over after the key's mutations were sent
		later    uint64 // frees answered on the shard after the key's free was sent
		v        Verdict
		want     counts
	}{
		{name: "live key answered UAF, even after a failover", state: keyLive, failover: true, v: Verdict{Known: true, UAF: true}, want: counts{failed: 1}},
		{name: "live key answered live", state: keyLive, v: Verdict{Known: true}},
		{name: "live key unknown, no failover", state: keyLive, v: Verdict{}, want: counts{failed: 1}},
		{name: "live key unknown after a failover", state: keyLive, failover: true, v: Verdict{}, want: counts{lost: 1}},
		{name: "freed key live, no failover", state: keyFreed, v: Verdict{Known: true}, want: counts{failed: 1}},
		{name: "freed key live after a failover", state: keyFreed, failover: true, v: Verdict{Known: true}, want: counts{lost: 1}},
		{name: "freed key unknown inside the window", state: keyFreed, later: window / 2, v: Verdict{}, want: counts{failed: 1}},
		{name: "freed key unknown past the window", state: keyFreed, later: window, v: Verdict{}, want: counts{agedOut: 1}},
		{name: "freed key freed but not caught", state: keyFreed, v: Verdict{Known: true, Freed: true}, want: counts{failed: 1}},
		{name: "freed key UAF", state: keyFreed, v: Verdict{Known: true, Freed: true, UAF: true}, want: counts{detected: 1}},
		{name: "pending key unknown, no failover", state: keyLive, pending: 1, v: Verdict{}},
		{name: "pending freed key answered live", state: keyFreed, pending: 2, v: Verdict{Known: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Service{cfg: Config{FreedWindow: window}, shards: []*shardState{{}}}
			c := &loadClient{s: s, frees: make([]atomic.Uint64, 1), slack: 2}
			k := c.key(1)
			k.state, k.pending = tc.state, tc.pending
			if tc.failover {
				s.shards[0].failovers.Add(1)
			}
			c.frees[0].Add(tc.later)
			c.judge(ScriptOp{Kind: "check", Tenant: "t", Key: 1}, tc.v)
			got := counts{c.res.Failed, c.res.Lost, c.res.AgedOut, c.res.Detected}
			if got != tc.want {
				t.Fatalf("verdict %+v on a %s key: got %+v, want %+v (%v)", tc.v, keyStateNames[tc.state], got, tc.want, c.res.Failures)
			}
		})
	}
}

// TestReplyBeforeJournalIsLost drives the one loss failover owns: a
// mutation the worker applied and answered, rebuilt away because the
// coordinator had not journaled it yet. The alloc goes straight to the
// worker's send, so it is answered but never journaled; after a failover
// the rebuilt shard answers the key unknown, and the client model counts
// that verdict Lost, not Failed. A journaled key beside it survives.
func TestReplyBeforeJournalIsLost(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // the one failover is the test's
	s := mustNew(t, cfg)
	sh := s.shards[0]
	if v, err := s.Alloc("t", 2, 64, 2); err != nil || v.Degraded {
		t.Fatalf("journaled alloc: %+v %v", v, err)
	}
	c := &loadClient{s: s, frees: make([]atomic.Uint64, 1), slack: 2}
	k := c.key(1)
	k.state, k.allocFO = keyLive, sh.failovers.Load()
	box := sh.ep.Load()
	if resp := box.ep.send(transport.Request{Op: transport.OpAlloc, Key: keyFor("t", 1), Size: 64, Stores: 2}, time.Second); resp.Err != nil {
		t.Fatalf("unjournaled alloc: %v", resp.Err)
	}
	if v, err := s.Check("t", 1); err != nil || !v.Known {
		t.Fatalf("before the failover the worker must know the key: %+v %v", v, err)
	}

	s.failover(sh, box)
	if st := s.ShardStats()[0]; st.Failovers != 1 || st.Rebuilding {
		t.Fatalf("shard after the forced failover: %+v", st)
	}
	if v, err := s.Check("t", 2); err != nil || v.Degraded || !v.Known {
		t.Fatalf("journaled key after the failover: %+v %v, want live", v, err)
	}
	v, err := s.Check("t", 1)
	if err != nil || v.Degraded || v.Known {
		t.Fatalf("unjournaled key after the failover: %+v %v, want answered and unknown", v, err)
	}
	c.judge(ScriptOp{Kind: "check", Tenant: "t", Key: 1}, v)
	if c.res.Lost != 1 || c.res.Failed != 0 {
		t.Fatalf("judge counted %d lost and %d failed (%v), want 1 and 0", c.res.Lost, c.res.Failed, c.res.Failures)
	}
}

// TestStreamMatchesBenchmarkFingerprint recomputes the svc-* workloads'
// committed stream digest (FNV-1a over kind, tenant and key/size/stores
// little-endian, 2 clients × 50,000 ops) from NewStream: the benchmark and
// RunLoad issue the same ops.
func TestStreamMatchesBenchmarkFingerprint(t *testing.T) {
	blob, err := os.ReadFile("../../benchmark/corpus/fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]map[string]struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(blob, &committed); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		h := fnv.New64a()
		var buf [24]byte
		for c := 0; c < 2; c++ {
			st := NewStream(seed, c)
			for n := 0; n < 50000; n++ {
				o := st.Next()
				h.Write([]byte(o.Kind))
				h.Write([]byte(o.Tenant))
				binary.LittleEndian.PutUint64(buf[0:], o.Key)
				binary.LittleEndian.PutUint64(buf[8:], o.Size)
				binary.LittleEndian.PutUint64(buf[16:], uint64(o.Stores))
				h.Write(buf[:])
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		for _, w := range []string{"svc-chan", "svc-unix", "svc-failover"} {
			if want := committed[strconv.FormatInt(seed, 10)][w].Digest; got != want {
				t.Errorf("seed %d %s: stream digest %s, committed %q", seed, w, got, want)
			}
		}
	}
}
