package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
)

// wireConfig is testConfig with a wire transport armed. Timings stay
// test-scale; the worker binary is this test executable (TestMain routes
// spawned copies into RunWorkerIfSpawned).
func wireConfig(t *testing.T, shards int, transport string) Config {
	t.Helper()
	cfg := testConfig(t, shards)
	cfg.Transport = transport
	cfg.WorkDir = t.TempDir()
	// Wire RTTs are microseconds on loopback, but process scheduling under
	// a loaded test machine is not; pad the per-probe deadlines.
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.HeartbeatTimeout = 50 * time.Millisecond
	cfg.RequestTimeout = 100 * time.Millisecond
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond, MaxElapsed: 500 * time.Millisecond}
	return cfg
}

// parityState is everything the conformance suite compares across
// transports: the full outcome stream plus each shard's final detector
// snapshot and audit verdicts.
type parityState struct {
	Outcomes []parityOutcome
	Snaps    []pointerlog.Snapshot
	Colds    []pointerlog.ColdStats
	Audits   [][]string
	Degraded uint64
}

// parityOutcome is one op's verdict and its error's text ("" on success).
type parityOutcome struct {
	Verdict Verdict
	Err     string
}

func runParityScript(t *testing.T, transport string, script []ScriptOp) parityState {
	t.Helper()
	cfg := testConfig(t, 2)
	// Generous timings: parity compares healthy-path determinism, and a
	// degraded verdict from a loaded CI machine would be a spurious diff.
	cfg.RequestTimeout = 2 * time.Second
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.HeartbeatTimeout = 500 * time.Millisecond
	cfg.Transport = transport
	if transport == TransportUnix {
		cfg.WorkDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", transport, err)
	}
	defer s.Close()
	var st parityState
	for i, op := range script {
		start := time.Now()
		var o parityOutcome
		var err error
		switch op.Kind {
		case "alloc":
			o.Verdict, err = s.Alloc(op.Tenant, op.Key, op.Size, op.Stores)
		case "free":
			o.Verdict, err = s.Free(op.Tenant, op.Key)
		default:
			o.Verdict, err = s.Check(op.Tenant, op.Key)
		}
		if err != nil {
			o.Err = err.Error()
		}
		st.Outcomes = append(st.Outcomes, o)
		if d := time.Since(start); d > cfg.RequestTimeout {
			t.Fatalf("%s: op %d (%+v) took %v, RequestTimeout is %v", transport, i, script[i], d, cfg.RequestTimeout)
		}
	}
	for i := 0; i < s.Shards(); i++ {
		snap, cold, audit, err := s.DetectorStats(i)
		if err != nil {
			t.Fatalf("stats(%s, shard %d): %v", transport, i, err)
		}
		st.Snaps = append(st.Snaps, snap)
		st.Colds = append(st.Colds, cold)
		st.Audits = append(st.Audits, audit)
	}
	st.Degraded = s.Counters().Degraded
	return st
}

// TestTransportParityConformance is the wire transport's conformance
// suite: the same deterministic script through the in-process channel
// transport and unix sockets must produce identical verdict streams, zero degraded requests, identical per-shard detector
// snapshots (the audit identity numbers included), and clean audits.
// Workers are single-threaded and mutations arrive in script order, so
// any divergence is a transport bug — a verdict or typed error that did
// not survive the wire. The script ends on an alloc with a negative store
// count — no stores on any transport, not 2³²−1 of them under a worker
// process's turn — and a check of it. DetectorStats takes one path since
// every worker answers OpStats with the JSON blob; the snapshot comparison
// pins that chan and unix decode it to the same values.
func TestTransportParityConformance(t *testing.T) {
	var script []ScriptOp
	for st := NewStream(42, 0); len(script) < 500; {
		script = append(script, st.Next())
	}
	script = append(script,
		ScriptOp{Kind: "alloc", Tenant: "parity", Key: 1 << 40, Size: 64, Stores: -1},
		ScriptOp{Kind: "check", Tenant: "parity", Key: 1 << 40})
	base := runParityScript(t, TransportChan, script)
	if base.Degraded != 0 {
		t.Fatalf("chan baseline degraded %d requests", base.Degraded)
	}
	for i, o := range base.Outcomes {
		if o.Err != "" {
			t.Fatalf("chan baseline op %d errored: %s", i, o.Err)
		}
	}
	for _, a := range base.Audits {
		if len(a) > 0 {
			t.Fatalf("chan baseline audit violations: %v", a)
		}
	}
	transport := TransportUnix
	t.Run(transport, func(t *testing.T) {
		got := runParityScript(t, transport, script)
		if got.Degraded != 0 {
			t.Fatalf("%s degraded %d requests", transport, got.Degraded)
		}
		for i := range base.Outcomes {
			if got.Outcomes[i] != base.Outcomes[i] {
				t.Fatalf("op %d diverged over %s: chan=%+v wire=%+v (op %+v)",
					i, transport, base.Outcomes[i], got.Outcomes[i], script[i])
			}
		}
		if !reflect.DeepEqual(got.Snaps, base.Snaps) {
			t.Fatalf("detector snapshots diverged over %s:\nchan: %+v\nwire: %+v", transport, base.Snaps, got.Snaps)
		}
		if !reflect.DeepEqual(got.Colds, base.Colds) {
			t.Fatalf("cold-tier stats diverged over %s:\nchan: %+v\nwire: %+v", transport, base.Colds, got.Colds)
		}
		for i, a := range got.Audits {
			if len(a) > 0 {
				t.Fatalf("%s shard %d audit violations: %v", transport, i, a)
			}
		}
	})
}

// TestWorkerSpecCarriesConfig: the spec a worker process is spawned with
// round-trips every Config field through its JSON — the fields are listed
// once, in Config, and one added there travels without further code — except
// Metrics, which stays with the coordinator.
func TestWorkerSpecCarriesConfig(t *testing.T) {
	var cfg Config
	fillNonZero(t, reflect.ValueOf(&cfg).Elem())
	cfg.Metrics = obs.NewRegistry()
	blob, err := json.Marshal(workerSpec{Shard: 3, Incarnation: 7, Addr: "/tmp/s3-i7.sock", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var got workerSpec
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Config.Metrics != nil {
		t.Fatal("the spec carried the coordinator's metrics registry")
	}
	cfg.Metrics = nil
	if want := (workerSpec{Shard: 3, Incarnation: 7, Addr: "/tmp/s3-i7.sock", Config: cfg}); !reflect.DeepEqual(got, want) {
		t.Fatalf("spec round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewNamesValidTransports: New accepts the in-process default and the
// two transport names, and refuses any other name with an error that lists
// the valid ones.
func TestNewNamesValidTransports(t *testing.T) {
	for _, tc := range []struct {
		transport string
		ok        bool
	}{{"", true}, {TransportChan, true}, {TransportUnix, true}, {"tcp", false}, {"bogus", false}} {
		t.Run(tc.transport, func(t *testing.T) {
			s, err := New(wireConfig(t, 1, tc.transport))
			if err == nil {
				s.Close()
			}
			if tc.ok {
				if err != nil {
					t.Fatalf("New(%q): %v", tc.transport, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("New(%q) accepted an unknown transport", tc.transport)
			}
			for _, valid := range []string{TransportChan, TransportUnix} {
				if !strings.Contains(err.Error(), valid) {
					t.Errorf("New(%q): error %q does not name %q", tc.transport, err, valid)
				}
			}
		})
	}
}

// fillNonZero sets every field of the struct v (nested structs included,
// pointers left alone) to a distinct non-zero value.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), int64(i+1)
		switch f.Kind() {
		case reflect.Struct:
			fillNonZero(t, f)
		case reflect.Int, reflect.Int64:
			f.SetInt(n)
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Pointer:
		default:
			t.Fatalf("Config.%s: a %s field this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestWireLifecycleBothNetworks is the wire smoke test: spawn real worker
// processes, run the basic alloc/check/free/UAF cycle, verify the
// audit identity, and shut down cleanly (graceful SIGTERM path). Its one
// subtest is the one wire network, unix.
func TestWireLifecycleBothNetworks(t *testing.T) {
	t.Run(TransportUnix, func(t *testing.T) {
		s := mustNew(t, wireConfig(t, 2, TransportUnix))
		for k := uint64(1); k <= 30; k++ {
			if v, err := s.Alloc("acme", k, 256, 4); err != nil || v.Degraded {
				t.Fatalf("alloc %d: v=%+v err=%v", k, v, err)
			}
		}
		for k := uint64(1); k <= 10; k++ {
			if v, err := s.Free("acme", k); err != nil || v.Degraded {
				t.Fatalf("free %d: v=%+v err=%v", k, v, err)
			}
		}
		for k := uint64(1); k <= 10; k++ {
			v, err := s.Check("acme", k)
			if err != nil {
				t.Fatalf("freed probe %d errored: %v", k, err)
			}
			if !v.Known || !v.Freed || !v.UAF {
				t.Fatalf("freed key %d: %+v, want detected UAF", k, v)
			}
		}
		for k := uint64(11); k <= 30; k++ {
			v, err := s.Check("acme", k)
			if err != nil {
				t.Fatalf("live key %d faulted (false UAF): %v", k, err)
			}
			if !v.Known || v.Freed {
				t.Fatalf("live key %d: %+v", k, v)
			}
		}
		for i := 0; i < s.Shards(); i++ {
			if _, _, audit, err := s.DetectorStats(i); err != nil || len(audit) > 0 {
				t.Fatalf("shard %d audit: %v %v", i, audit, err)
			}
		}
	})
}

// TestWireFailoverOnDeath is TestFailoverOnDeath over unix sockets: a
// SIGKILLed worker process is reaped, and its reaping wakes the supervisor.
func TestWireFailoverOnDeath(t *testing.T) {
	cfg := wireConfig(t, 1, TransportUnix)
	cfg.HeartbeatInterval = time.Hour
	s := mustNew(t, cfg)
	failoverOnDeath(t, s, "sigkill")
}

// TestWireFailoverProcessSigkill is the process-death invariant: SIGKILL a
// real worker process mid-state (live keys, freed keys, cold segments), and
// require the supervisor to respawn a fresh process, replay the
// confirmed-ops journal over the wire — which re-spills its cold tier —
// and re-establish the audit identity on the rebuilt process.
func TestWireFailoverProcessSigkill(t *testing.T) {
	s := mustNew(t, wireConfig(t, 1, TransportUnix))

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

	// The real thing: kill -9 the worker process. No warning, no cleanup —
	// whatever is not on disk is gone.
	if err := s.Disrupt(0, "sigkill"); err != nil {
		t.Fatal(err)
	}
	waitFailedOver(t, s, 0, 1, 10*time.Second)

	// Replay is the rebuilt worker's only source of state: before any new
	// traffic, its stores have re-spilled the cold tier.
	if snap, cold, _, err := s.DetectorStats(0); err != nil || snap.Spills == 0 || cold.Segments == 0 {
		t.Fatalf("rebuilt worker: spills=%d segments=%d err=%v, want the cold tier re-spilled by replay", snap.Spills, cold.Segments, err)
	}

	c := s.Counters()
	if c.ReplayedObjects == 0 {
		t.Fatal("failover replayed nothing onto the respawned process")
	}
	if c.ReplayErrors != 0 {
		t.Fatalf("replay errors: %d", c.ReplayErrors)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("process failover broke service invariants: %v", v)
	}

	for k := uint64(1); k <= 29; k++ {
		v, err := s.Check("t", k)
		if err != nil {
			t.Fatalf("live key %d faulted after respawn (false UAF): %v", k, err)
		}
		if v.Degraded || !v.Known {
			t.Fatalf("live key %d after respawn: %+v", k, v)
		}
	}
	for k := uint64(30); k <= 40; k++ {
		v, err := s.Check("t", k)
		if err != nil {
			t.Fatalf("freed probe %d errored: %v", k, err)
		}
		if !v.Known || !v.Freed || !v.UAF {
			t.Fatalf("freed key %d after respawn: %+v, want detected UAF", k, v)
		}
	}
	// The audit identity must hold on the RESPAWNED process, with the
	// replayed and post-failover traffic on its books.
	_, _, audit, err := s.DetectorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit) > 0 {
		t.Fatalf("audit identity broken on respawned process: %v", audit)
	}
}

// TestCrashConsistencyKillAfterApply covers the window the journal's
// confirmed-ops discipline exists for: the worker process APPLIES a
// mutation and is killed before the reply, so the coordinator never
// confirms it. The respawned worker must match the journal (the phantom
// mutation absent), pass the audit identity, and a second failover
// (double replay) must be idempotent.
func TestCrashConsistencyKillAfterApply(t *testing.T) {
	cfg := wireConfig(t, 1, TransportUnix)
	// One attempt: a retry after the crash would re-apply the mutation and
	// confirm it, which is legitimate but would hide the window under test.
	cfg.Retry = RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, MaxElapsed: 50 * time.Millisecond}
	// A long heartbeat gap so our own request, not a ping, trips killafter.
	cfg.HeartbeatInterval = 50 * time.Millisecond
	s := mustNew(t, cfg)

	for k := uint64(1); k <= 20; k++ {
		if v, err := s.Alloc("t", k, 128, 4); err != nil || v.Degraded {
			t.Fatalf("alloc %d: %+v %v", k, v, err)
		}
	}
	for k := uint64(1); k <= 5; k++ {
		if v, err := s.Free("t", k); err != nil || v.Degraded {
			t.Fatalf("free %d: %+v %v", k, v, err)
		}
	}

	if err := s.Disrupt(0, "killafter"); err != nil {
		t.Fatal(err)
	}
	// This free is applied by the worker, which then dies WITHOUT
	// replying: it must surface as a degraded verdict (fail-open), never
	// an untyped error, and must NOT enter the journal. (If a heartbeat
	// ping races us into the killafter slot, the free is never applied at
	// all — the assertions below hold either way, which is the point:
	// observable state always matches the journal.)
	v, err := s.Free("t", 10)
	if err != nil {
		t.Fatalf("unconfirmed free surfaced an error: %v", err)
	}
	if !v.Degraded {
		t.Fatalf("unconfirmed free got a confirmed verdict: %+v", v)
	}

	waitFailedOver(t, s, 0, 1, 10*time.Second)

	verify := func(round string) {
		t.Helper()
		// Key 10's free was never confirmed: the journal says live, so the
		// rebuilt worker must too.
		v, err := s.Check("t", 10)
		if err != nil {
			t.Fatalf("%s: journal-live key faulted (false UAF): %v", round, err)
		}
		if !v.Known || v.Freed || v.Degraded {
			t.Fatalf("%s: journal-live key 10: %+v, want live", round, v)
		}
		// Confirmed frees stay freed.
		for k := uint64(1); k <= 5; k++ {
			v, err := s.Check("t", k)
			if err != nil {
				t.Fatalf("%s: freed probe %d errored: %v", round, k, err)
			}
			if !v.Known || !v.Freed {
				t.Fatalf("%s: confirmed-freed key %d: %+v", round, k, v)
			}
		}
		if c := s.Counters(); c.ReplayErrors != 0 {
			t.Fatalf("%s: replay errors: %d", round, c.ReplayErrors)
		}
		if v := s.Violations(); len(v) > 0 {
			t.Fatalf("%s: service violations: %v", round, v)
		}
		_, _, audit, err := s.DetectorStats(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(audit) > 0 {
			t.Fatalf("%s: audit identity broken: %v", round, audit)
		}
	}
	verify("first rebuild")

	// Double replay: kill the respawned process too. Replaying the same
	// journal a second time must reconstruct the same state — replay is
	// idempotent, not additive.
	if err := s.Disrupt(0, "sigkill"); err != nil {
		t.Fatal(err)
	}
	waitFailedOver(t, s, 0, 2, 10*time.Second)
	verify("double replay")
}

// TestWireWorkersDieWithCoordinator: a coordinator that exits without
// Close — a crash, a SIGKILL, an os.Exit past its defers — takes its worker
// processes with it. A re-exec'd helper starts a 2-shard unix service,
// prints its workers' PIDs and exits. The workers inherit the helper's
// stderr, so Wait returns within WaitDelay only once every one has exited.
func TestWireWorkersDieWithCoordinator(t *testing.T) {
	const dirEnv = "DANGSAN_COORDINATOR_HELPER_DIR"
	if dir := os.Getenv(dirEnv); dir != "" {
		s, err := New(Config{Shards: 2, Transport: TransportUnix, WorkDir: dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, sh := range s.shards {
			fmt.Println(sh.ep.Load().ep.(*wireEndpoint).cmd.Process.Pid)
		}
		os.Exit(0)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestWireWorkersDieWithCoordinator$")
	cmd.Env = append(os.Environ(), dirEnv+"="+t.TempDir())
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	err := cmd.Run()
	pids := strings.Fields(stdout.String())
	if errors.Is(err, exec.ErrWaitDelay) {
		for _, p := range pids {
			if pid, err := strconv.Atoi(p); err == nil {
				syscall.Kill(pid, syscall.SIGKILL)
			}
		}
		t.Fatalf("worker processes %v outlived their coordinator by %v", pids, cmd.WaitDelay)
	}
	if err != nil || len(pids) != 2 {
		t.Fatalf("helper: %v, worker pids %v\n%s", err, pids, stderr.String())
	}
}
