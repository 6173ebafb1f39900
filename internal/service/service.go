package service

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/service/transport"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// Config sizes the service and its supervision envelope. The zero value is
// usable: normalized() fills production-ish defaults; tests shrink the
// timings so failures surface in milliseconds.
type Config struct {
	// Shards is the worker count; keys are routed by hash. 0 defaults
	// to 4.
	Shards int

	// Per-worker detector stack — see the same-named pointerlog/proc
	// options. Audit arms the exact cross-tier accounting identity
	// (workers are single-threaded, so it holds to the byte). ColdDir is
	// where a service-owned work dir is made (see WorkDir).
	HeapBytes      uint64
	Audit          bool
	ColdSpillBytes uint64
	ColdDir        string

	// Seed drives retry jitter and any other coordinator-side randomness.
	Seed uint64

	// RequestTimeout is the per-request deadline (see endpoint.send for
	// what it covers; 0: 20ms). A shard in slow disruption mode delays each
	// request by twice it, past every caller's deadline.
	RequestTimeout time.Duration
	// HeartbeatInterval is the supervisor's probe period (0: 5ms);
	// HeartbeatTimeout the per-probe deadline (0: 10ms). Three consecutive
	// misses fail the shard over.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// FreedWindow is how many recently-freed keys each shard (and the
	// journal) remembers for UAF probes and failover replay (0: 512).
	FreedWindow int

	// Transport selects how shard workers are reached: TransportChan ("",
	// the default) keeps workers in this process; TransportUnix runs each
	// as its own OS process — a re-exec of the current executable, so main
	// (or TestMain) must call RunWorkerIfSpawned first — reached over the
	// wire codec in service/transport. The supervision envelope —
	// heartbeats, retry, failover with journal replay — is identical.
	Transport string
	// WorkDir hosts wire-transport sockets, and every worker makes its
	// spill file there (pointerlog.Config.ColdDir: unlinked at creation, so
	// never visible). Empty: a service-owned temp dir under ColdDir (the
	// system's, if that is empty too), removed on Close.
	WorkDir string

	// Metrics, when non-nil, receives the service gauges
	// (service.* / service.shard<i>.*). It stays with the coordinator: a
	// worker process's copy of the Config has none.
	Metrics *obs.Registry `json:"-"`
}

// failoverDrain bounds how long failover and Close wait for a worker to die
// before escalating, and again before abandoning it. Workers unblock on stop
// even when hung, so abandonment is the exception.
const failoverDrain = 500 * time.Millisecond

func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 20 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 5 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Millisecond
	}
	if c.FreedWindow <= 0 {
		c.FreedWindow = 512
	}
	if c.Transport == "" {
		c.Transport = TransportChan
	}
	return c
}

// shardState is the coordinator's per-shard bundle: the current worker
// endpoint (swapped atomically at failover), the replay journal, and
// supervision bookkeeping. rebuilding is the one sick-shard gate: the
// supervisor sets it for the length of a failover, and the request path
// fails open while it is set.
type shardState struct {
	idx        int
	ep         atomic.Pointer[epBox]
	journal    *journal
	rebuilding atomic.Bool
	failMu     sync.Mutex // serializes failovers for this shard
	lastBeat   atomic.Int64
	failovers  atomic.Uint64
	incarn     atomic.Int64
	turn       turnCounters // bumped by the shard's workers, contended sends only

	// Bumped by every op routed here: on a line no other shard's state
	// shares, so clients on different shards do not pass one line around.
	_        [64]byte
	requests atomic.Uint64
	degraded atomic.Uint64
	wire     transport.ExchangeCounts // by the shard's wire clients, across incarnations
	_        [32]byte
}

// Service is the coordinator: it owns the shards, their supervisors, and
// the fail-open request path.
type Service struct {
	cfg    Config
	shards []*shardState
	retry  retryPolicy
	rng    jitterRNG

	// spawn builds shard endpoints for the configured transport; workDir
	// hosts wire sockets and every worker's spill file (service-owned when
	// ownWorkDir).
	spawn      func(shard, incarn int) (endpoint, error)
	workDir    string
	ownWorkDir bool

	retries         atomic.Uint64
	timeouts        atomic.Uint64
	failovers       atomic.Uint64
	heartbeatMisses atomic.Uint64
	workerPanics    atomic.Uint64
	abandoned       atomic.Uint64
	replayedObjects atomic.Uint64
	replayErrors    atomic.Uint64

	recoveryMu sync.Mutex
	recoveries []time.Duration

	violationMu sync.Mutex
	violations  []string

	supStop chan struct{}
	supWG   sync.WaitGroup
	closed  atomic.Bool
}

// New builds the service, starts every shard worker (spawning a process
// per shard under the wire transports) and its supervisor, and wires the
// service gauges into cfg.Metrics.
func New(cfg Config) (*Service, error) {
	cfg = cfg.normalized()
	if cfg.Transport != TransportChan && cfg.Transport != TransportUnix {
		return nil, fmt.Errorf("service: unknown transport %q (valid: %s, %s)", cfg.Transport, TransportChan, TransportUnix)
	}
	s := &Service{cfg: cfg, retry: defaultRetry, supStop: make(chan struct{})}
	s.rng.seed(cfg.Seed ^ 0x5eed5eed5eed5eed)
	wire := cfg.Transport == TransportUnix
	if s.workDir = cfg.WorkDir; s.workDir == "" && (wire || cfg.ColdSpillBytes > 0) {
		dir, err := os.MkdirTemp(cfg.ColdDir, "dangsan-svc-*")
		if err != nil {
			return nil, fmt.Errorf("service: work dir: %w", err)
		}
		s.workDir = dir
		s.ownWorkDir = true
	}
	s.spawn = func(shard, incarn int) (endpoint, error) {
		cfg := cfg
		cfg.ColdDir = s.workDir
		if wire {
			return spawnWireWorker(cfg, shard, incarn, s.workDir, &s.shards[shard].wire)
		}
		w, err := newWorker(shard, cfg, &s.shards[shard].turn)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
	now := time.Now().UnixNano()
	for i := 0; i < cfg.Shards; i++ {
		sh := &shardState{idx: i, journal: newJournal(cfg.FreedWindow)}
		s.shards = append(s.shards, sh)
		ep, err := s.spawn(i, 0)
		if err != nil {
			for _, sh := range s.shards[:i] {
				old := sh.ep.Load().ep
				stopEndpoint(old)
				old.close()
			}
			if s.ownWorkDir {
				os.RemoveAll(s.workDir)
			}
			return nil, fmt.Errorf("service: shard %d: %w", i, err)
		}
		sh.lastBeat.Store(now)
		sh.ep.Store(&epBox{ep: ep})
	}
	for _, sh := range s.shards {
		s.supWG.Add(1)
		go s.supervise(sh)
	}
	s.registerMetrics()
	return s, nil
}

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Transport returns where the workers live: TransportChan or
// TransportUnix.
func (s *Service) Transport() string { return s.cfg.Transport }

// keyFor folds (tenant, key) into the routing key: FNV-1a over the tenant
// (hash/fnv's New64a, inlined: no hasher and no []byte per op) mixed with
// the caller key, then splitmix64's finalizer. Without the finalizer the
// low bits of the result are the key's low bits plus a per-tenant
// constant, so every key of one tenant that is a multiple of 16 would
// route to the same shard. Routing and worker-side state both use it.
func keyFor(tenant string, key uint64) uint64 {
	g := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		g = (g ^ uint64(tenant[i])) * 1099511628211
	}
	g ^= key + 0x9e3779b97f4a7c15 + (g << 6) + (g >> 2)
	g = (g ^ g>>30) * 0xbf58476d1ce4e5b9
	g = (g ^ g>>27) * 0x94d049bb133111eb
	return g ^ g>>31
}

// ShardOf exposes the routing decision (RunLoad's clients use it to find
// the shard behind a key).
func (s *Service) ShardOf(tenant string, key uint64) int {
	return int(keyFor(tenant, key) % uint64(len(s.shards)))
}

// Alloc registers an object of `size` bytes under (tenant, key) with
// `stores` scattered pointer stores (none if negative). Idempotent for live
// keys.
func (s *Service) Alloc(tenant string, key, size uint64, stores int) (Verdict, error) {
	return s.do(transport.Request{Op: transport.OpAlloc, Key: keyFor(tenant, key), Size: size, Stores: uint32(max(stores, 0))})
}

// Free frees the object under (tenant, key). Idempotent for absent/freed
// keys.
func (s *Service) Free(tenant string, key uint64) (Verdict, error) {
	return s.do(transport.Request{Op: transport.OpFree, Key: keyFor(tenant, key)})
}

// Check dereferences through the key's anchor pointer. For freed keys,
// Verdict.UAF reports whether the detector caught the access; for live
// keys a fault is returned as the error (a false UAF — the invariant the
// chaos harness watches).
func (s *Service) Check(tenant string, key uint64) (Verdict, error) {
	return s.do(transport.Request{Op: transport.OpCheck, Key: keyFor(tenant, key)})
}

// do is the supervised request path: the rebuild gate, per-request
// deadline, bounded retry with jittered backoff under a wall-time cap, and a
// degraded (fail-open) verdict when the shard cannot be reached — never a
// hang, never a made-up answer. Every caller is bounded on its own by
// RequestTimeout and the retry caps; the supervisor alone decides that a
// shard is sick, and its failover gates the shard.
func (s *Service) do(req transport.Request) (Verdict, error) {
	if s.closed.Load() {
		return Verdict{Degraded: true}, &ClosedError{}
	}
	sh := s.shards[req.Key%uint64(len(s.shards))]
	sh.requests.Add(1)
	pol := s.retry
	// The wall-time cap runs from the first failure: a healthy op never
	// reads the clock for it.
	var deadline time.Time
	retryUntil := func() time.Time {
		if deadline.IsZero() {
			deadline = time.Now().Add(pol.maxElapsed)
		}
		return deadline
	}
	for attempt := 0; attempt < pol.maxAttempts; attempt++ {
		if s.closed.Load() || sh.rebuilding.Load() {
			break
		}
		resp := sh.ep.Load().ep.send(req, s.cfg.RequestTimeout)
		verdict := Verdict{Known: resp.Known, Freed: resp.Freed, UAF: resp.UAF, Degraded: resp.Degraded}
		if resp.Err == nil {
			s.journalConfirmed(sh, req)
			return verdict, nil
		}
		var dl *DeadlineError
		if errors.As(resp.Err, &dl) {
			s.timeouts.Add(1)
		}
		if !transient(resp.Err) {
			// Non-transient: a live-key fault (false UAF — surfaced for
			// the harness) or resource exhaustion retries cannot fix.
			// Exhaustion falls open into degraded; faults surface.
			var fault *vmem.Fault
			if errors.As(resp.Err, &fault) {
				return verdict, resp.Err
			}
			break
		}
		if attempt == pol.maxAttempts-1 {
			break // no attempt left to back off for: fail open now
		}
		s.retries.Add(1)
		d := pol.delay(attempt, &s.rng)
		// The wall-time cap: stop retrying when the next sleep would
		// cross the deadline, not merely when attempts run out.
		if time.Now().Add(d).After(retryUntil()) {
			break
		}
		time.Sleep(d)
	}
	sh.degraded.Add(1)
	if sh.rebuilding.Load() {
		// Until the rebuild is done every answer for this shard is this
		// one, and a closed-loop caller that gets it at once comes straight
		// back, hundreds of thousands of times a second (DESIGN.md §12).
		// Back off once, as after a transient error, before failing open.
		if d := pol.delay(0, &s.rng); time.Now().Add(d).Before(retryUntil()) {
			time.Sleep(d)
		}
	}
	return Verdict{Degraded: true}, nil
}

// transient reports whether the coordinator should retry the error:
// transport failures (down/deadline) and memory pressure are worth another
// attempt; everything else is not.
func transient(err error) bool {
	var down *ShardDownError
	var dl *DeadlineError
	var oom *tcmalloc.OutOfMemoryError
	return errors.As(err, &down) || errors.As(err, &dl) || errors.As(err, &oom)
}

// journalConfirmed records a CONFIRMED mutation — the worker replied ok —
// so failover replay reconstructs exactly the state clients could observe.
func (s *Service) journalConfirmed(sh *shardState, req transport.Request) {
	switch req.Op {
	case transport.OpAlloc:
		sh.journal.recordAlloc(req.Key, req.Size, req.Stores)
	case transport.OpFree:
		sh.journal.recordFree(req.Key)
	}
}

// ShardStatus is one shard's supervision snapshot.
type ShardStatus struct {
	Shard        int
	Rebuilding   bool
	HeartbeatAge time.Duration
	Failovers    uint64
	Incarnation  int64
	LiveKeys     int
	FreedKeys    int
	Requests     uint64 // ops routed to the shard
}

// ShardStats returns the supervision view of every shard.
func (s *Service) ShardStats() []ShardStatus {
	out := make([]ShardStatus, 0, len(s.shards))
	now := time.Now().UnixNano()
	for _, sh := range s.shards {
		live, freed := sh.journal.counts()
		out = append(out, ShardStatus{
			Shard:        sh.idx,
			Rebuilding:   sh.rebuilding.Load(),
			HeartbeatAge: time.Duration(now - sh.lastBeat.Load()),
			Failovers:    sh.failovers.Load(),
			Incarnation:  sh.incarn.Load(),
			LiveKeys:     live,
			FreedKeys:    freed,
			Requests:     sh.requests.Load(),
		})
	}
	return out
}

// DetectorStats fetches shard i's pointer-log snapshot, cold-tier stats,
// and audit verdicts through the worker (so the read is single-threaded
// with the worker's own traffic).
func (s *Service) DetectorStats(shard int) (pointerlog.Snapshot, pointerlog.ColdStats, []string, error) {
	if shard < 0 || shard >= len(s.shards) {
		return pointerlog.Snapshot{}, pointerlog.ColdStats{}, nil, fmt.Errorf("service: no shard %d", shard)
	}
	ep := s.shards[shard].ep.Load().ep
	ws, err := statsOf(ep.send(transport.Request{Op: transport.OpStats}, 10*s.cfg.RequestTimeout))
	return ws.Stats, ws.Cold, ws.Audit, err
}

// statsOf decodes an OpStats reply.
func statsOf(resp transport.Response) (transport.WireStats, error) {
	if resp.Err != nil {
		return transport.WireStats{}, resp.Err
	}
	return transport.DecodeStats(resp.StatsJSON)
}

// AggregateStats sums the pointer-log snapshots across shards (transient
// per-shard failures are skipped; the error reports the first one).
func (s *Service) AggregateStats() (pointerlog.Snapshot, error) {
	var out pointerlog.Snapshot
	var firstErr error
	for i := range s.shards {
		snap, _, _, err := s.DetectorStats(i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out.ObjectsTracked += snap.ObjectsTracked
		out.Registered += snap.Registered
		out.Logged += snap.Logged
		out.Duplicates += snap.Duplicates
		out.Compressed += snap.Compressed
		out.HashTables += snap.HashTables
		out.Invalidated += snap.Invalidated
		out.Stale += snap.Stale
		out.Faulted += snap.Faulted
		out.LogBytes += snap.LogBytes
		out.LogBytesReleased += snap.LogBytesReleased
		out.LogBytesLive += snap.LogBytesLive
		out.LogBytesSpilled += snap.LogBytesSpilled
		out.Spills += snap.Spills
		out.SpillFailures += snap.SpillFailures
		out.ColdReadErrors += snap.ColdReadErrors
		out.DegradedObjects += snap.DegradedObjects
		out.DroppedRegistrations += snap.DroppedRegistrations
	}
	return out, firstErr
}

// Disrupt injects a failure mode into shard i's current worker: slow
// (requests crawl), hang (requests never answered), kill (worker exits on
// next request), killafter (worker applies its next request and dies
// before replying — the crash-consistency window), sigkill (worker dies
// NOW; a real SIGKILL under the wire transports), partition / trickle /
// garbage (wire transports only: the next exchange drops mid-request,
// crawls a byte every few milliseconds, or leads with non-frame bytes),
// none / heal. The chaos stages drive this.
func (s *Service) Disrupt(shard int, mode string) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("service: no shard %d", shard)
	}
	ep := s.shards[shard].ep.Load().ep
	var code uint8
	var netFault transport.NetFault
	switch mode {
	case "sigkill":
		ep.kill()
		return nil
	case "partition":
		netFault = transport.NetPartition
	case "trickle":
		netFault = transport.NetTrickle
	case "garbage":
		netFault = transport.NetGarbage
	case "none", "heal":
		code = transport.DisruptNone
	case "slow":
		code = transport.DisruptSlow
	case "hang":
		code = transport.DisruptHang
	case "kill":
		code = transport.DisruptKill
	case "killafter":
		code = transport.DisruptKillAfter
	default:
		return fmt.Errorf("service: unknown disruption %q", mode)
	}
	if netFault != transport.NetNone {
		// The worker is healthy, the wire is not: armed on the coordinator's
		// client, one-shot.
		wep, ok := ep.(*wireEndpoint)
		if !ok {
			return fmt.Errorf("service: network fault %q needs a wire transport", mode)
		}
		wep.client.InjectNetFault(netFault)
		return nil
	}
	// The worker applies a mode change without taking its turn, so it lands
	// even on a hung one.
	return ep.send(transport.Request{Op: transport.OpDisrupt, Mode: code}, replayBudget(s.cfg.RequestTimeout)).Err
}

// Violations returns invariant violations the service itself observed
// (audit identity broken after a rebuild, replay failures). The chaos
// harness folds these into its verdict.
func (s *Service) Violations() []string {
	s.violationMu.Lock()
	defer s.violationMu.Unlock()
	out := make([]string, len(s.violations))
	copy(out, s.violations)
	return out
}

func (s *Service) recordViolation(format string, args ...any) {
	s.violationMu.Lock()
	defer s.violationMu.Unlock()
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
}

// Counters is the service's own gauge set — the numbers the CLI, bench,
// and dangsan-stats surface.
type Counters struct {
	Requests        uint64 `json:"requests"`
	Degraded        uint64 `json:"degraded_requests"`
	Retries         uint64 `json:"retries"`
	Timeouts        uint64 `json:"timeouts"`
	Failovers       uint64 `json:"failovers"`
	HeartbeatMisses uint64 `json:"heartbeat_misses"`
	WorkerPanics    uint64 `json:"worker_panics"`
	Abandoned       uint64 `json:"abandoned_workers"`
	// RecoveredLocs is always 0: failover rebuilds a worker from the
	// journal alone and reads nothing back from the dead worker's spill
	// file, which is unlinked at creation. It stays while the benchmark's
	// service.recovered_locs layer reads it.
	RecoveredLocs   uint64 `json:"recovered_spilled_locs"`
	ReplayedObjects uint64 `json:"replayed_objects"`
	ReplayErrors    uint64 `json:"replay_errors"`
	// BreakerTrips is always 0: the service has no circuit breaker (the
	// supervisor's failover is the one sick-shard detector). It stays while
	// the benchmark's service.breaker_trips layer reads it.
	BreakerTrips uint64 `json:"breaker_trips"`
	// TurnContended counts sends that found the worker's turn taken,
	// TurnParked those of them that outlasted the poll budget (in-process
	// workers only; a worker process keeps its own).
	TurnContended uint64 `json:"turn_contended"`
	TurnParked    uint64 `json:"turn_parked"`
	// WireDirect and WirePolled count wire exchanges by the kind of
	// connection that served them (transport.Client): a blocking socket
	// while callers in the process are at most its Ps, the netpoller beyond.
	WireDirect uint64 `json:"wire_direct"`
	WirePolled uint64 `json:"wire_polled"`
}

// Counters snapshots the service-level counters; the per-op ones are kept
// per shard and summed here.
func (s *Service) Counters() Counters {
	c := Counters{
		Retries:         s.retries.Load(),
		Timeouts:        s.timeouts.Load(),
		Failovers:       s.failovers.Load(),
		HeartbeatMisses: s.heartbeatMisses.Load(),
		WorkerPanics:    s.workerPanics.Load(),
		Abandoned:       s.abandoned.Load(),
		ReplayedObjects: s.replayedObjects.Load(),
		ReplayErrors:    s.replayErrors.Load(),
	}
	for _, sh := range s.shards {
		c.Requests += sh.requests.Load()
		c.Degraded += sh.degraded.Load()
		c.TurnContended += sh.turn.contended.Load()
		c.TurnParked += sh.turn.parked.Load()
		c.WireDirect += sh.wire.Direct.Load()
		c.WirePolled += sh.wire.Polled.Load()
	}
	return c
}

// RecoveryTimes returns the duration of every completed failover.
func (s *Service) RecoveryTimes() []time.Duration {
	s.recoveryMu.Lock()
	defer s.recoveryMu.Unlock()
	out := make([]time.Duration, len(s.recoveries))
	copy(out, s.recoveries)
	return out
}

// registerMetrics exposes the supervision state as func gauges so metrics
// snapshots see live values without a second set of counters.
func (s *Service) registerMetrics() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	u := func(a *atomic.Uint64) func() int64 {
		return func() int64 { return int64(a.Load()) }
	}
	// One gauge per Counters field, named by its JSON tag: the two lists
	// cannot drift.
	ct := reflect.TypeOf(Counters{})
	for i := 0; i < ct.NumField(); i++ {
		reg.RegisterFunc("service."+ct.Field(i).Tag.Get("json"), func() int64 {
			return int64(reflect.ValueOf(s.Counters()).Field(i).Uint())
		})
	}
	for _, sh := range s.shards {
		sh := sh
		reg.RegisterFunc(fmt.Sprintf("service.shard%d.heartbeat_age_ms", sh.idx), func() int64 {
			return (time.Now().UnixNano() - sh.lastBeat.Load()) / int64(time.Millisecond)
		})
		reg.RegisterFunc(fmt.Sprintf("service.shard%d.failovers", sh.idx), u(&sh.failovers))
		reg.RegisterFunc(fmt.Sprintf("service.shard%d.turn_contended", sh.idx), u(&sh.turn.contended))
		reg.RegisterFunc(fmt.Sprintf("service.shard%d.turn_parked", sh.idx), u(&sh.turn.parked))
		reg.RegisterFunc(fmt.Sprintf("service.shard%d.wire_direct", sh.idx), u(&sh.wire.Direct))
		reg.RegisterFunc(fmt.Sprintf("service.shard%d.wire_polled", sh.idx), u(&sh.wire.Polled))
	}
}

// Close stops the supervisors and every worker. Requests issued after
// Close fail with ClosedError (degraded verdict).
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.supStop)
	s.supWG.Wait()
	for _, sh := range s.shards {
		// Serialize with any in-flight failover so we stop the final
		// worker, not a mid-swap one.
		sh.failMu.Lock()
		if ep := sh.ep.Load().ep; stopEndpoint(ep) {
			ep.close()
		} else {
			s.abandoned.Add(1)
		}
		sh.failMu.Unlock()
	}
	if s.ownWorkDir {
		os.RemoveAll(s.workDir)
	}
}

// stopEndpoint stops ep gracefully and, when it does not die within
// failoverDrain, escalates to kill (a real SIGKILL for a process worker; the
// in-process worker has no harder stop, so it just gets a second wait). False
// means ep survived both.
func stopEndpoint(ep endpoint) bool {
	ep.shutdown()
	if waitClosed(ep.doneCh(), failoverDrain) {
		return true
	}
	ep.kill()
	return waitClosed(ep.doneCh(), failoverDrain)
}

// waitClosed waits for ch to close, up to d. Returns false on timeout.
func waitClosed(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}
