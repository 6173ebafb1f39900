package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/pointerlog"
	"dangsan/internal/service"
)

// serviceConfig is the fixed service shape of the svc-* workloads.
func serviceConfig(w workloadSpec, seed int64, workDir string, audit bool) service.Config {
	return service.Config{
		Shards:            svcShards,
		Audit:             audit,
		ColdSpillBytes:    pointerlog.MinColdSpillBytes,
		ColdDir:           workDir,
		WorkDir:           workDir,
		Seed:              uint64(seed),
		RequestTimeout:    250 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		FreedWindow:       svcFreedWindow,
		Transport:         w.Transport,
	}
}

// The sequential verdict model: key → absent | live | freed, the state the
// key has once every mutation issued on it so far has been answered. Keys
// are per client and never reused, so slices indexed by key are the whole
// model. A mutation that came back degraded was not applied; the client
// re-issues it later (the API is idempotent for exactly that), and until
// then the key counts as pending: verdicts on pending keys are accepted,
// everything else must match exactly — with the one loss the service
// documents: a shard remembers only its last FreedWindow freed keys, so a
// probe of a freed key may come back "not known" once the shard has
// answered that many later frees.
type keyState uint8

const (
	keyAbsent keyState = iota
	keyLive
	keyFreed
)

// freeClock counts the answered frees of each shard, across clients.
type freeClock struct {
	shardOf func(tenant string, key uint64) int
	frees   []atomic.Uint64
}

func newFreeClock(svc *service.Service) *freeClock {
	return &freeClock{shardOf: svc.ShardOf, frees: make([]atomic.Uint64, svc.Shards())}
}

type verdictModel struct {
	tenant  string
	clock   *freeClock
	state   []keyState
	pending []uint8  // mutations on the key issued but not yet answered
	freedAt []uint64 // shard free count just before the key's free was sent
	AgedOut uint64   // probes of freed keys the shard had legitimately forgotten
}

func newVerdictModel(tenant string, ops []svcOp, clock *freeClock) *verdictModel {
	var maxKey uint32
	for _, o := range ops {
		if o.Key > maxKey {
			maxKey = o.Key
		}
	}
	n := maxKey + 1
	return &verdictModel{tenant: tenant, clock: clock, state: make([]keyState, n), pending: make([]uint8, n), freedAt: make([]uint64, n)}
}

// intend records a mutation the client is about to issue (or queue).
func (m *verdictModel) intend(o svcOp) {
	switch o.Kind {
	case opAlloc:
		m.state[o.Key] = keyLive
	case opFree:
		if m.state[o.Key] == keyLive {
			m.state[o.Key] = keyFreed
		}
	}
}

// sending records that a mutation is about to go out (again, for a
// re-issue). A free is stamped with its shard's free count now: every free
// counted so far was applied before this one can be.
func (m *verdictModel) sending(o svcOp) {
	if o.Kind == opFree {
		shard := m.clock.shardOf(m.tenant, uint64(o.Key))
		m.freedAt[o.Key] = m.clock.frees[shard].Load()
	}
}

// answered records that a mutation got a real (non-degraded) verdict.
func (m *verdictModel) answered(o svcOp) {
	if o.Kind == opFree {
		m.clock.frees[m.clock.shardOf(m.tenant, uint64(o.Key))].Add(1)
	}
}

// agedOutSlack is how many later frees the count at check time can miss:
// one the other client has answered but not yet counted, and as many again
// because a rebuilt worker forgets in the journal's order, which can differ
// from the dead worker's by the mutations that were in flight together.
const agedOutSlack = 2 * svcClients

// check compares a non-degraded check verdict with the model and reports a
// contradiction ("" when the verdict is explained).
func (m *verdictModel) check(o svcOp, v service.Verdict) string {
	if m.pending[o.Key] > 0 {
		return ""
	}
	switch m.state[o.Key] {
	case keyLive:
		if !v.Known || v.Freed || v.UAF {
			return fmt.Sprintf("check live key %d: verdict %+v", o.Key, v)
		}
	case keyFreed:
		if v.Known && v.Freed && v.UAF {
			return ""
		}
		// Aged out of the shard's freed window? since is an upper bound on
		// the frees the shard applied after this key's: the stamp was taken
		// before the free went out, the count after each reply. (It errs
		// upwards by what the other client freed while this one sat
		// between stamp and send — a forgotten key is then accepted a few
		// frees early, never rejected wrongly.)
		shard := m.clock.shardOf(m.tenant, uint64(o.Key))
		since := m.clock.frees[shard].Load() - m.freedAt[o.Key] + agedOutSlack
		if !v.Known && since >= svcFreedWindow {
			m.AgedOut++
			return ""
		}
		return fmt.Sprintf("check freed key %d: verdict %+v after at most %d later frees on its shard (missed use-after-free)", o.Key, v, since)
	case keyAbsent:
		if v.Known {
			return fmt.Sprintf("check absent key %d: verdict %+v", o.Key, v)
		}
	}
	return ""
}

func verdictBits(v service.Verdict) byte {
	var b byte
	if v.Known {
		b |= 1
	}
	if v.Freed {
		b |= 2
	}
	if v.UAF {
		b |= 4
	}
	if v.Degraded {
		b |= 8
	}
	return b
}

// killer issues the worker kills of svc-failover. Kills are spaced by
// answered (non-degraded) ops, so an outage — when fail-open verdicts come
// back at once and the op count races ahead — does not pull the next kill
// closer; a third of the stream is budgeted for the answered ops between
// kills, the rest for what outages burn. Shards alternate, and a kill waits
// until its shard has finished its previous rebuild: a kill sent to a dead
// worker would be lost. A kill is issued only while no op is in flight
// (clients hold quiesce for reading around each op): the service journals a
// mutation after the worker confirmed it, and a kill landing in that gap
// loses the mutation for good — a loss ROADMAP states, about one per
// hundred kills here, and this benchmark needs workloads on which no
// operation fails.
type killer struct {
	svc      *service.Service
	every    uint64
	want     int
	answered atomic.Uint64
	issued   atomic.Int64

	quiesce  sync.RWMutex
	mu       sync.Mutex
	perShard []uint64
}

func newKiller(svc *service.Service, totalOps, failovers int) *killer {
	if failovers == 0 {
		return nil
	}
	return &killer{
		svc: svc, want: failovers, perShard: make([]uint64, svc.Shards()),
		every: uint64(atLeast(totalOps/(3*failovers), 1)),
	}
}

// afterAnswered counts one answered op and issues a kill when one is due.
func (k *killer) afterAnswered() error {
	due := int64(k.answered.Add(1) / k.every)
	if due > int64(k.want) {
		due = int64(k.want)
	}
	if k.issued.Load() >= due {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	n := k.issued.Load()
	if n >= due {
		return nil
	}
	shard := int(n+1) % len(k.perShard)
	st := k.svc.ShardStats()[shard]
	if st.Rebuilding || st.Failovers != k.perShard[shard] {
		return nil // still recovering from its last kill; try again on the next answered op
	}
	k.quiesce.Lock()
	err := k.svc.Disrupt(shard, "kill")
	k.quiesce.Unlock()
	if err != nil {
		return err
	}
	k.perShard[shard]++
	k.issued.Store(n + 1)
	return nil
}

// client is one closed-loop caller: it issues its stream in order, waits
// for every reply, and checks it against the model. A mutation that comes
// back degraded goes on the redo queue and is re-issued, oldest first, one
// attempt before each later stream op — what a caller does that wants its
// frees to take effect once the shard is back. Without it every degraded
// free would leave its object live on the worker for good, the live set
// and with it every later rebuild would grow with each outage.
type client struct {
	svc    *service.Service
	tenant string
	model  *verdictModel
	kills  *killer
	redo   []svcOp

	latencyNS []int32
	degraded  uint64
	failures  []string
	failCount uint64
}

func (c *client) fail(msg string) {
	c.failCount++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, c.tenant+" "+msg)
	}
}

// issue sends one op through the public API and waits for its verdict.
func (c *client) issue(o svcOp) (v service.Verdict, err error) {
	if c.kills != nil {
		c.kills.quiesce.RLock()
	}
	t0 := time.Now()
	switch o.Kind {
	case opAlloc:
		v, err = c.svc.Alloc(c.tenant, uint64(o.Key), uint64(o.Size), int(o.Stores))
	case opFree:
		v, err = c.svc.Free(c.tenant, uint64(o.Key))
	default:
		v, err = c.svc.Check(c.tenant, uint64(o.Key))
	}
	c.latencyNS = append(c.latencyNS, int32(time.Since(t0)))
	if c.kills != nil {
		c.kills.quiesce.RUnlock()
	}
	if err != nil {
		c.fail(fmt.Sprintf("%s key %d: error %v", opKindNames[o.Kind], o.Key, err))
	}
	if v.Degraded {
		c.degraded++
		// A fail-open verdict comes back at once. Two clients spinning on
		// them would hold both processors and starve the supervisor's
		// rebuild for whole preemption slices; a caller with a program to
		// run does not do that.
		runtime.Gosched()
	} else if c.kills != nil {
		if err := c.kills.afterAnswered(); err != nil {
			c.fail("disrupt: " + err.Error())
		}
	}
	return v, err
}

// retryOne re-issues the oldest queued mutation, once.
func (c *client) retryOne() {
	o := c.redo[0]
	c.model.sending(o)
	if v, err := c.issue(o); err == nil && !v.Degraded {
		c.redo = c.redo[1:]
		c.model.pending[o.Key]--
		c.model.answered(o)
	}
}

// step issues one stream op and returns its verdict (zero when a mutation
// was queued behind earlier unanswered ones without being sent).
func (c *client) step(o svcOp) service.Verdict {
	if len(c.redo) > 0 {
		c.retryOne()
	}
	if o.Kind == opCheck {
		v, err := c.issue(o)
		if err == nil && !v.Degraded {
			if bad := c.model.check(o, v); bad != "" {
				c.fail(bad)
			}
		}
		return v
	}
	c.model.intend(o)
	if c.model.pending[o.Key] > 0 {
		// Keep per-key order: an earlier mutation on this key is still queued.
		c.model.pending[o.Key]++
		c.redo = append(c.redo, o)
		return service.Verdict{}
	}
	c.model.sending(o)
	v, err := c.issue(o)
	switch {
	case err != nil:
	case v.Degraded:
		c.model.pending[o.Key]++
		c.redo = append(c.redo, o)
	default:
		c.model.answered(o)
	}
	return v
}

// drain re-issues what is still queued when the stream ends.
func (c *client) drain() {
	deadline := time.Now().Add(5 * time.Second)
	for len(c.redo) > 0 && time.Now().Before(deadline) {
		c.retryOne()
	}
	if n := len(c.redo); n > 0 {
		c.fail(fmt.Sprintf("%d degraded mutations still unanswered 5s after the stream ended", n))
	}
}

// serviceMeasurement is the result of one service run.
type serviceMeasurement struct {
	RunS      float64
	Issued    uint64 // ops sent, re-issues included
	Degraded  uint64
	Failed    uint64
	AgedOut   uint64
	Failures  []string
	LatencyUS []float64 // sorted, all clients
	// ClientLatencyNS is each client's per-op time in issue order.
	ClientLatencyNS [][]int32
	SliceOpsPS      []float64 // ops/s per stream slice
	SliceP50US      []float64
	Recoveries      []float64 // ms
	Counters        service.Counters
	Stats           pointerlog.Snapshot
	Parity          string
}

// runService drives the streams through svc, one closed-loop client per
// stream, and checks every verdict against the sequential model. With
// failovers > 0 it kills shard workers along the way (see killer). The
// verdict digest covers each client's first parityOps stream ops.
func runService(svc *service.Service, streams [][]svcOp, failovers, parityOps int) serviceMeasurement {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	kills := newKiller(svc, total, failovers)
	clock := newFreeClock(svc)
	clients := make([]*client, len(streams))
	parities := make([]uint64, len(streams))
	// Per client: wall time and ops sent at the end of each stream slice.
	sliceEnd := make([][svcLatencySlices]time.Duration, len(streams))
	sliceSent := make([][svcLatencySlices]int, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := streams[i]
			c := &client{svc: svc, tenant: clientTenant(i), kills: kills, latencyNS: make([]int32, 0, len(ops)+len(ops)/8)}
			c.model = newVerdictModel(c.tenant, ops, clock)
			clients[i] = c
			parity := fnv.New64a()
			slice := 0
			for n, o := range ops {
				v := c.step(o)
				if n < parityOps {
					_, _ = parity.Write([]byte{verdictBits(v)})
				}
				if next := (n + 1) * svcLatencySlices / len(ops); next > slice {
					sliceEnd[i][slice], sliceSent[i][slice] = time.Since(start), len(c.latencyNS)
					slice = next
				}
			}
			c.drain()
			parities[i] = parity.Sum64()
		}(i)
	}
	wg.Wait()
	m := serviceMeasurement{RunS: time.Since(start).Seconds()}

	if failovers > 0 {
		// A kill lands on the worker's next request; let the supervisors
		// finish the last rebuilds before reading the recovery times.
		deadline := time.Now().Add(5 * time.Second)
		for svc.Counters().Failovers < uint64(failovers) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	fail := func(msg string) {
		m.Failed++
		m.Failures = append(m.Failures, msg)
	}
	m.Counters = svc.Counters()
	if got := m.Counters.Failovers; got != uint64(failovers) {
		fail(fmt.Sprintf("%d failovers completed, want %d", got, failovers))
	}
	for _, d := range svc.RecoveryTimes() {
		m.Recoveries = append(m.Recoveries, float64(d)/float64(time.Millisecond))
	}
	stats, err := svc.AggregateStats()
	if err != nil {
		fail("aggregate stats: " + err.Error())
	}
	m.Stats = stats
	for _, v := range svc.Violations() {
		fail("service violation: " + v)
	}

	for _, c := range clients {
		m.Issued += uint64(len(c.latencyNS))
	}
	m.LatencyUS = make([]float64, 0, m.Issued)
	parity := fnv.New64a()
	for i, c := range clients {
		m.ClientLatencyNS = append(m.ClientLatencyNS, c.latencyNS)
		m.Degraded += c.degraded
		m.AgedOut += c.model.AgedOut
		m.Failed += c.failCount
		m.Failures = append(m.Failures, c.failures...)
		for _, ns := range c.latencyNS {
			m.LatencyUS = append(m.LatencyUS, float64(ns)/1e3)
		}
		_, _ = parity.Write(binary.LittleEndian.AppendUint64(nil, parities[i]))
	}
	m.Parity = fmt.Sprintf("%016x", parity.Sum64())

	// Per-slice figures: each client's slice covers the same share of its
	// stream.
	for s := 0; s < svcLatencySlices; s++ {
		opsPS := 0.0
		var lat []float64
		for i, c := range clients {
			lo, begin := 0, time.Duration(0)
			if s > 0 {
				lo, begin = sliceSent[i][s-1], sliceEnd[i][s-1]
			}
			hi := sliceSent[i][s]
			if d := sliceEnd[i][s] - begin; d > 0 && hi > lo {
				opsPS += float64(hi-lo) / d.Seconds()
				for _, ns := range c.latencyNS[lo:hi] {
					lat = append(lat, float64(ns)/1e3)
				}
			}
		}
		m.SliceOpsPS = append(m.SliceOpsPS, opsPS)
		m.SliceP50US = append(m.SliceP50US, median(lat))
	}
	sort.Float64s(m.LatencyUS)
	return m
}
