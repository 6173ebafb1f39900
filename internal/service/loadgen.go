package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig shapes RunLoad's client population.
type LoadConfig struct {
	// Clients is the concurrent client count (0: 2); client i issues
	// NewStream(Seed, i).
	Clients int
	// Requests is the stream ops per client (0: 1000).
	Requests int
	Seed     int64
	// Stop, when non-nil, holds each client past its Requests ops until
	// Stop closes: a driver that paces disruptions by ops keeps the load
	// running until its last disruption has landed.
	Stop <-chan struct{}
}

// Normalized fills in the defaults RunLoad applies.
func (cfg LoadConfig) Normalized() LoadConfig {
	if cfg.Clients <= 0 {
		cfg.Clients = 2
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	return cfg
}

// Ops is the stream ops the load issues across its clients, at least,
// re-issues not counted.
func (cfg LoadConfig) Ops() int {
	cfg = cfg.Normalized()
	return cfg.Clients * cfg.Requests
}

// LoadResult is what the clients observed, every answered verdict judged
// against the sequential model (see loadClient). Failed must be zero in
// every run, disrupted or not. AgedOut and Lost are the two losses the
// service states (DESIGN.md §12): counted, never failed.
type LoadResult struct {
	Issued   uint64 // ops sent, re-issues included
	Degraded uint64 // fail-open verdicts
	Detected uint64 // checks of freed keys the detector caught
	AgedOut  uint64 // freed keys unknown after at least FreedWindow later frees on their shard
	Lost     uint64 // verdicts missing a confirmed mutation, its shard failed over since it was sent
	Pending  uint64 // degraded mutations still queued 5s after the streams ended: never judged
	Failed   uint64 // verdicts the model does not explain, and errors other than ClosedError
	Failures []string
	Elapsed  time.Duration
}

// RunLoad drives s with cfg.Clients concurrent closed-loop clients and
// merges what they observed.
func RunLoad(s *Service, cfg LoadConfig) LoadResult {
	cfg = cfg.Normalized()
	frees := make([]atomic.Uint64, s.Shards())
	clients := make([]*loadClient, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		c := &loadClient{s: s, frees: frees, slack: 2 * uint64(cfg.Clients)}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(NewStream(cfg.Seed, i), cfg)
		}()
	}
	wg.Wait()
	var out LoadResult
	for _, c := range clients {
		r := &c.res
		out.Issued += r.Issued
		out.Degraded += r.Degraded
		out.Detected += r.Detected
		out.AgedOut += r.AgedOut
		out.Lost += r.Lost
		out.Pending += r.Pending
		out.Failed += r.Failed
		out.Failures = append(out.Failures, r.Failures...)
	}
	out.Elapsed = time.Since(start)
	return out
}

// The sequential verdict model: key → absent | live | freed, the state the
// key has once every mutation issued on it so far has been answered.
type keyState uint8

const (
	keyAbsent keyState = iota
	keyLive
	keyFreed
)

var keyStateNames = [...]string{"absent", "live", "freed"}

// keyModel is the model's record of one key. The stamps are taken when a
// mutation is sent (again, for a re-issue).
type keyModel struct {
	state   keyState
	pending uint8  // mutations on the key issued but not yet answered
	freedAt uint64 // the shard's answered-free count when the free was sent
	allocFO uint64 // the shard's failover count when the alloc was sent
	freeFO  uint64 // the same, when the free was sent
}

// loadClient is one closed-loop caller: it issues its stream in order,
// waits for every reply, and judges every answered check against the
// model. A mutation that comes back degraded was not applied: it goes on
// the redo queue, its key is pending (unjudged) until it is answered, and
// the oldest queued mutation is re-issued before each later stream op —
// but only while its shard is up, since a re-issue to a down shard only
// comes back degraded. The API is idempotent for exactly this re-issue.
type loadClient struct {
	s      *Service
	frees  []atomic.Uint64 // answered frees per shard, across clients
	slack  uint64
	keys   []keyModel // indexed by key: a stream mints keys in order
	redo   []ScriptOp
	res    LoadResult
	closed bool
}

func (c *loadClient) run(st *Stream, cfg LoadConfig) {
	for n := 0; !c.closed && (n < cfg.Requests || cfg.held()); n++ {
		c.step(st.Next())
	}
	c.drain()
}

// held reports whether Stop still holds the clients past Requests.
func (cfg LoadConfig) held() bool {
	select {
	case <-cfg.Stop:
		return false
	default:
		return cfg.Stop != nil
	}
}

func (c *loadClient) fail(format string, args ...any) {
	c.res.Failed++
	if len(c.res.Failures) < 8 {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
	}
}

func (c *loadClient) key(k uint64) *keyModel {
	for uint64(len(c.keys)) <= k {
		c.keys = append(c.keys, keyModel{})
	}
	return &c.keys[k]
}

// up reports whether o's shard is serving: not rebuilding.
func (c *loadClient) up(o ScriptOp) bool {
	return !c.s.shards[c.s.ShardOf(o.Tenant, o.Key)].rebuilding.Load()
}

// issue sends o through the public API and waits for its verdict; ok means
// answered (no error, not degraded).
func (c *loadClient) issue(o ScriptOp) (v Verdict, ok bool) {
	c.res.Issued++
	var err error
	switch o.Kind {
	case "alloc":
		v, err = c.s.Alloc(o.Tenant, o.Key, o.Size, o.Stores)
	case "free":
		v, err = c.s.Free(o.Tenant, o.Key)
	default:
		v, err = c.s.Check(o.Tenant, o.Key)
	}
	var closed *ClosedError
	switch {
	case errors.As(err, &closed):
		c.closed = true
	case err != nil:
		c.fail("%s %s key %d: error %v", o.Kind, o.Tenant, o.Key, err)
	}
	if v.Degraded {
		c.res.Degraded++
		// A fail-open verdict comes back at once; clients spinning on them
		// would hold every processor and starve the supervisor's rebuild.
		runtime.Gosched()
	}
	return v, err == nil && !v.Degraded
}

// send issues mutation o after stamping its key, and counts an answered
// free on its shard's clock.
func (c *loadClient) send(o ScriptOp) bool {
	shard := c.s.ShardOf(o.Tenant, o.Key)
	k := c.key(o.Key)
	if fo := c.s.shards[shard].failovers.Load(); o.Kind == "alloc" {
		k.allocFO = fo
	} else {
		// Every free counted so far was applied before this one can be.
		k.freeFO, k.freedAt = fo, c.frees[shard].Load()
	}
	_, ok := c.issue(o)
	if ok && o.Kind == "free" {
		c.frees[shard].Add(1)
	}
	return ok
}

func (c *loadClient) step(o ScriptOp) {
	if len(c.redo) > 0 && c.up(c.redo[0]) {
		c.retryOne()
	}
	if o.Kind == "check" {
		if v, ok := c.issue(o); ok {
			c.judge(o, v)
		}
		return
	}
	k := c.key(o.Key)
	k.state = keyLive
	if o.Kind == "free" {
		k.state = keyFreed
	}
	// A key with a queued mutation queues the next one behind it: per-key
	// order holds.
	if k.pending > 0 || !c.send(o) {
		k.pending++
		c.redo = append(c.redo, o)
	}
}

// retryOne re-issues the oldest queued mutation, once.
func (c *loadClient) retryOne() {
	if o := c.redo[0]; c.send(o) {
		c.redo = c.redo[1:]
		c.key(o.Key).pending--
	}
}

// drain re-issues what is still queued when the stream ends, for up to 5s;
// what is left after that is Pending.
func (c *loadClient) drain() {
	deadline := time.Now().Add(5 * time.Second)
	for len(c.redo) > 0 && !c.closed && time.Now().Before(deadline) {
		if c.up(c.redo[0]) {
			c.retryOne()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	c.res.Pending = uint64(len(c.redo))
}

// judge compares an answered check verdict with the model. Two losses are
// explained, everything else that disagrees is a failure:
//   - AgedOut: a freed key is unknown after at least FreedWindow later
//     frees on its shard. The count at check time can miss up to slack of
//     them: frees other clients have answered but not yet counted, and as
//     many again because a rebuilt worker forgets in the journal's order,
//     which can differ from the dead worker's by the mutations that were
//     in flight together.
//   - Lost: the verdict misses a mutation that was answered, and the key's
//     shard failed over after it was sent. The coordinator journals a
//     mutation only after the worker replied, so a rebuild in between
//     replays a journal without it. A live key's UAF verdict is never Lost.
func (c *loadClient) judge(o ScriptOp, v Verdict) {
	var k keyModel
	if o.Key < uint64(len(c.keys)) {
		k = c.keys[o.Key]
	}
	if k.pending > 0 {
		return
	}
	shard := c.s.ShardOf(o.Tenant, o.Key)
	failovers := c.s.shards[shard].failovers.Load()
	live := v.Known && !v.Freed && !v.UAF
	switch k.state {
	case keyAbsent:
		if !v.Known {
			return
		}
	case keyLive:
		if live {
			return
		}
		if !v.Known && failovers > k.allocFO {
			c.res.Lost++
			return
		}
	case keyFreed:
		switch since := c.frees[shard].Load() - k.freedAt + c.slack; {
		case v.Known && v.Freed && v.UAF:
			c.res.Detected++
			return
		case !v.Known && since >= uint64(c.s.cfg.FreedWindow):
			c.res.AgedOut++
			return
		case !v.Known && failovers > k.allocFO, live && failovers > k.freeFO:
			c.res.Lost++
			return
		}
	}
	c.fail("check %s key %d: verdict %+v contradicts the model (%s key, %d failovers on its shard)",
		o.Tenant, o.Key, v, keyStateNames[k.state], failovers)
}
