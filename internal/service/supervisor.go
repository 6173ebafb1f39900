package service

import (
	"time"

	"dangsan/internal/service/transport"
)

// heartbeatMisses is the consecutive-miss count that fails a shard over.
const heartbeatMisses = 3

// supervise is one shard's supervisor loop, the service's one judge of
// shard health: it pings the worker every HeartbeatInterval and triggers
// failover after heartbeatMisses consecutive misses or as soon as the
// worker is seen dead. It wakes on the tick and on the current worker's
// death, so a killed shard starts its rebuild at once rather than up to a
// tick later. The loop is
// transport-blind: a dead endpoint is a retired turn or a reaped
// worker process, and a ping is a turn of the worker or a wire round trip.
func (s *Service) supervise(sh *shardState) {
	defer s.supWG.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	misses := 0
	// tickOnly is a box this loop already acted on without replacing it: a
	// dead worker whose rebuild failed, or one another failover is
	// rebuilding. Its done channel stays closed, so the loop waits for the
	// tick instead and retries once per tick rather than spinning.
	var tickOnly *epBox
	for {
		var died <-chan struct{}
		if box := sh.ep.Load(); box != tickOnly {
			died = box.ep.doneCh()
		}
		select {
		case <-s.supStop:
			return
		case <-ticker.C:
		case <-died:
		}
		box := sh.ep.Load()
		if sh.rebuilding.Load() {
			tickOnly = box
			continue
		}
		select {
		case <-box.ep.doneCh():
			// Dead worker: no point counting misses.
			s.failover(sh, box)
			misses = 0
			tickOnly = box
			continue
		default:
		}
		resp := box.ep.send(transport.Request{Op: transport.OpPing}, s.cfg.HeartbeatTimeout)
		if resp.Err == nil {
			misses = 0
			sh.lastBeat.Store(time.Now().UnixNano())
			continue
		}
		misses++
		s.heartbeatMisses.Add(1)
		if misses >= heartbeatMisses {
			s.failover(sh, box)
			misses = 0
		}
	}
}

// failover replaces the worker in seen — the box the trigger (a dead worker,
// or heartbeat misses) was observed on — and rebuilds the shard's state:
//
//  1. mark the shard rebuilding, so the request path fails open into
//     degraded verdicts instead of racing the swap;
//  2. stop the old worker gracefully and wait (bounded) for it to exit;
//     if it will not — a truly hung worker process — escalate to kill
//     (SIGKILL) and wait again, so abandonment is the rare exception;
//  3. spawn a fresh endpoint (next incarnation — a new in-process worker,
//     or a new worker process with its own socket) and replay the journal
//     synchronously — live keys as allocations, the freed window as
//     allocation+free so their anchors are invalidated again — before
//     the endpoint is published to client traffic. Replay is the only
//     source of the rebuilt state: its stores re-spill the cold tier, and
//     nothing of the old worker's is read back;
//  4. with audit armed, cross-check the rebuilt worker's accounting
//     identity (LogBytes == live + released + spilled); a
//     violation here is a service-level invariant failure;
//  5. swap the endpoint in and reopen the shard;
//  6. close the dead worker (its spill file's unmap and close): nothing
//     reaches it now, so neither the gate nor the recovery time waits.
//
// Concurrent failovers for one shard serialize on failMu; the rebuilding
// flag keeps the supervisor and request path out during the rebuild.
func (s *Service) failover(sh *shardState, seen *epBox) {
	sh.failMu.Lock()
	defer sh.failMu.Unlock()
	// A trigger that waited on failMu behind another failover is stale: the
	// shard holds a fresh worker in a new box, and the old one's heartbeat
	// history does not transfer to it.
	if s.closed.Load() || sh.ep.Load() != seen {
		return
	}
	old := seen.ep
	start := time.Now()
	sh.rebuilding.Store(true)

	exited := stopEndpoint(old)
	if old.didPanic() {
		s.workerPanics.Add(1)
	}

	if !exited {
		// The worker would not die within two drain budgets: abandon it
		// (its resources stay untouched; closing would race).
		s.abandoned.Add(1)
	}

	nep, err := s.spawn(sh.idx, int(sh.incarn.Load())+1)
	if err != nil {
		// Cannot rebuild (globals exhausted, spawn failed, etc.): leave
		// the dead worker in place; requests keep failing open on it, and
		// the supervisor will retry on its next tick.
		s.replayErrors.Add(1)
		s.recordViolation("shard %d: rebuild failed: %v", sh.idx, err)
		sh.rebuilding.Store(false)
		return
	}

	// Replay the journal against the fresh endpoint before it is published
	// (nobody else can reach it yet, so every op finds the worker idle).
	// In-process each op runs on this goroutine; over the wire each is one
	// round trip — either way strictly ordered and synchronous, under a
	// rebuild-sized budget.
	live, freed := sh.journal.snapshot()
	replayed := 0
	budget := replayBudget(s.cfg.RequestTimeout)
	replay := func(req transport.Request) bool {
		if resp := nep.send(req, budget); resp.Err != nil {
			s.replayErrors.Add(1)
			return false
		}
		return true
	}
	for _, e := range live {
		if replay(transport.Request{Op: transport.OpAlloc, Key: e.key, Size: e.size, Stores: e.stores}) {
			replayed++
		}
	}
	for _, e := range freed {
		if replay(transport.Request{Op: transport.OpAlloc, Key: e.key, Size: e.size, Stores: e.stores}) && replay(transport.Request{Op: transport.OpFree, Key: e.key}) {
			replayed++
		}
	}
	if s.cfg.Audit {
		// A stats op triggers the logger's AuditCheck on the rebuilt
		// worker; any violation means the rebuilt state broke the
		// accounting identity.
		ws, err := statsOf(nep.send(transport.Request{Op: transport.OpStats}, budget))
		if err != nil {
			s.recordViolation("shard %d: post-rebuild audit unavailable: %v", sh.idx, err)
		} else if len(ws.Audit) > 0 {
			s.recordViolation("shard %d: audit identity broken after rebuild: %s", sh.idx, ws.Audit[0])
		}
	}

	sh.ep.Store(&epBox{ep: nep})
	sh.incarn.Add(1)
	sh.lastBeat.Store(time.Now().UnixNano())
	sh.failovers.Add(1)
	s.failovers.Add(1)
	s.replayedObjects.Add(uint64(replayed))
	sh.rebuilding.Store(false)
	d := time.Since(start)
	s.recoveryMu.Lock()
	s.recoveries = append(s.recoveries, d)
	s.recoveryMu.Unlock()
	if exited {
		old.close()
	}
}
