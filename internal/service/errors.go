// Package service implements a supervised, sharded detection service over
// the DangSan stack — the coordinator/worker/client split the ROADMAP's
// "millions of users" north star calls for. A coordinator shards the
// simulated address space across N workers, each owning an isolated
// vmem/tcmalloc/shadow/pointerlog instance plus a detector, and routes
// register/free/deref-check streams by shard. Robustness is the first-class
// design axis: every worker runs under a supervisor (heartbeat health
// checks with miss thresholds), every request carries a deadline, transient
// worker errors are retried with exponential backoff + jitter under a
// wall-time cap, a per-shard circuit breaker trips to fail-open degraded
// mode (requests counted, never a false UAF verdict or a hang), and shard
// failover restarts a dead worker and rebuilds its state by replaying the
// coordinator's journal. The audit identity
// (LogBytes == live + released + spilled) holds across the restart because
// the rebuilt worker starts from an empty logger and the replay charges
// every byte afresh; the dead worker's cold spill segments are only read
// back through pointerlog.ReadSegments to count them (recovered_locs).
//
// Workers live behind a Transport: the default keeps them as goroutines in
// this process reached over channels; the "unix" transport runs each
// worker as its own OS process reached over the wire codec in the
// transport subpackage, so a worker can be killed with SIGKILL, respawned,
// and rebuilt without the coordinator's address space ever being at risk.
// The supervision machinery is transport-blind — the same heartbeats,
// breakers, and journal replay drive both.
package service

import "dangsan/internal/service/transport"

// The typed error vocabulary is shared with the wire layer (the transport
// package owns the definitions so the codec can encode them without an
// import cycle); the aliases keep the service API unchanged.

// ShardDownError reports a request that could not reach its shard because
// the worker had exited (crash, kill injection, or mid-failover) or its
// connection died. Transient: retried, then degraded.
type ShardDownError = transport.ShardDownError

// DeadlineError reports a request that missed its per-request deadline.
// Transient in the same sense as ShardDownError.
type DeadlineError = transport.DeadlineError

// ClosedError reports a request issued after Service.Close.
type ClosedError = transport.ClosedError
