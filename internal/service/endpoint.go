package service

import (
	"time"

	"dangsan/internal/service/transport"
)

// Transport names for Config.Transport.
const (
	// TransportChan (also the "" default) keeps shard workers in this
	// process; an op runs on its caller's goroutine under the worker's turn
	// lock.
	TransportChan = "chan"
	// TransportUnix runs each shard worker as its own OS process reached
	// over a unix-domain socket.
	TransportUnix = "unix"
)

// endpoint is the coordinator's handle on one shard worker, abstracting
// over where the worker lives: in this process, run under its turn lock on
// the caller's goroutine (*worker), or a separate OS process reached over
// the wire codec (*wireEndpoint). The supervision machinery — heartbeats,
// retry, journal replay, failover — is written against this
// interface only, so it cannot behave differently per transport.
type endpoint interface {
	// send runs one request synchronously on the caller's goroutine under a
	// deadline. Response.Err is always one of the typed errors
	// (ShardDownError/DeadlineError from the transport, the allocator's
	// OutOfMemoryError, proc's ExhaustedError, or a vmem.Fault from a live-key
	// check) — an untyped error escaping a worker is a contract violation the
	// chaos harness would flag. Over the wire the deadline bounds the whole
	// exchange; in-process it bounds every wait (the worker's turn, an
	// injected slow/hang) but not the op itself.
	send(req transport.Request, timeout time.Duration) transport.Response
	// shutdown asks the worker to exit gracefully (close(stop) in-process,
	// SIGTERM for a process). Idempotent.
	shutdown()
	// kill forces the worker down (SIGKILL for a process; the in-process
	// worker has no harder stop than shutdown). Idempotent.
	kill()
	// close releases the worker's resources (spill file, socket). Only
	// safe once doneCh has closed.
	close()
	// doneCh closes when the worker is dead — turn retired, or
	// process reaped.
	doneCh() <-chan struct{}
	// didPanic reports whether the worker died panicking.
	didPanic() bool
}

// epBox wraps an endpoint for atomic.Pointer storage: the two concrete
// endpoint types would make atomic.Value panic on inconsistently-typed
// stores, and atomic.Pointer needs one concrete pointee. A shard gets a new
// box with every endpoint, so the box's identity names the incarnation: a
// failover trigger is stale once the shard holds another box.
type epBox struct{ ep endpoint }
