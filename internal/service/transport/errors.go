// Package transport is the service's wire layer: a binary codec carrying
// the coordinator/worker request vocabulary (alloc/free/check/ping/stats/
// disrupt) and the typed error contract losslessly, framed by
// internal/frame (magic "DSw1"), plus a socket client and server pair.
// A truncated, corrupt, or oversized frame fails closed with a typed
// error — never a panic, never an over-read, never a silent desync.
//
// The typed errors the in-process service already uses live here (the
// service package aliases them) so both layers share one vocabulary: a
// wire client maps connection failures onto ShardDownError and socket
// deadline expiries onto DeadlineError, which is exactly what the
// coordinator's retry/breaker machinery already understands.
package transport

import (
	"fmt"
	"time"

	"dangsan/internal/frame"
)

// ShardDownError reports a request that could not reach its shard because
// the worker had exited (crash, kill injection, or mid-failover) or, over
// a wire transport, because the connection could not be established or
// died mid-exchange. It is transient: the coordinator retries, and
// exhausted retries fall open into a degraded verdict, never an untyped
// error.
type ShardDownError struct {
	Shard  int
	Reason string
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("service: shard %d down (%s)", e.Shard, e.Reason)
}

// DeadlineError reports a request that missed its per-request deadline —
// the worker was too slow (or hung) to enqueue or answer in time. Over a
// wire transport the per-request deadline is mapped onto the socket
// read/write deadlines, so a stalled peer surfaces here too. It is
// transient in the same sense as ShardDownError.
type DeadlineError struct {
	Shard   int
	Op      string
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("service: shard %d %s deadline exceeded (%v)", e.Shard, e.Op, e.Timeout)
}

// ClosedError reports a request issued after Service.Close.
type ClosedError struct{}

func (e *ClosedError) Error() string { return "service: closed" }

// FrameError reports a wire frame, or a payload inside one, that failed
// validation: bad magic, impossible length, checksum mismatch, unknown
// type or malformed fields. The decoder fails closed — the bytes after a
// bad frame are unknowable, so the connection carrying it must be dropped.
type FrameError = frame.Error

// OpaqueError carries an error the wire codec had no dedicated encoding
// for. The message survives; the dynamic type does not. The service
// contract treats these the way it treats any untyped error — as a
// violation worth flagging — so the opaque kind existing at all is a
// tripwire, not a sanctioned path.
type OpaqueError struct {
	Msg string
}

func (e *OpaqueError) Error() string { return e.Msg }
