package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// Op is the request vocabulary — one value per coordinator/worker operation,
// on the wire and in-process alike.
type Op uint8

const (
	OpAlloc Op = iota + 1
	OpFree
	OpCheck
	OpPing
	OpStats
	// OpDisrupt injects a failure mode into the worker (slow/hang/kill/
	// killafter) — the chaos stages drive it; a real deployment would not
	// carry it.
	OpDisrupt
)

func (o Op) String() string {
	switch o {
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpCheck:
		return "check"
	case OpPing:
		return "ping"
	case OpStats:
		return "stats"
	case OpDisrupt:
		return "disrupt"
	}
	return "unknown"
}

// Disruption modes carried by OpDisrupt: the failure a worker simulates
// until the next OpDisrupt.
const (
	DisruptNone uint8 = iota
	// DisruptSlow: every request waits the worker's SlowDelay before being
	// served, or gives up at its deadline, unapplied.
	DisruptSlow
	// DisruptHang: no request is ever served; each caller holds the turn
	// until its deadline or the supervisor's stop (failover).
	DisruptHang
	// DisruptKill: the worker exits on its next request without replying.
	DisruptKill
	// DisruptKillAfter applies the request and then dies WITHOUT replying —
	// the crash-consistency window between a worker committing a mutation
	// and the coordinator journaling it.
	DisruptKillAfter
)

// Request is one wire request. ID is echoed by the response so a client
// can detect a desynchronized stream.
type Request struct {
	ID     uint64
	Op     Op
	Key    uint64
	Size   uint64
	Stores uint32
	Mode   uint8 // OpDisrupt operand
}

// reqPayloadBytes is the fixed request payload size.
const reqPayloadBytes = 30

// AppendRequest appends a request payload to dst (framing is the caller's
// job).
func AppendRequest(dst []byte, r Request) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Op), r.Mode)
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint64(dst, r.Size)
	return binary.LittleEndian.AppendUint32(dst, r.Stores)
}

// EncodeRequest packs a request payload into a fresh slice.
func EncodeRequest(r Request) []byte {
	return AppendRequest(make([]byte, 0, reqPayloadBytes), r)
}

// DecodeRequest parses a request payload, failing closed on any size or
// field-range violation.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) != reqPayloadBytes {
		return Request{}, &FrameError{Reason: fmt.Sprintf("request payload %d bytes, want %d", len(b), reqPayloadBytes)}
	}
	r := Request{
		ID:     binary.LittleEndian.Uint64(b[0:]),
		Op:     Op(b[8]),
		Mode:   b[9],
		Key:    binary.LittleEndian.Uint64(b[10:]),
		Size:   binary.LittleEndian.Uint64(b[18:]),
		Stores: binary.LittleEndian.Uint32(b[26:]),
	}
	if r.Op < OpAlloc || r.Op > OpDisrupt {
		return Request{}, &FrameError{Reason: fmt.Sprintf("unknown op %d", b[8])}
	}
	if r.Mode > DisruptKillAfter {
		return Request{}, &FrameError{Reason: fmt.Sprintf("unknown disrupt mode %d", r.Mode)}
	}
	return r, nil
}

// WireStats is the stats-op payload: the worker's pointer-log snapshot,
// cold-tier view, and audit verdicts, JSON-encoded inside the checksummed
// frame. Stats are an operator path, not a hot path — JSON keeps the
// struct evolvable without a hand-rolled layout per field.
type WireStats struct {
	Stats pointerlog.Snapshot  `json:"stats"`
	Cold  pointerlog.ColdStats `json:"cold"`
	Audit []string             `json:"audit,omitempty"`
}

// Response is one wire response. Err is nil or one of the typed errors;
// StatsJSON is non-empty only for OpStats replies.
type Response struct {
	ID        uint64
	Known     bool
	Freed     bool
	UAF       bool
	Degraded  bool
	Err       error
	StatsJSON []byte
}

// Verdict flag bits.
const (
	flagKnown    = 1 << 0
	flagFreed    = 1 << 1
	flagUAF      = 1 << 2
	flagDegraded = 1 << 3
)

// Error kinds on the wire. Every error a worker can legitimately produce
// has a dedicated kind so it round-trips losslessly: the coordinator's
// errors.As checks behave identically whether the worker answered over a
// channel or a socket.
const (
	errNone uint8 = iota
	errShardDown
	errDeadline
	errClosed
	errOOM
	errExhausted
	errFault
	errOpaque
)

// maxWireString bounds every length-prefixed string field.
const maxWireString = 4096

func appendString(dst []byte, s string) []byte {
	if len(s) > maxWireString {
		s = s[:maxWireString]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// byteReader walks a payload with explicit bounds checks; every read
// failure marks it bad so the caller converts to one typed error at the
// end instead of checking each field.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) take(n int) []byte {
	if r.bad || r.off+n > len(r.b) || n < 0 {
		r.bad = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *byteReader) str() string {
	n := int(r.u16())
	if n > maxWireString {
		r.bad = true
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// AppendResponse appends a response payload to dst.
func AppendResponse(b []byte, r Response) []byte {
	b = binary.LittleEndian.AppendUint64(b, r.ID)
	var flags byte
	if r.Known {
		flags |= flagKnown
	}
	if r.Freed {
		flags |= flagFreed
	}
	if r.UAF {
		flags |= flagUAF
	}
	if r.Degraded {
		flags |= flagDegraded
	}
	b = append(b, flags)
	b = appendError(b, r.Err)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.StatsJSON)))
	return append(b, r.StatsJSON...)
}

// EncodeResponse packs a response payload into a fresh slice.
func EncodeResponse(r Response) []byte {
	return AppendResponse(make([]byte, 0, 64+len(r.StatsJSON)), r)
}

// appendError encodes err's kind byte and kind-specific fields.
func appendError(b []byte, err error) []byte {
	if err == nil {
		return append(b, errNone)
	}
	le := binary.LittleEndian
	var down *ShardDownError
	var dl *DeadlineError
	var closed *ClosedError
	var oom *tcmalloc.OutOfMemoryError
	var ex *proc.ExhaustedError
	var fault *vmem.Fault
	switch {
	case errors.As(err, &down):
		b = le.AppendUint32(append(b, errShardDown), uint32(down.Shard))
		b = appendString(b, down.Reason)
	case errors.As(err, &dl):
		b = le.AppendUint32(append(b, errDeadline), uint32(dl.Shard))
		b = appendString(b, dl.Op)
		b = le.AppendUint64(b, uint64(dl.Timeout))
	case errors.As(err, &closed):
		b = append(b, errClosed)
	case errors.As(err, &oom):
		b = le.AppendUint64(append(b, errOOM), oom.Size)
	case errors.As(err, &ex):
		b = appendString(append(b, errExhausted), ex.Resource)
		b = le.AppendUint32(b, uint32(ex.Tid))
		b = le.AppendUint64(b, ex.Size)
	case errors.As(err, &fault):
		b = le.AppendUint64(append(b, errFault), fault.Addr)
		b = append(b, byte(fault.Kind))
	default:
		b = appendString(append(b, errOpaque), err.Error())
	}
	return b
}

// decodeError reads the error encoded at r's cursor.
func decodeError(r *byteReader) error {
	switch r.u8() {
	case errNone:
		return nil
	case errShardDown:
		shard := int(r.u32())
		return &ShardDownError{Shard: shard, Reason: r.str()}
	case errDeadline:
		shard := int(r.u32())
		op := r.str()
		return &DeadlineError{Shard: shard, Op: op, Timeout: time.Duration(r.u64())}
	case errClosed:
		return &ClosedError{}
	case errOOM:
		return &tcmalloc.OutOfMemoryError{Size: r.u64()}
	case errExhausted:
		res := r.str()
		tid := int32(r.u32())
		return &proc.ExhaustedError{Resource: res, Tid: tid, Size: r.u64()}
	case errFault:
		addr := r.u64()
		kind := r.u8()
		if kind > uint8(vmem.FaultFreedRange) {
			r.bad = true
			return nil
		}
		return &vmem.Fault{Addr: addr, Kind: vmem.FaultKind(kind)}
	case errOpaque:
		return &OpaqueError{Msg: r.str()}
	default:
		r.bad = true
		return nil
	}
}

// DecodeResponse parses a response payload, failing closed on any
// malformed field — including trailing bytes, which would mean the stream
// is desynchronized.
func DecodeResponse(b []byte) (Response, error) {
	r := &byteReader{b: b}
	var out Response
	out.ID = r.u64()
	flags := r.u8()
	if flags&^(flagKnown|flagFreed|flagUAF|flagDegraded) != 0 {
		return Response{}, &FrameError{Reason: "unknown verdict flags"}
	}
	out.Known = flags&flagKnown != 0
	out.Freed = flags&flagFreed != 0
	out.UAF = flags&flagUAF != 0
	out.Degraded = flags&flagDegraded != 0
	out.Err = decodeError(r)
	statsLen := int(r.u32())
	if statsLen > MaxFramePayload {
		return Response{}, &FrameError{Reason: "stats blob length exceeds frame cap"}
	}
	if s := r.take(statsLen); s != nil && statsLen > 0 {
		out.StatsJSON = append([]byte(nil), s...)
	}
	if r.bad {
		return Response{}, &FrameError{Reason: "malformed response payload"}
	}
	if r.off != len(b) {
		return Response{}, &FrameError{Reason: fmt.Sprintf("%d trailing bytes after response", len(b)-r.off)}
	}
	return out, nil
}

// EncodeStats marshals a WireStats blob for a stats response.
func EncodeStats(ws WireStats) ([]byte, error) { return json.Marshal(ws) }

// DecodeStats unmarshals a stats blob; a malformed blob is a typed frame
// error (the checksum passed, so this is a peer bug, not line noise — but
// the contract is the same: fail closed).
func DecodeStats(b []byte) (WireStats, error) {
	var ws WireStats
	if err := json.Unmarshal(b, &ws); err != nil {
		return WireStats{}, &FrameError{Reason: "malformed stats blob: " + err.Error()}
	}
	return ws, nil
}
