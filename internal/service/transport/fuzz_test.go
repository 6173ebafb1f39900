package transport

import (
	"bytes"
	"testing"
	"time"
)

// FuzzFrameRoundtrip drives arbitrary bytes through the full wire decode
// stack — frame, request, response, stats blob. The contract under fuzz:
//
//   - no input panics or over-reads (ReadFrame, the reader both ends of a
//     connection run, never reads past the declared, capped payload
//     length);
//   - every rejection is an error: a *FrameError from the decoders, the
//     reader's own error for a stream that ends mid-frame;
//   - anything that decodes re-encodes to bytes that decode to the same
//     value (the codec is a bijection on its valid range), so a frame that
//     survives validation cannot silently mutate in flight.
func FuzzFrameRoundtrip(f *testing.F) {
	// Seed with well-formed frames of each flavor plus classic corruptions.
	f.Add(AppendFrame(nil, FrameRequest, EncodeRequest(Request{ID: 1, Op: OpAlloc, Key: 42, Size: 256, Stores: 8})))
	f.Add(AppendFrame(nil, FrameRequest, EncodeRequest(Request{ID: 2, Op: OpDisrupt, Mode: DisruptKillAfter})))
	f.Add(AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: 3, Known: true, Freed: true, UAF: true})))
	f.Add(AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: 4, Err: &DeadlineError{Shard: 1, Op: "check", Timeout: time.Millisecond}})))
	f.Add(AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: 5, Err: &ShardDownError{Shard: 2, Reason: "worker exited"}})))
	stats, _ := EncodeStats(WireStats{Audit: []string{"x"}})
	f.Add(AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: 6, StatsJSON: stats})))
	f.Add([]byte("DSw1 but not really"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	truncated := AppendFrame(nil, FrameRequest, EncodeRequest(Request{Op: OpPing}))
	f.Add(truncated[:len(truncated)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // fail-closed path: typed error, nothing decoded
		}
		// Whatever decoded must re-frame byte-identically.
		reframed := AppendFrame(nil, typ, payload)
		if len(reframed) > len(data) || !bytes.Equal(reframed, data[:len(reframed)]) {
			t.Fatalf("reframe mismatch: %x vs %x", reframed, data)
		}
		switch typ {
		case FrameRequest:
			req, err := DecodeRequest(payload)
			if err != nil {
				return
			}
			b := EncodeRequest(req)
			again, err := DecodeRequest(b)
			if err != nil || again != req {
				t.Fatalf("request roundtrip mismatch: %+v vs %+v (%v)", req, again, err)
			}
		case FrameResponse:
			resp, err := DecodeResponse(payload)
			if err != nil {
				return
			}
			b := EncodeResponse(resp)
			again, err := DecodeResponse(b)
			if err != nil {
				t.Fatalf("re-encoded response rejected: %v", err)
			}
			if again.ID != resp.ID || again.Known != resp.Known || again.Freed != resp.Freed ||
				again.UAF != resp.UAF || again.Degraded != resp.Degraded ||
				!bytes.Equal(again.StatsJSON, resp.StatsJSON) {
				t.Fatalf("response roundtrip mismatch: %+v vs %+v", resp, again)
			}
			if (resp.Err == nil) != (again.Err == nil) {
				t.Fatalf("error presence changed across roundtrip")
			}
			if resp.Err != nil && resp.Err.Error() != again.Err.Error() {
				t.Fatalf("error text changed across roundtrip: %q vs %q", resp.Err, again.Err)
			}
			if len(resp.StatsJSON) > 0 {
				// Stats decoding must also fail closed, never panic.
				_, _ = DecodeStats(resp.StatsJSON)
			}
		}
	})
}
