package service

import "strconv"

// The deterministic op stream every service client issues: RunLoad's
// clients, the transport-parity test and the benchmark's svc-* workloads
// draw the same ops for the same (seed, client), so a verdict stream is a
// function of the stream, the service config and the interleaving alone.

// ScriptOp is one deterministic operation. Kind is one of "alloc",
// "free", "check".
type ScriptOp struct {
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	Key    uint64 `json:"key,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Stores int    `json:"stores,omitempty"`
}

// The fixed shape of every client's stream.
const (
	streamLiveCap     = 4096 // live keys per client
	streamHeavyEvery  = 16   // 1 key in 16 is heavy
	streamHeavyStores = 300  // enough for hash mode and the cold tier
	streamProbeWindow = 128  // UAF probes come from the last 128 freed keys
)

// Stream is one client's op stream. Keys are minted in order from 1 and
// never reused; the live set is capped; probes of freed keys come from the
// last streamProbeWindow freed keys only, so the shard's freed window still
// remembers them. Each op's draws depend only on the ops before it, so a
// shorter stream is a prefix of a longer one.
type Stream struct {
	rng      jitterRNG
	tenant   string
	live     []uint64
	freed    []uint64 // ring of the last streamProbeWindow freed keys
	freedPos int
	nextKey  uint64
}

// NewStream returns client's stream for seed; its tenant is "c<client>".
func NewStream(seed int64, client int) *Stream {
	s := &Stream{tenant: "c" + strconv.Itoa(client)}
	s.rng.seed(uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9 + 1)
	return s
}

func (s *Stream) intn(n int) int { return int(s.rng.next() % uint64(n)) }

// Next returns the stream's next op.
func (s *Stream) Next() ScriptOp {
	switch p := s.intn(100); {
	case p < 45 || len(s.live) == 0:
		if len(s.live) >= streamLiveCap {
			return s.freeOne()
		}
		s.nextKey++
		stores := 4 + s.intn(12)
		if s.nextKey%streamHeavyEvery == 0 {
			stores = streamHeavyStores
		}
		s.live = append(s.live, s.nextKey)
		return ScriptOp{Kind: "alloc", Tenant: s.tenant, Key: s.nextKey, Size: uint64(64 + s.intn(1984)), Stores: stores}
	case p < 62:
		return s.freeOne()
	case p < 88 || len(s.freed) == 0:
		return ScriptOp{Kind: "check", Tenant: s.tenant, Key: s.live[s.intn(len(s.live))]}
	default:
		return ScriptOp{Kind: "check", Tenant: s.tenant, Key: s.freed[s.intn(len(s.freed))]}
	}
}

func (s *Stream) freeOne() ScriptOp {
	i := s.intn(len(s.live))
	k := s.live[i]
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	if len(s.freed) < streamProbeWindow {
		s.freed = append(s.freed, k)
	} else {
		s.freed[s.freedPos] = k
		s.freedPos = (s.freedPos + 1) % streamProbeWindow
	}
	return ScriptOp{Kind: "free", Tenant: s.tenant, Key: k}
}
