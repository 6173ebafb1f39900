package service

// Scripted, deterministic load. RunLoad's concurrent clients are the
// right tool for stressing the supervision envelope, but their
// interleaving is nondeterministic — useless for proving two transports
// behave identically. A script is the complement: one client, a fixed op
// sequence, every outcome recorded. Because each worker is
// single-threaded and every mutation arrives in script order, the entire
// verdict stream and the final per-shard detector state are functions of
// (script, config) alone — so running the same script over the channel
// and unix transports must produce byte-identical outcome streams and
// snapshots. The transport-parity conformance suite is built on this.

// ScriptOp is one deterministic operation. Kind is one of "alloc",
// "free", "check".
type ScriptOp struct {
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	Key    uint64 `json:"key,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Stores int    `json:"stores,omitempty"`
}

// ScriptOutcome is one op's observed result: the verdict and the typed
// error's text ("" on success).
type ScriptOutcome struct {
	Verdict Verdict `json:"verdict"`
	Err     string  `json:"err,omitempty"`
}

// BuildScript generates a deterministic alloc/free/check mix from seed: a
// private xorshift stream (never the global RNG) so the same seed always
// yields the same ops. The mix includes heavy keys (hash-mode fan-out past
// the cold spill threshold) and frees with later UAF probes.
func BuildScript(seed uint64, n int) []ScriptOp {
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	ops := make([]ScriptOp, 0, n)
	var nextKey uint64
	var live []uint64
	var freed []uint64
	for len(ops) < n {
		switch r := next() % 100; {
		case r < 45 || len(live) == 0:
			nextKey++
			size := 64 + next()%1984
			stores := 4 + int(next()%12)
			if nextKey%13 == 0 {
				stores = 300 // heavy: hash fallback + cold spill
			}
			live = append(live, nextKey)
			ops = append(ops, ScriptOp{Kind: "alloc", Tenant: "parity", Key: nextKey, Size: size, Stores: stores})
		case r < 62:
			i := int(next() % uint64(len(live)))
			k := live[i]
			live = append(live[:i], live[i+1:]...)
			freed = append(freed, k)
			ops = append(ops, ScriptOp{Kind: "free", Tenant: "parity", Key: k})
		case r < 85:
			i := int(next() % uint64(len(live)))
			ops = append(ops, ScriptOp{Kind: "check", Tenant: "parity", Key: live[i]})
		case len(freed) > 0:
			i := int(next() % uint64(len(freed)))
			ops = append(ops, ScriptOp{Kind: "check", Tenant: "parity", Key: freed[i]})
		}
	}
	return ops
}

// RunScript executes ops sequentially through the public API and returns
// the outcome stream, one entry per op, in order.
func (s *Service) RunScript(ops []ScriptOp) []ScriptOutcome {
	out := make([]ScriptOutcome, 0, len(ops))
	for _, op := range ops {
		var v Verdict
		var err error
		switch op.Kind {
		case "alloc":
			v, err = s.Alloc(op.Tenant, op.Key, op.Size, op.Stores)
		case "free":
			v, err = s.Free(op.Tenant, op.Key)
		case "check":
			v, err = s.Check(op.Tenant, op.Key)
		}
		o := ScriptOutcome{Verdict: v}
		if err != nil {
			o.Err = err.Error()
		}
		out = append(out, o)
	}
	return out
}
