package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"

	"dangsan/internal/detectors"
	"dangsan/internal/proc"
	"dangsan/internal/service"
	"dangsan/internal/workloads"
)

// Input generation. Everything here is a pure function of the seed and the
// size scale: the program under test only ever receives generated inputs.

// rng is a splitmix64 stream private to the generator.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Service op kinds.
const (
	opAlloc uint8 = iota
	opFree
	opCheck
)

var opKindNames = [...]string{"alloc", "free", "check"}

// svcOp is one client operation, kept compact because the long streams hold
// millions of them. scriptOp gives the service.ScriptOp form.
type svcOp struct {
	Kind   uint8
	Stores uint16
	Size   uint16
	Key    uint32
}

func clientTenant(client int) string { return "c" + strconv.Itoa(client) }

func (o svcOp) scriptOp(client int) service.ScriptOp {
	return service.ScriptOp{
		Kind:   opKindNames[o.Kind],
		Tenant: clientTenant(client),
		Key:    uint64(o.Key),
		Size:   uint64(o.Size),
		Stores: int(o.Stores),
	}
}

// genClientStream builds client's deterministic op stream of length n. A
// shorter stream is a prefix of a longer one. Keys are never reused; the
// live set is capped; one key in svcHeavyEvery gets svcHeavyStores stores;
// probes of freed keys come from the last svcProbeWindow freed keys only,
// so the worker's freed window still remembers them.
func genClientStream(seed int64, client, n int) []svcOp {
	r := newRNG(seed, uint64(client)+1)
	ops := make([]svcOp, 0, n)
	live := make([]uint32, 0, svcLiveCap)
	freed := make([]uint32, 0, svcProbeWindow)
	freedPos := 0
	var nextKey uint32
	freeOne := func() {
		i := r.intn(len(live))
		k := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if len(freed) < svcProbeWindow {
			freed = append(freed, k)
		} else {
			freed[freedPos] = k
			freedPos = (freedPos + 1) % svcProbeWindow
		}
		ops = append(ops, svcOp{Kind: opFree, Key: k})
	}
	for len(ops) < n {
		switch p := r.intn(100); {
		case p < 45 || len(live) == 0:
			if len(live) >= svcLiveCap {
				freeOne()
				continue
			}
			nextKey++
			stores := 4 + r.intn(12)
			if nextKey%svcHeavyEvery == 0 {
				stores = svcHeavyStores
			}
			live = append(live, nextKey)
			ops = append(ops, svcOp{Kind: opAlloc, Key: nextKey, Size: uint16(64 + r.intn(1984)), Stores: uint16(stores)})
		case p < 62:
			freeOne()
		case p < 88 || len(freed) == 0:
			ops = append(ops, svcOp{Kind: opCheck, Key: live[r.intn(len(live))]})
		default:
			ops = append(ops, svcOp{Kind: opCheck, Key: freed[r.intn(len(freed))]})
		}
	}
	return ops
}

// genServiceStreams builds one stream per client for a total of ops
// operations.
func genServiceStreams(seed int64, ops int) [][]svcOp {
	per := ops / svcClients
	if per < 1 {
		per = 1
	}
	streams := make([][]svcOp, svcClients)
	for c := range streams {
		streams[c] = genClientStream(seed, c, per)
	}
	return streams
}

// streamDigest is the FNV-1a digest of the ScriptOp form of the streams.
func streamDigest(streams [][]svcOp, perClient int) string {
	h := fnv.New64a()
	var buf [24]byte
	for c, s := range streams {
		if perClient < len(s) {
			s = s[:perClient]
		}
		tenant := []byte(clientTenant(c))
		for _, o := range s {
			so := o.scriptOp(c)
			_, _ = h.Write([]byte(so.Kind))
			_, _ = h.Write(tenant)
			binary.LittleEndian.PutUint64(buf[0:], so.Key)
			binary.LittleEndian.PutUint64(buf[8:], so.Size)
			binary.LittleEndian.PutUint64(buf[16:], uint64(so.Stores))
			_, _ = h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// scaleSPEC multiplies a profile's counts. The live window only shrinks
// (small scales), never grows: it is the working-set size, a property of
// the program, not of the run length.
func scaleSPEC(p workloads.SPECProfile, m float64) workloads.SPECProfile {
	p.Objects = atLeast(int(float64(p.Objects)*m), 16)
	p.TotalStores = atLeast(int(float64(p.TotalStores)*m), 8)
	p.ComputeOps = atLeast(int(float64(p.ComputeOps)*m), 8)
	if m < 1 {
		p.LiveWindow = atLeast(int(float64(p.LiveWindow)*m), 8)
	}
	return p
}

func scaleParallel(p workloads.ParallelProfile, m float64) workloads.ParallelProfile {
	p.TotalObjects = atLeast(int(float64(p.TotalObjects)*m), 64)
	p.TotalStores = atLeast(int(float64(p.TotalStores)*m), 64)
	p.TotalCompute = atLeast(int(float64(p.TotalCompute)*m), 64)
	if m < 1 {
		p.LiveWindowPerThread = atLeast(int(float64(p.LiveWindowPerThread)*m), 8)
	}
	return p
}

func atLeast(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// detectorInput is one profile of a detector workload, ready to run on a
// fresh process.
type detectorInput struct {
	Name string
	Run  func(p *proc.Process) error
}

// genDetectorInputs resolves a detector workload's profiles at count
// multiplier m. Profile i runs with seed+i so profiles do not share a
// random stream.
func genDetectorInputs(w workloadSpec, seed int64, m float64) ([]detectorInput, error) {
	var in []detectorInput
	for i, name := range w.SPEC {
		prof, err := workloads.SPECProfileByName(name)
		if err != nil {
			return nil, err
		}
		prof = scaleSPEC(prof, m)
		s := seed + int64(i)
		in = append(in, detectorInput{Name: name, Run: func(p *proc.Process) error {
			return workloads.RunSPEC(p, prof, s)
		}})
	}
	for i, name := range w.Parallel {
		prof, err := workloads.ParallelProfileByName(name)
		if err != nil {
			return nil, err
		}
		prof = scaleParallel(prof, m)
		s := seed + int64(i)
		threads := w.Threads
		in = append(in, detectorInput{Name: name, Run: func(p *proc.Process) error {
			return workloads.RunParallel(p, prof, threads, s)
		}})
	}
	return in, nil
}

// Fingerprints. Each is taken on a fixed-size probe of the generator, not
// on the scaled input, so one committed value guards every scale.
const (
	fingerprintProbeMul = 0.25  // detector probes run at a quarter of the profile counts
	fingerprintProbeOps = 50000 // service probes digest this many ops per client
)

var eventKindNames = map[uint8]string{
	proc.TraceThreadStart: "thread_start",
	proc.TraceThreadExit:  "thread_exit",
	proc.TraceGlobal:      "global",
	proc.TraceMalloc:      "malloc",
	proc.TraceFree:        "free",
	proc.TraceRealloc:     "realloc",
	proc.TraceAlloca:      "alloca",
	proc.TraceStackMark:   "stack_mark",
	proc.TraceFreeStack:   "free_stack",
	proc.TraceStorePtr:    "store_ptr",
	proc.TraceStoreInt:    "store_int",
	proc.TraceMemcpy:      "memcpy",
}

// fingerprint is the address-independent identity of one workload's input.
type fingerprint struct {
	Events         map[string]uint64 `json:"events,omitempty"`
	RequestedBytes uint64            `json:"requested_bytes,omitempty"`
	Digest         string            `json:"digest,omitempty"`
}

func (f fingerprint) equal(g fingerprint) bool { return reflect.DeepEqual(f, g) }

// computeFingerprint regenerates the workload's probe input from seed and
// fingerprints it.
func computeFingerprint(w workloadSpec, seed int64) (fingerprint, error) {
	if w.Kind == kindService {
		streams := make([][]svcOp, svcClients)
		for c := range streams {
			streams[c] = genClientStream(seed, c, fingerprintProbeOps)
		}
		return fingerprint{Digest: streamDigest(streams, fingerprintProbeOps)}, nil
	}
	inputs, err := genDetectorInputs(w, seed, fingerprintProbeMul)
	if err != nil {
		return fingerprint{}, err
	}
	fp := fingerprint{Events: map[string]uint64{}}
	for _, in := range inputs {
		var c eventCounter
		p := proc.New(detectors.None{})
		p.SetTracer(&c)
		if err := in.Run(p); err != nil {
			return fingerprint{}, fmt.Errorf("%s: %w", in.Name, err)
		}
		for kind, n := range c.counts() {
			if n > 0 {
				fp.Events[eventKindNames[uint8(kind)]] += n
			}
		}
		fp.RequestedBytes += c.requested.Load()
	}
	return fp, nil
}

//go:embed corpus/fingerprints.json
var committedFingerprintsJSON []byte

// committedFingerprint returns the committed fingerprint for (seed,
// workload), if the corpus has one; only the default and the held-out seed
// are committed.
func committedFingerprint(seed int64, workload string) (fingerprint, bool, error) {
	var all map[string]map[string]fingerprint
	if err := json.Unmarshal(committedFingerprintsJSON, &all); err != nil {
		return fingerprint{}, false, fmt.Errorf("corpus/fingerprints.json: %w", err)
	}
	fp, ok := all[strconv.FormatInt(seed, 10)][workload]
	return fp, ok, nil
}

// checkFingerprint recomputes the workload's fingerprint and compares it
// with the committed one.
func checkFingerprint(w workloadSpec, seed int64) error {
	got, err := computeFingerprint(w, seed)
	if err != nil {
		return err
	}
	want, ok, err := committedFingerprint(seed, w.Name)
	if err != nil {
		return err
	}
	if ok && !got.equal(want) {
		return fmt.Errorf("workload input changed — needs a benchmark PR (%s seed %d: got %+v, committed %+v)", w.Name, seed, got, want)
	}
	return nil
}
