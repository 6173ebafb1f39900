package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/service"
	"dangsan/internal/service/transport"
)

// The traced pass of a service workload. Ops are µs-scale, so every op
// gets its own root span in the client loop (the per-op times runService
// keeps). The legs under it are measured on the same op stream, one layer
// at a time: the codec, a round trip through a benchmark-owned
// transport.Server, and the detector work a worker does for the op.

// auditedOps is the length of the separate short run with Audit on: audit
// re-measures every live log at every free, which makes a free cost
// O(live objects) and would distort every per-op figure of the main run.
const auditedOps = 30000

// echoRoundTrips is the number of transport.Client.Do calls timed against
// the echo server at scale 1.
const echoRoundTrips = 20000

func wireRequest(client int, o svcOp) transport.Request {
	op := transport.OpCheck
	switch o.Kind {
	case opAlloc:
		op = transport.OpAlloc
	case opFree:
		op = transport.OpFree
	}
	return transport.Request{Op: op, Key: uint64(client)<<32 | uint64(o.Key), Size: uint64(o.Size), Stores: uint32(o.Stores)}
}

// legStream is the prefix of the op streams the legs run on, clients
// interleaved, as wire requests.
func legStream(streams [][]svcOp, perClient int) []transport.Request {
	var reqs []transport.Request
	for i := 0; i < perClient; i++ {
		for c, s := range streams {
			if i < len(s) {
				r := wireRequest(c, s[i])
				r.ID = uint64(len(reqs) + 1)
				reqs = append(reqs, r)
			}
		}
	}
	return reqs
}

// batches calls fn on consecutive slices of at most replayWindow requests,
// each one span.
func (t *tracer) batches(name string, n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += replayWindow {
		hi := lo + replayWindow
		if hi > n {
			hi = n
		}
		start := time.Now()
		fn(lo, hi)
		t.add(name, 0, 0, hi-lo, start, time.Now())
	}
}

// traceCodec times the six codec operations of one op on the request
// stream and the matching responses, and counts their allocations.
func traceCodec(tr *tracer, reqs []transport.Request, res *workloadResult) {
	n := len(reqs)
	reqPayloads := make([][]byte, n)
	respPayloads := make([][]byte, n)
	frames := make([][]byte, n)
	resps := make([]transport.Response, n)
	for i, r := range reqs {
		resps[i] = transport.Response{ID: r.ID, Known: r.Op == transport.OpCheck, Freed: i%8 == 0, UAF: i%8 == 0}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.batches("transport.encode_request", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reqPayloads[i] = transport.EncodeRequest(reqs[i])
		}
	})
	tr.batches("transport.append_frame", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			frames[i] = transport.AppendFrame(nil, transport.FrameRequest, reqPayloads[i])
		}
	})
	bad := 0
	tr.batches("transport.read_frame", n, func(lo, hi int) {
		var rd bytes.Reader
		for i := lo; i < hi; i++ {
			rd.Reset(frames[i])
			if _, _, err := transport.ReadFrame(&rd); err != nil {
				bad++
			}
		}
	})
	tr.batches("transport.decode_request", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if got, err := transport.DecodeRequest(reqPayloads[i]); err != nil || got != reqs[i] {
				bad++
			}
		}
	})
	tr.batches("transport.encode_response", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			respPayloads[i] = transport.EncodeResponse(resps[i])
		}
	})
	tr.batches("transport.decode_response", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if got, err := transport.DecodeResponse(respPayloads[i]); err != nil || got.ID != resps[i].ID {
				bad++
			}
		}
	})
	runtime.ReadMemStats(&after)
	res.Attempted += uint64(6 * n)
	if bad > 0 {
		res.fail(fmt.Sprintf("codec: %d round trips did not reproduce their input", bad))
	}
	for _, op := range []string{"encode_request", "decode_request", "encode_response", "decode_response", "append_frame", "read_frame"} {
		res.layer("transport."+op+"_ns", tr.nsPerCall("transport."+op))
	}
	if n > 0 {
		res.layer("transport.codec_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n))
	}
}

// echoAddrEnv, when set, turns this process into the echo server of the
// round-trip leg (see runEchoServerIfSpawned).
const echoAddrEnv = "DANGSAN_BENCHMARK_ECHO_ADDR"

// runEchoServerIfSpawned serves a transport.Server with an echo handler on
// the unix socket named by echoAddrEnv until standard input closes, and
// never returns in that case. The round trip is measured against another
// process because that is where a wire worker lives: most of a unix-socket
// op is the cross-process wake-up, which an in-process echo would skip.
func runEchoServerIfSpawned() {
	addr := os.Getenv(echoAddrEnv)
	if addr == "" {
		return
	}
	l, err := net.Listen("unix", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark echo server:", err)
		os.Exit(2)
	}
	srv := transport.NewServer(l, func(r transport.Request) transport.Response {
		return transport.Response{Known: r.Op == transport.OpCheck}
	})
	go func() { _ = srv.Serve() }()
	fmt.Println("READY")
	_, _ = io.Copy(io.Discard, os.Stdin)
	srv.Close()
	os.Exit(0)
}

// traceEcho times transport.Client.Do against a transport.Server owned by
// the benchmark, with an echo handler on a unix socket in a process of its
// own: the wire path with no worker behind it. It returns the mean round
// trip in µs.
func traceEcho(tr *tracer, reqs []transport.Request, workDir string, trips int, res *workloadResult) (meanUS float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	addr := filepath.Join(workDir, "echo.sock")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), echoAddrEnv+"="+addr)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	client := transport.NewClient("unix", addr, 0)
	defer func() {
		client.Close()
		stdin.Close()
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("echo server: %w", werr)
		}
		os.Remove(addr)
	}()
	if line, rerr := bufio.NewReader(stdout).ReadString('\n'); rerr != nil || strings.TrimSpace(line) != "READY" {
		return 0, fmt.Errorf("echo server did not come up: %q %v", line, rerr)
	}
	if _, err := client.Do(reqs[0], time.Second); err != nil { // dial outside the timed part
		return 0, err
	}
	us := make([]float64, 0, trips)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		req := reqs[i%len(reqs)]
		start := time.Now()
		resp, derr := client.Do(req, 250*time.Millisecond)
		end := time.Now()
		if derr != nil || resp.Err != nil || resp.Known != (req.Op == transport.OpCheck) {
			res.fail(fmt.Sprintf("echo round trip %d: resp %+v err %v", i, resp, derr))
			break
		}
		tr.add("transport.client_do", 0, 0, 1, start, end)
		us = append(us, float64(end.Sub(start).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&after)
	res.Attempted += uint64(trips)
	if len(us) == 0 {
		return 0, nil
	}
	meanUS = sum(us) / float64(len(us))
	sort.Float64s(us)
	res.layer("transport.client_do_us_p50", percentileSorted(us, 50))
	res.layer("transport.client_do_us_p99", percentileSorted(us, 99))
	res.layer("transport.client_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(len(us)))
	return meanUS, nil
}

// equivWorker does what a shard worker does for an op — malloc, anchor
// store, scattered stores, free, deref through the anchor — directly on a
// process under a worker-configured dangsan, with no queue, coordinator or
// transport around it.
type equivWorker struct {
	p   *proc.Process
	det *dangsan.Detector
	th  *proc.Thread

	scratch    uint64
	recs       map[uint64]*equivRec
	freed      []uint64
	anchorFree []uint64
}

type equivRec struct {
	anchor, base uint64
	freed        bool
}

const equivScratchSlots = 2048 // service.Config.ScratchSlots default

func newEquivWorker(coldDir string) *equivWorker {
	cfg := pointerlog.DefaultConfig()
	cfg.ColdSpillBytes = pointerlog.MinColdSpillBytes
	cfg.ColdDir = coldDir
	det := dangsan.NewWithOptions(dangsan.Options{Config: cfg})
	p := proc.New(det)
	return &equivWorker{p: p, det: det, th: p.NewThread(), scratch: p.AllocGlobal(equivScratchSlots * 8), recs: map[uint64]*equivRec{}}
}

func (w *equivWorker) handle(r transport.Request) error {
	switch r.Op {
	case transport.OpAlloc:
		base, err := w.th.Malloc(r.Size)
		if err != nil {
			return err
		}
		var anchor uint64
		if n := len(w.anchorFree); n > 0 {
			anchor, w.anchorFree = w.anchorFree[n-1], w.anchorFree[:n-1]
		} else {
			anchor = w.p.AllocGlobal(8)
		}
		if f := w.th.StorePtr(anchor, base); f != nil {
			return f
		}
		for i := uint64(0); i < uint64(r.Stores); i++ {
			slot := w.scratch + (r.Key*2654435761+i*97)%equivScratchSlots*8
			if f := w.th.StorePtr(slot, base+(i*8)%r.Size); f != nil {
				return f
			}
		}
		w.recs[r.Key] = &equivRec{anchor: anchor, base: base}
	case transport.OpFree:
		rec := w.recs[r.Key]
		if rec == nil || rec.freed {
			return nil
		}
		if err := w.th.Free(rec.base); err != nil {
			return err
		}
		rec.freed = true
		w.freed = append(w.freed, r.Key)
		if len(w.freed) > svcFreedWindow {
			old := w.freed[0]
			w.freed = w.freed[1:]
			w.anchorFree = append(w.anchorFree, w.recs[old].anchor)
			delete(w.recs, old)
		}
	case transport.OpCheck:
		rec := w.recs[r.Key]
		if rec == nil {
			return fmt.Errorf("check of unknown key %d", r.Key)
		}
		if _, fault := w.th.Deref(rec.anchor); (fault != nil) != rec.freed {
			return fmt.Errorf("check key %d: freed=%v fault=%v", r.Key, rec.freed, fault)
		}
	}
	return nil
}

// traceWorkerEquiv runs the leg stream through one equivWorker per shard
// and returns the mean µs per op.
func traceWorkerEquiv(tr *tracer, reqs []transport.Request, shardOf []int, coldDir string, res *workloadResult) float64 {
	workers := make([]*equivWorker, svcShards)
	for i := range workers {
		workers[i] = newEquivWorker(coldDir)
		defer workers[i].det.Close()
	}
	bad := 0
	tr.batches("worker.detector_equiv", len(reqs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := workers[shardOf[i]].handle(reqs[i]); err != nil {
				bad++
			}
		}
	})
	res.Attempted += uint64(len(reqs))
	if bad > 0 {
		res.fail(fmt.Sprintf("worker equivalent: %d ops failed or contradicted their key's state", bad))
	}
	return tr.nsPerCall("worker.detector_equiv") / 1e3
}

// traceServiceWorkload is the traced pass of a service workload.
func traceServiceWorkload(tr *tracer, opts runOptions, state *setupState, res *workloadResult) error {
	w := opts.Workload
	failovers := serviceFailovers(opts)
	svc := state.svc

	// Routing of the leg stream and the shard balance of the whole run,
	// read off the service's own hash before the run.
	legPer := parityOps(opts)
	reqs := legStream(state.streams, legPer)
	shardOf := make([]int, 0, len(reqs))
	for i := 0; i < legPer; i++ {
		for c, s := range state.streams {
			if i < len(s) {
				shardOf = append(shardOf, svc.ShardOf(clientTenant(c), uint64(s[i].Key)))
			}
		}
	}
	perShard := make([]float64, svcShards)
	for c, s := range state.streams {
		tenant := clientTenant(c)
		for _, o := range s {
			perShard[svc.ShardOf(tenant, uint64(o.Key))]++
		}
	}

	// The main run: one root span per op, tracing-side cost is the same
	// two clock reads the untraced run makes.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	m := runService(svc, state.streams, failovers, legPer)
	end := time.Now()
	runtime.ReadMemStats(&after)
	tr.add("service.run", 0, 0, int(m.Issued), start, end)
	res.Attempted += m.Issued
	res.Failed += m.Failed
	res.Failures = append(res.Failures, m.Failures...)
	if failovers == 0 && m.Degraded > 0 {
		res.fail(fmt.Sprintf("%d degraded verdicts on a workload without disruptions", m.Degraded))
	}
	svc.Close()
	state.svc = nil

	res.layer("service.do_us_mean", sum(m.LatencyUS)/float64(len(m.LatencyUS)))
	// The legs run on a prefix of the streams; compare them with the mean
	// of the same ops.
	var legNS, legN float64
	for _, lat := range m.ClientLatencyNS {
		if len(lat) > legPer {
			lat = lat[:legPer]
		}
		for _, ns := range lat {
			legNS += float64(ns)
		}
		legN += float64(len(lat))
	}
	doMean := legNS / legN / 1e3
	res.layer("service.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(m.Issued))
	res.layer("service.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(m.Issued))
	res.layer("service.retries", float64(m.Counters.Retries))
	res.layer("service.timeouts", float64(m.Counters.Timeouts))
	res.layer("service.failovers", float64(m.Counters.Failovers))
	res.layer("service.heartbeat_misses", float64(m.Counters.HeartbeatMisses))
	res.layer("service.breaker_trips", float64(m.Counters.BreakerTrips))
	res.layer("service.replayed_objects", float64(m.Counters.ReplayedObjects))
	res.layer("service.recovered_locs", float64(m.Counters.RecoveredLocs))
	_, maxShard := minMax(perShard)
	res.layer("service.shard_imbalance", maxShard/(sum(perShard)/float64(len(perShard))))
	res.layer("client.latency_us_p50", percentileSorted(m.LatencyUS, 50))
	res.layer("client.latency_us_p99", percentileSorted(m.LatencyUS, 99))
	res.layer("client.recovery_ms_p50", median(m.Recoveries))
	res.layer("client.degraded_share", float64(m.Degraded)/float64(m.Issued))
	recordLogStats(res, m.Stats)
	res.layer("trace.root_s", m.RunS)

	// The legs.
	traceCodec(tr, reqs, res)
	trips := atLeast(int(echoRoundTrips*opts.Scale), 500)
	rtUS, err := traceEcho(tr, reqs, state.workDir, trips, res)
	if err != nil {
		return err
	}
	workerUS := traceWorkerEquiv(tr, reqs, shardOf, state.workDir, res)
	res.layer("worker.detector_equiv_us", workerUS)
	if w.Transport == "chan" {
		rtUS = 0 // no wire under this workload: the round trip is not part of an op
	}
	self := doMean - rtUS - workerUS
	res.layer("service.coordinator_self_us", self)
	res.layer("service.transport_share", rtUS/doMean)
	if self < 0 {
		res.layer("trace.min_self_s", self*1e-6*float64(m.Issued))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"mean op over the first %d ops of each client %.3fus = transport round trip %.3f + worker detector work %.3f + coordinator (queue, journal, breaker, per-send goroutine) %.3f",
		legPer, doMean, rtUS, workerUS, self))

	return auditedRun(opts, state, res)
}

// auditedRun drives a short prefix of the streams through a second service
// with Audit on and requires the accounting identity to hold on every
// shard.
func auditedRun(opts runOptions, state *setupState, res *workloadResult) error {
	per := auditedOps / svcClients
	streams := make([][]svcOp, len(state.streams))
	for c, s := range state.streams {
		if len(s) > per {
			s = s[:per]
		}
		streams[c] = s
	}
	dir := filepath.Join(state.workDir, "audited")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svc, err := service.New(serviceConfig(opts.Workload, opts.Seed, dir, true))
	if err != nil {
		return err
	}
	defer svc.Close()
	m := runService(svc, streams, 0, 0)
	res.Attempted += m.Issued
	res.Failed += m.Failed
	res.Failures = append(res.Failures, m.Failures...)
	for shard := 0; shard < svc.Shards(); shard++ {
		_, _, audit, err := svc.DetectorStats(shard)
		if err != nil {
			res.fail(fmt.Sprintf("audited run: shard %d stats: %v", shard, err))
		}
		for _, v := range audit {
			res.fail(fmt.Sprintf("audited run: shard %d: %s", shard, v))
		}
	}
	return nil
}
