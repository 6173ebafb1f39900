package service

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dangsan/internal/service/transport"
)

// WorkerSpecEnv is the environment variable carrying a spawned worker
// process's JSON WorkerSpec. The coordinator re-execs the current binary
// by default, so every binary that embeds the service must call
// RunWorkerIfSpawned at the top of main (and TestMain).
const WorkerSpecEnv = "DANGSAN_WORKER_SPEC"

// workerReadyPrefix starts the handshake line a worker prints on stdout
// once it is listening; the rest of the line is the dial address (which
// the coordinator cannot predict for tcp port 0).
const workerReadyPrefix = "DANGSAN-WORKER READY "

// Worker process exit codes. Graceful (SIGTERM-initiated) exit is 0.
const (
	workerExitPanic = 3   // the worker died panicking
	workerExitKill  = 137 // kill/killafter disruption (mirrors SIGKILL's shell code)
)

// WorkerSpec is everything a worker process needs to build its shard:
// detector sizing, the fault plane, and where to listen.
type WorkerSpec struct {
	Shard       int    `json:"shard"`
	Incarnation int    `json:"incarnation"`
	Network     string `json:"network"` // "unix" or "tcp"
	Addr        string `json:"addr"`    // socket path, or host:0 for tcp

	HeapBytes        uint64  `json:"heap_bytes,omitempty"`
	Audit            bool    `json:"audit,omitempty"`
	MaxMetadataBytes uint64  `json:"max_metadata_bytes,omitempty"`
	QuarantineBytes  uint64  `json:"quarantine_bytes,omitempty"`
	QuarantineEpoch  int     `json:"quarantine_epoch,omitempty"`
	ColdSpillBytes   uint64  `json:"cold_spill_bytes,omitempty"`
	ColdDir          string  `json:"cold_dir,omitempty"`
	FaultRate        float64 `json:"fault_rate,omitempty"`
	FaultSeed        int64   `json:"fault_seed,omitempty"`
	FaultBudget      int64   `json:"fault_budget,omitempty"`
	SlowDelayNS      int64   `json:"slow_delay_ns,omitempty"`
	FreedWindow      int     `json:"freed_window,omitempty"`
	ScratchSlots     int     `json:"scratch_slots,omitempty"`
}

// config converts the spec into the worker-relevant Config subset.
func (sp WorkerSpec) config() Config {
	return Config{
		HeapBytes:        sp.HeapBytes,
		Audit:            sp.Audit,
		MaxMetadataBytes: sp.MaxMetadataBytes,
		QuarantineBytes:  sp.QuarantineBytes,
		QuarantineEpoch:  sp.QuarantineEpoch,
		ColdSpillBytes:   sp.ColdSpillBytes,
		ColdDir:          sp.ColdDir,
		FaultRate:        sp.FaultRate,
		FaultSeed:        sp.FaultSeed,
		FaultBudget:      sp.FaultBudget,
		SlowDelay:        time.Duration(sp.SlowDelayNS),
		FreedWindow:      sp.FreedWindow,
		ScratchSlots:     sp.ScratchSlots,
	}.normalized()
}

// RunWorkerIfSpawned turns this process into a shard worker when the
// coordinator spawned it (WorkerSpecEnv is set) and never returns in that
// case; otherwise it returns immediately. Call it at the top of main in
// every binary the service may re-exec as a worker.
func RunWorkerIfSpawned() {
	spec := os.Getenv(WorkerSpecEnv)
	if spec == "" {
		return
	}
	os.Exit(RunWorkerProcess(spec))
}

// RunWorkerProcess runs this process as one shard worker until the worker
// dies or the coordinator signals it, returning the process exit code.
//
// The worker process NEVER unlinks its spill file — not even on graceful
// shutdown. Failover's whole point is reading a dead worker's cold tier
// back from disk; the coordinator owns the per-incarnation cold directory
// and removes it when it closes the endpoint.
func RunWorkerProcess(specJSON string) int {
	var spec WorkerSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-worker: bad spec: %v\n", err)
		return 2
	}
	w, err := newWorker(spec.Shard, spec.Incarnation, spec.config(), new(turnCounters))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-worker: shard %d: %v\n", spec.Shard, err)
		return 2
	}

	l, err := net.Listen(spec.Network, spec.Addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-worker: listen %s %s: %v\n", spec.Network, spec.Addr, err)
		return 2
	}
	srv := transport.NewServer(l, workerHandler(w))
	go srv.Serve()

	// Handshake: the coordinator reads this line to learn the bound
	// address before it dials.
	fmt.Printf("%s%s\n", workerReadyPrefix, l.Addr().String())

	var terming atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigCh
		terming.Store(true)
		w.shutdown()
	}()

	<-w.done
	srv.Close()
	switch {
	case terming.Load():
		return 0
	case w.panicked.Load():
		return workerExitPanic
	default:
		// The worker died without being asked: a kill/killafter
		// disruption. Die with the crash code so the coordinator's
		// supervisor sees a dead process, not a graceful exit.
		return workerExitKill
	}
}

// workerHandler adapts the wire vocabulary onto worker.send. The server
// runs it from per-connection goroutines, but every request takes the
// worker's turn, so the single-threaded audit discipline is
// untouched. Deadlines are client-side (mapped onto socket deadlines), so
// send gets an effectively-infinite budget — a hung worker means an
// unanswered frame, which is exactly the contract.
func workerHandler(w *worker) transport.Handler {
	const serverSendBudget = time.Hour
	return func(treq transport.Request) transport.Response {
		if treq.Op == transport.OpDisrupt {
			// Mode changes bypass the turn like the in-process
			// Disrupt path: a bare atomic store, lands even when hung.
			w.mode.Store(int32(wireDisruptMode(treq.Mode)))
			return transport.Response{}
		}
		kind, ok := serviceOp(treq.Op)
		if !ok {
			return transport.Response{Err: &transport.OpaqueError{Msg: fmt.Sprintf("unserviceable op %d", treq.Op)}}
		}
		resp := w.send(request{kind: kind, key: treq.Key, size: treq.Size, stores: int(treq.Stores)}, serverSendBudget)
		select {
		case <-w.done:
			// The worker died under this request: a crashed process never
			// replies. Park; the exiting process drops the connection.
			select {}
		default:
		}
		out := transport.Response{
			Known:    resp.verdict.Known,
			Freed:    resp.verdict.Freed,
			UAF:      resp.verdict.UAF,
			Degraded: resp.verdict.Degraded,
			Err:      resp.err,
		}
		if kind == opStats && resp.err == nil {
			blob, err := transport.EncodeStats(*resp.stats)
			if err != nil {
				out.Err = &transport.OpaqueError{Msg: "stats encode: " + err.Error()}
			} else {
				out.StatsJSON = blob
			}
		}
		return out
	}
}

// serviceOp maps a wire op onto the worker's op vocabulary.
func serviceOp(op transport.Op) (opKind, bool) {
	switch op {
	case transport.OpAlloc:
		return opAlloc, true
	case transport.OpFree:
		return opFree, true
	case transport.OpCheck:
		return opCheck, true
	case transport.OpPing:
		return opPing, true
	case transport.OpStats:
		return opStats, true
	case transport.OpQuiesce:
		return opQuiesce, true
	}
	return 0, false
}

// wireOp is serviceOp's inverse, used by the coordinator side.
func wireOp(k opKind) transport.Op {
	switch k {
	case opAlloc:
		return transport.OpAlloc
	case opFree:
		return transport.OpFree
	case opCheck:
		return transport.OpCheck
	case opPing:
		return transport.OpPing
	case opStats:
		return transport.OpStats
	case opQuiesce:
		return transport.OpQuiesce
	}
	return 0
}

// wireDisruptMode maps a wire disruption code onto the worker mode.
func wireDisruptMode(code uint8) disruptMode {
	switch code {
	case transport.DisruptSlow:
		return disruptSlow
	case transport.DisruptHang:
		return disruptHang
	case transport.DisruptKill:
		return disruptKill
	case transport.DisruptKillAfter:
		return disruptKillAfter
	}
	return disruptNone
}

// wireDisruptCode maps a worker mode onto its wire code. disruptSigKill
// has no wire form — it is a real signal, delivered by the coordinator to
// the process, not a request.
func wireDisruptCode(m disruptMode) (uint8, bool) {
	switch m {
	case disruptNone:
		return transport.DisruptNone, true
	case disruptSlow:
		return transport.DisruptSlow, true
	case disruptHang:
		return transport.DisruptHang, true
	case disruptKill:
		return transport.DisruptKill, true
	case disruptKillAfter:
		return transport.DisruptKillAfter, true
	}
	return 0, false
}
