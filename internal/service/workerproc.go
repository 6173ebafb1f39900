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
// process's JSON spec. The coordinator re-execs the current binary, so
// every binary that embeds the service must call RunWorkerIfSpawned at the
// top of main (and TestMain).
const WorkerSpecEnv = "DANGSAN_WORKER_SPEC"

// workerReady is the handshake line a worker prints on stdout once it is
// listening on the socket path its spec names.
const workerReady = "DANGSAN-WORKER READY"

// Worker process exit codes. Graceful (SIGTERM-initiated) exit is 0.
const (
	workerExitPanic = 3   // the worker died panicking
	workerExitKill  = 137 // kill/killafter disruption (mirrors SIGKILL's shell code)
)

// workerSpec is everything a worker process needs to build its shard: the
// socket path to listen on, and the coordinator's normalized Config with
// ColdDir pointing at this incarnation's own directory. Parent and worker
// are the same binary (a re-exec), so its JSON shape is private to this
// package.
type workerSpec struct {
	Shard       int    `json:"shard"`
	Incarnation int    `json:"incarnation"`
	Addr        string `json:"addr"`
	Config      Config `json:"config"`
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
	os.Exit(runWorkerProcess(spec))
}

// runWorkerProcess runs this process as one shard worker until the worker
// dies or the coordinator signals it, returning the process exit code.
//
// The worker process NEVER unlinks its spill file — not even on graceful
// shutdown. Failover's whole point is reading a dead worker's cold tier
// back from disk; the coordinator owns the per-incarnation cold directory
// and removes it when it closes the endpoint.
func runWorkerProcess(specJSON string) int {
	var spec workerSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-worker: bad spec: %v\n", err)
		return 2
	}
	w, err := newWorker(spec.Shard, spec.Config, new(turnCounters))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-worker: shard %d incarnation %d: %v\n", spec.Shard, spec.Incarnation, err)
		return 2
	}

	l, err := net.Listen("unix", spec.Addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-worker: listen %s: %v\n", spec.Addr, err)
		return 2
	}
	srv := transport.NewServer(l, workerHandler(w))
	deaf := make(chan error, 1)
	go func() { deaf <- srv.Serve() }()

	// Handshake: the coordinator dials only once this line says the socket
	// is listening.
	fmt.Println(workerReady)

	var terming atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigCh
		terming.Store(true)
		w.shutdown()
	}()

	select {
	case <-w.done:
	case err := <-deaf:
		// Serve returns before Close only when the listener is lost for
		// good. A worker nobody can dial again is dead to its supervisor,
		// whatever its open connections and heartbeats say: die, so that it
		// is respawned.
		fmt.Fprintf(os.Stderr, "dangsan-worker: shard %d incarnation %d: accept: %v\n", spec.Shard, spec.Incarnation, err)
		return 2
	}
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

// workerHandler serves a worker process's connections with worker.send. The
// server runs it from per-connection goroutines, but every request takes the
// worker's turn, so the single-threaded audit discipline is untouched.
// Deadlines are client-side (mapped onto socket deadlines), so send gets an
// effectively-infinite budget — a hung worker means an unanswered frame,
// which is exactly the contract.
func workerHandler(w *worker) transport.Handler {
	const serverSendBudget = time.Hour
	return func(req transport.Request) transport.Response {
		resp := w.send(req, serverSendBudget)
		select {
		case <-w.done:
			// The worker died under this request: a crashed process never
			// replies. Park; the exiting process drops the connection.
			select {}
		default:
		}
		return resp
	}
}
