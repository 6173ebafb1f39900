package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dangsan/internal/service/transport"
)

// readyTimeout bounds the spawn handshake: a worker that cannot print
// READY within this is broken, not slow.
const readyTimeout = 10 * time.Second

// wireEndpoint reaches a worker that is its own OS process, over the wire
// codec in service/transport. It owns the process handle: spawn, SIGTERM,
// SIGKILL, reap.
type wireEndpoint struct {
	addr string // the worker's socket path

	cmd    *exec.Cmd
	client *transport.Client

	done     chan struct{}
	exitCode atomic.Int64

	termOnce  sync.Once
	killOnce  sync.Once
	closeOnce sync.Once
}

// replayBudget sizes the per-op deadline for failover replay and other
// coordinator-internal exchanges: generous relative to the request
// timeout, floored so a test-shrunk timeout cannot starve a rebuild.
func replayBudget(reqTimeout time.Duration) time.Duration {
	d := 20 * reqTimeout
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// spawnWireWorker launches one worker process and completes the READY
// handshake. The endpoint serves from the moment this returns; its client
// counts its exchanges into counts, the shard's tally across incarnations.
func spawnWireWorker(cfg Config, shard, incarn int, workDir string, counts *transport.ExchangeCounts) (endpoint, error) {
	// Short name: unix socket paths have a ~108-byte limit and workDir may
	// be deep.
	addr := filepath.Join(workDir, fmt.Sprintf("s%d-i%d.sock", shard, incarn))
	_ = os.Remove(addr)
	spec := workerSpec{Shard: shard, Incarnation: incarn, Addr: addr, Config: cfg}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service: worker spec: %w", err)
	}
	// Re-exec: the embedding binary routes spawned copies of itself into
	// RunWorkerIfSpawned.
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("service: resolve worker binary: %w", err)
	}
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(), WorkerSpecEnv+"="+string(specJSON))
	cmd.Stderr = os.Stderr
	// The worker exits at EOF on its stdin. cmd holds the write end, never
	// written, until Wait, and the kernel closes it if this process dies
	// first: a worker cannot outlive its coordinator.
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("service: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("service: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("service: spawn worker: %w", err)
	}
	ep := &wireEndpoint{addr: addr, cmd: cmd, done: make(chan struct{})}
	ep.exitCode.Store(-1)

	readyCh := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == workerReady {
				close(readyCh)
				break
			}
		}
		// Keep the pipe drained so a chatty worker can never block on a
		// full stdout, then reap.
		_, _ = io.Copy(io.Discard, stdout)
		code := 0
		if werr := cmd.Wait(); werr != nil {
			code = -1
			var ee *exec.ExitError
			if errors.As(werr, &ee) {
				code = ee.ExitCode()
			}
		}
		ep.exitCode.Store(int64(code))
		close(ep.done)
	}()

	select {
	case <-readyCh:
	case <-ep.done:
		_ = os.Remove(addr)
		return nil, &ShardDownError{Shard: shard, Reason: fmt.Sprintf("worker exited before READY (code %d)", ep.exitCode.Load())}
	case <-time.After(readyTimeout):
		ep.kill()
		_ = os.Remove(addr)
		return nil, &ShardDownError{Shard: shard, Reason: "worker READY handshake timed out"}
	}
	ep.client = transport.NewClient("unix", addr, shard)
	ep.client.Counts = counts
	return ep, nil
}

// send is one wire exchange on the caller's goroutine. The client's pool
// gives every exchange a connection of its own, so a request never waits
// behind a hung one and the socket deadline alone bounds it.
func (ep *wireEndpoint) send(req transport.Request, timeout time.Duration) transport.Response {
	resp, err := ep.client.Do(req, timeout)
	if err != nil {
		return transport.Response{Err: err}
	}
	return resp
}

// shutdown asks the worker process to exit gracefully.
func (ep *wireEndpoint) shutdown() {
	ep.termOnce.Do(func() { _ = ep.cmd.Process.Signal(syscall.SIGTERM) })
}

// kill is the real thing: SIGKILL, no cleanup on the worker side — which
// is exactly what failover recovery is tested against.
func (ep *wireEndpoint) kill() {
	ep.killOnce.Do(func() { _ = ep.cmd.Process.Kill() })
}

func (ep *wireEndpoint) doneCh() <-chan struct{} { return ep.done }

func (ep *wireEndpoint) didPanic() bool { return ep.exitCode.Load() == workerExitPanic }

// close tears the endpoint down: the process if it is somehow still
// alive, the client pool and the socket file.
func (ep *wireEndpoint) close() {
	ep.closeOnce.Do(func() {
		select {
		case <-ep.done:
		default:
			ep.kill()
			waitClosed(ep.done, 2*time.Second)
		}
		ep.client.Close()
		_ = os.Remove(ep.addr)
	})
}
