package workloads

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/faultinject"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
)

// TestServerMidRequestOOMDoesNotLeak is the regression test for the
// serverWorker buffer leak: a request whose Nth buffer allocation fails
// must free the N-1 buffers it already allocated before bailing out.
// The heap is sized so one request cannot fit — the worker necessarily
// fails mid-request — and afterwards the allocator must report zero live
// objects (conn and pool are covered by defers; the request buffers only
// by the failRequest path under test).
func TestServerMidRequestOOMDoesNotLeak(t *testing.T) {
	det := dangsan.New()
	p := proc.NewWithOptions(det, proc.Options{HeapBytes: 256 << 10})
	prof := ServerProfile{
		Name:                "leaktest",
		AllocsPerRequest:    64, // 64 × 8 KiB = 512 KiB > the 256 KiB heap
		PtrStoresPerRequest: 4,
		ComputePerRequest:   1,
		BufferMin:           8192,
		BufferMax:           8192,
	}
	err := RunServer(p, prof, 1, 4, 1)
	var oom *tcmalloc.OutOfMemoryError
	if !errors.As(err, &oom) {
		t.Fatalf("expected mid-request OutOfMemoryError, got %v", err)
	}
	if live := p.Allocator().Stats().LiveObjects; live != 0 {
		t.Fatalf("worker leaked %d objects on the mid-request failure path", live)
	}
}

// TestServerSurvivesTransientPressure: with a bounded injection budget the
// allocator failures are transient, and mallocRobust's retry (with
// ReleaseFreeMemory and backoff) must carry every request through — the
// run completes with no error even though failures were injected. The same
// plane denies some of the detector's metadata allocations, and those
// objects go untracked (degraded) instead of failing their mallocs.
func TestServerSurvivesTransientPressure(t *testing.T) {
	plane := faultinject.New(11)
	plane.EnableAll(0.05, 24)
	det := dangsan.NewWithOptions(dangsan.Options{Faults: plane})
	p := proc.NewWithOptions(det, proc.Options{HeapBytes: 8 << 20, Faults: plane})
	prof, err := ServerProfileByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	if err := RunServer(p, prof, 2, 200, 11); err != nil {
		t.Fatalf("server did not survive transient pressure: %v", err)
	}
	if plane.TotalInjected() == 0 {
		t.Fatal("no failures injected; the test exercised nothing")
	}
	if live := p.Allocator().Stats().LiveObjects; live != 0 {
		t.Fatalf("%d objects leaked across the pressured run", live)
	}
	if det.Stats().DegradedObjects == 0 {
		t.Fatal("metadata-site injections produced no degraded objects")
	}
}

// TestServerPersistentOOMGivesUpWithTypedError: when memory pressure is
// NOT transient — every allocator path fails, reclaim buys nothing — the
// retry loop must give up promptly with the typed OutOfMemoryError. The
// loop is bounded by its attempt count alone (mallocRetries), and each
// attempt costs a quiesce, a page release and a sub-millisecond backoff.
func TestServerPersistentOOMGivesUpWithTypedError(t *testing.T) {
	plane := faultinject.New(7)
	plane.EnableAll(1.0, -1) // every injection site, unlimited budget
	det := dangsan.New()
	p := proc.NewWithOptions(det, proc.Options{HeapBytes: 1 << 20, Faults: plane})
	prof, err := ServerProfileByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	runErr := RunServer(p, prof, 2, 50, 7)
	elapsed := time.Since(start)
	var oom *tcmalloc.OutOfMemoryError
	if !errors.As(runErr, &oom) {
		t.Fatalf("persistent OOM surfaced as %v, want typed OutOfMemoryError", runErr)
	}
	// Two workers × one failed allocation each, mallocRetries attempts
	// apiece. Seconds here would mean the loop is spinning.
	if elapsed > 3*time.Second {
		t.Fatalf("worker spent %v in the retry loop under persistent OOM", elapsed)
	}
	if plane.TotalInjected() == 0 {
		t.Fatal("no failures injected; the test exercised nothing")
	}
}

// panicDetector panics inside OnAlloc once a threshold of allocations is
// reached — a stand-in for an unexpected detector bug inside a worker.
// OnAlloc is called concurrently from every server worker, so the counter
// must be atomic.
type panicDetector struct {
	dangsan.Detector
	n       atomic.Int64
	panicAt int64
}

func (d *panicDetector) OnAlloc(base, size, align uint64) {
	if d.n.Add(1) == d.panicAt {
		panic("injected detector panic")
	}
	d.Detector.OnAlloc(base, size, align)
}

// TestServerWorkerPanicRecovered: a panic inside a worker must surface as
// that worker's error — the run terminates instead of crashing the test
// process or hanging the request producer on a full queue.
func TestServerWorkerPanicRecovered(t *testing.T) {
	det := &panicDetector{Detector: *dangsan.New(), panicAt: 40}
	p := proc.New(det)
	prof, err := ServerProfileByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	err = RunServer(p, prof, 2, 500, 3)
	if err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "injected detector panic") {
		t.Fatalf("panic not attributed: %v", err)
	}
}
