package workloads

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
)

// ServerProfile parameterizes a web-server analog for the paper's §8.2:
// worker threads consume requests from a shared queue; each request
// allocates connection state and buffers, links them with pointer stores,
// does protocol work, and tears everything down.
type ServerProfile struct {
	// Name identifies the server.
	Name string
	// AllocsPerRequest is the number of heap objects per request.
	AllocsPerRequest int
	// PtrStoresPerRequest is the pointer-store count per request (linking
	// buffers into the connection structure and request pipeline).
	PtrStoresPerRequest int
	// ComputePerRequest is the non-pointer work per request (parsing,
	// header formatting).
	ComputePerRequest int
	// BufferMin/BufferMax bound buffer sizes.
	BufferMin, BufferMax uint64
	// Pooled reuses request buffers instead of freeing them (Nginx-style
	// pools): fewer frees, so invalidation happens in bursts at pool
	// recycling.
	Pooled bool
	// Scatter spreads pointer stores across a large pipeline arena instead
	// of recycling the same connection fields — Nginx's event pipeline
	// keeps buffer pointers in many distinct structures, which defeats the
	// lookback and makes it the most store-expensive server in the paper.
	Scatter bool
}

// ServerProfiles returns the three server analogs: Apache's worker model
// allocates and links aggressively per request (21% slowdown in the paper),
// Nginx allocates from pools but still propagates many pointers (30%), and
// Cherokee's request path hardly touches pointers at all (≈0%).
func ServerProfiles() []ServerProfile {
	return []ServerProfile{
		{Name: "apache", AllocsPerRequest: 12, PtrStoresPerRequest: 40, ComputePerRequest: 900, BufferMin: 256, BufferMax: 8192},
		{Name: "nginx", AllocsPerRequest: 5, PtrStoresPerRequest: 96, ComputePerRequest: 200, BufferMin: 512, BufferMax: 16384, Pooled: true, Scatter: true},
		{Name: "cherokee", AllocsPerRequest: 2, PtrStoresPerRequest: 2, ComputePerRequest: 600, BufferMin: 256, BufferMax: 4096},
	}
}

// ServerProfileByName resolves a server profile.
func ServerProfileByName(name string) (ServerProfile, error) {
	for _, p := range ServerProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return ServerProfile{}, fmt.Errorf("workloads: unknown server profile %q", name)
}

// RunServer serves the given number of requests with the given worker
// count, returning the first error. The benchmark harness times this call
// to derive requests/second.
func RunServer(p *proc.Process, prof ServerProfile, workers, requests int, seed int64) error {
	queue := make(chan int, 128) // the paper's 128 concurrent connections
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panicking worker must not take the process (or the
			// producer) with it: convert the panic into this worker's
			// error and let the normal drain logic wind the run down.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("server %s: worker %d panic: %v", prof.Name, w, r)
				}
			}()
			errs[w] = serverWorker(p, prof, queue, seed+int64(w)*104729)
		}(w)
	}
	// A worker that hits an error stops draining the queue; once all of
	// them are gone the producer would block forever on a full channel, so
	// it also watches for the pool emptying and stops enqueueing then.
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
produce:
	for r := 0; r < requests; r++ {
		select {
		case queue <- r:
		case <-workersDone:
			break produce
		}
	}
	close(queue)
	<-workersDone
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mallocRetries bounds the per-allocation retry loop under transient
// memory pressure; backoff grows linearly with the attempt number. The
// bound is a count, not a wall-clock deadline: a deadline made a seeded
// run's outcome depend on how long the scheduler kept the worker off a
// CPU. Each round is a quiesce, a page release and a sleep of at most
// mallocRetries × 50µs, so persistent exhaustion still gives up promptly.
const mallocRetries = 4

// mallocRobust is Malloc with bounded retry: on OutOfMemoryError it
// reclaims memory (returning idle pages to the OS), backs off briefly, and
// tries again — a server sheds load under transient pressure instead of
// dying. Non-OOM errors and persistent exhaustion are returned.
func mallocRobust(th *proc.Thread, size uint64) (uint64, error) {
	var err error
	for attempt := 0; attempt < mallocRetries; attempt++ {
		var b uint64
		if b, err = th.Malloc(size); err == nil {
			return b, nil
		}
		var oom *tcmalloc.OutOfMemoryError
		if !errors.As(err, &oom) {
			return 0, err
		}
		th.Process().ReclaimMemory()
		time.Sleep(time.Duration(attempt+1) * 50 * time.Microsecond)
	}
	return 0, err
}

func serverWorker(p *proc.Process, prof ServerProfile, queue <-chan int, seed int64) error {
	th := p.NewThread()
	defer th.Exit()
	rng := rand.New(rand.NewSource(seed))

	// Per-worker connection structure: a heap object whose fields hold
	// pointers to the request's buffers.
	connSlots := 64
	conn, err := mallocRobust(th, uint64(8*connSlots))
	if err != nil {
		return fmt.Errorf("server %s: %w", prof.Name, err)
	}
	defer th.Free(conn)

	// Pool for Pooled profiles.
	var pool []uint64
	defer func() {
		for _, b := range pool {
			th.Free(b)
		}
	}()

	scratch := th.Alloca(8 * 64)

	// Scatter profiles spread stores over a large pipeline arena with a
	// stride that crosses 256-byte blocks, defeating both the lookback and
	// pointer compression.
	const scatterSlots = 4096
	const scatterStride = 264
	var scatterBase uint64
	scatterIdx := 0
	if prof.Scatter {
		scatterBase = th.Alloca(scatterSlots * scatterStride)
	}

	bufs := make([]uint64, 0, prof.AllocsPerRequest)
	// failRequest releases the current request's buffers before bailing
	// out. Without this, a mid-request allocation failure leaked every
	// buffer already allocated for the request (only conn and the pool are
	// covered by defers) — and under memory pressure that is exactly the
	// path that runs.
	failRequest := func(err error) error {
		for _, b := range bufs {
			th.Free(b)
		}
		return err
	}
	for range queue {
		// Allocate (or reuse) the request's buffers.
		bufs = bufs[:0]
		for i := 0; i < prof.AllocsPerRequest; i++ {
			if prof.Pooled && len(pool) > 0 {
				bufs = append(bufs, pool[len(pool)-1])
				pool = pool[:len(pool)-1]
				continue
			}
			size := prof.BufferMin + uint64(rng.Int63n(int64(prof.BufferMax-prof.BufferMin+1)))
			b, err := mallocRobust(th, size)
			if err != nil {
				return failRequest(fmt.Errorf("server %s: %w", prof.Name, err))
			}
			bufs = append(bufs, b)
		}
		// Link buffers into the connection state and pipeline slots.
		for s := 0; s < prof.PtrStoresPerRequest; s++ {
			loc := conn + uint64(s%connSlots)*8
			if prof.Scatter {
				loc = scatterBase + uint64(scatterIdx%scatterSlots)*scatterStride
				scatterIdx++
			}
			val := bufs[s%len(bufs)] + uint64(s%4)*8
			if f := th.StorePtr(loc, val); f != nil {
				return failRequest(fmt.Errorf("server %s: %w", prof.Name, f))
			}
		}
		// Protocol work.
		for c := 0; c < prof.ComputePerRequest; c++ {
			slot := scratch + uint64(c&63)*8
			v, f := th.Load(slot)
			if f != nil {
				return failRequest(fmt.Errorf("server %s: %w", prof.Name, f))
			}
			if f := th.StoreInt(slot, v+1); f != nil {
				return failRequest(fmt.Errorf("server %s: %w", prof.Name, f))
			}
		}
		// Tear down: free or pool the buffers.
		for _, b := range bufs {
			if prof.Pooled && len(pool) < 32 {
				pool = append(pool, b)
				continue
			}
			if err := th.Free(b); err != nil {
				return fmt.Errorf("server %s: %w", prof.Name, err)
			}
		}
	}
	return nil
}
