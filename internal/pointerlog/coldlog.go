package pointerlog

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dangsan/internal/faultinject"
)

// The cold tier. A hash-mode location set that crosses
// Config.ColdSpillBytes has its entries flushed to a per-logger spill
// file as one framed segment (segment.go) and swaps in a fresh — hot —
// table, so the resident footprint of a long-lived, store-heavy object
// stays bounded by the spill threshold while the full location history
// remains reachable for free-time invalidation. The tiering borrows
// dkdtree's PointLog shape — an append-only file log, split (here:
// compaction) when the dead fraction dominates — with the file mapped
// shared instead of written through a buffer: a spill encodes into the
// mapping and a cold read decodes out of it, so neither makes a system
// call. The file is unlinked the moment it is created: its descriptor and
// its mapping keep it alive, only this logger ever reads it (the paper's
// log is write-intensive, read-rare and private to its process), and no
// logger leaves one behind — closed, panicked or killed.
//
// Concurrency contract, layer by layer:
//
//   - coldState is owned by the ThreadLog's owning thread for writes
//     (spill); invalidating threads read the segment list through atomics.
//     A spill publishes its segment node BEFORE swapping in the fresh
//     table, so a concurrent invalidator sees every location in at least
//     one tier (seeing it in both is the usual benign double visit — the
//     second CAS classifies it stale).
//   - coldLog guards the mapping with an RWMutex: segment reads
//     (invalidation) share, appends, growth and compaction exclude. The
//     mapping and the segment offsets move only under the write lock, so
//     both are stable for the duration of a reader's decode.
//   - Failure is open in both directions: a spill that cannot reach the
//     file leaves the table resident (latency + memory cost, no coverage
//     loss); a segment read that fails skips that segment (coverage
//     loss, counted in ColdReadErrors, never a false report). A fault on
//     the mapping — the file truncated under it, an I/O error paging it
//     in — is such a failure, not a crash (endMapFault).

// coldStateBytes is the accounting charge for one coldState. Charged to
// LogBytes when the state is created and released with the rest of the
// log footprint.
const coldStateBytes = 64

// coldMapBytes is the size a spill file is created and mapped at; a full
// one doubles. At the minimum spill threshold a segment is under 400
// bytes, so the service workloads never grow theirs.
const coldMapBytes = 1 << 20

// coldSeg describes one spilled segment, a link in its coldState's
// lock-free (prepend-published) list. length and next are immutable after
// publication; off moves only during compaction (under the coldLog write
// lock); dead flips once, at retirement.
type coldSeg struct {
	off    int64
	length int
	dead   atomic.Bool
	next   *coldSeg
}

// coldState is the per-ThreadLog cold tier: the spilled segments.
type coldState struct {
	segs atomic.Pointer[coldSeg]
}

// publish prepends seg to the segment list. Owner-only (one writer); the
// store publishes the segment to concurrent invalidators.
func (cs *coldState) publish(seg *coldSeg) {
	seg.next = cs.segs.Load()
	cs.segs.Store(seg)
}

// coldLog is the per-logger spill file and segment registry.
type coldLog struct {
	dir string

	mu   sync.RWMutex
	f    *os.File   // unlinked at creation (createSpill)
	data []byte     // all of f, mapped shared; nil before the first spill and after close
	segs []*coldSeg // every published segment, live and dead

	size     atomic.Int64 // append offset
	garbage  atomic.Int64 // bytes held by dead segments
	liveSegs atomic.Int64
	compacts atomic.Uint64
}

// ensureCold returns the logger's cold log, creating it on first use.
func (lg *Logger) ensureCold() *coldLog {
	if c := lg.cold.Load(); c != nil {
		return c
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if c := lg.cold.Load(); c != nil {
		return c
	}
	c := &coldLog{dir: lg.cfg.ColdDir}
	lg.cold.Store(c)
	return c
}

// endMapFault ends an access to a mapped spill file. Deferred with
// debug.SetPanicOnFault(true) as its first argument, it restores that
// setting and turns a fault taken in between into *err. Nothing else under
// it can fault at an address — no other code here holds memory the runtime
// did not hand out — and any other panic continues.
func endMapFault(old bool, err *error) {
	debug.SetPanicOnFault(old)
	if r := recover(); r != nil {
		if _, fault := r.(interface{ Addr() uintptr }); !fault {
			panic(r)
		}
		*err = fmt.Errorf("pointerlog: fault on the mapped spill file: %v", r)
	}
}

// createSpill creates a spill file in dir, unlinked at once: from here on
// f and any mapping of it are the only way to reach its blocks, and the
// kernel frees them when both are gone.
func createSpill(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, "dangsan-coldlog-*.seg")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// mapSpill sizes f to the first doubling of coldMapBytes that holds need
// bytes and maps it. The blocks are allocated, not left sparse, so a full
// disk fails here and not as a fault on some later store; what was never
// written reads as zeros, which is how a reader finds the end of the log.
func mapSpill(f *os.File, need int) ([]byte, error) {
	size := coldMapBytes
	for size < need {
		size *= 2
	}
	for {
		if err := syscall.Fallocate(int(f.Fd()), 0, 0, int64(size)); err == nil {
			break
		} else if err != syscall.EINTR {
			return nil, err
		}
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// reserve makes the mapping at least need bytes long. The file is created
// lazily so a logger that never spills never touches disk. Caller holds
// the write lock.
func (c *coldLog) reserve(need int) error {
	if need <= len(c.data) {
		return nil
	}
	f := c.f
	if f == nil {
		var err error
		if f, err = createSpill(c.dir); err != nil {
			return err
		}
	}
	data, err := mapSpill(f, need)
	if err != nil {
		if c.f == nil {
			f.Close()
		}
		return err
	}
	if c.data != nil {
		syscall.Munmap(c.data)
	}
	c.f, c.data = f, data
	return nil
}

// append encodes locs as one segment at the append offset of the mapping
// and registers it.
func (c *coldLog) append(locs []uint64, faults *faultinject.Plane) (seg *coldSeg, err error) {
	if faults.Fail(faultinject.ColdIO) {
		return nil, errSegTruncated
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	off := int(c.size.Load())
	if err := c.reserve(off + segHeaderBytes + 8*len(locs)); err != nil {
		return nil, err
	}
	defer endMapFault(debug.SetPanicOnFault(true), &err)
	n := len(appendSegment(c.data[off:off], locs))
	seg = &coldSeg{off: int64(off), length: n}
	c.size.Store(int64(off + n))
	c.segs = append(c.segs, seg)
	c.liveSegs.Add(1)
	return seg, nil
}

// forEach streams seg's locations to fn, decoded where they lie in the
// mapping. Shared-locked so that neither compaction nor growth moves the
// bytes mid-decode; fn runs under that lock and must not register.
func (c *coldLog) forEach(seg *coldSeg, faults *faultinject.Plane, fn func(loc uint64)) (err error) {
	if faults.Fail(faultinject.ColdIO) {
		return errSegTruncated
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	end := seg.off + int64(seg.length)
	if end > int64(len(c.data)) {
		return os.ErrClosed
	}
	defer endMapFault(debug.SetPanicOnFault(true), &err)
	return forEachSegmentLocation(c.data[seg.off:end], fn)
}

// retire marks seg dead and accounts its bytes as garbage. Idempotent.
func (c *coldLog) retire(seg *coldSeg) {
	if seg.dead.CompareAndSwap(false, true) {
		c.garbage.Add(int64(seg.length))
		c.liveSegs.Add(-1)
	}
}

// overGarbage reports whether dead bytes dominate the file — the
// compaction trigger. Lock-free so release paths can poll it cheaply.
func (c *coldLog) overGarbage() bool {
	g := c.garbage.Load()
	return g > 0 && g*2 >= c.size.Load()
}

// compact moves the live segments into a fresh spill file, updating
// their offsets in place. Runs under the write lock, so invalidating
// readers wait rather than read through the move. Its one caller,
// retireCold at metadata release, gates it on overGarbage, so a rewrite
// happens only once dead bytes are at least half the file and its cost
// amortizes over the segments retired since the last one.
func (c *coldLog) compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		return nil
	}
	var live []*coldSeg
	need := 0
	for _, seg := range c.segs {
		if !seg.dead.Load() {
			live = append(live, seg)
			need += seg.length
		}
	}
	nf, err := createSpill(c.dir)
	if err != nil {
		return err
	}
	nd, err := mapSpill(nf, need)
	if err == nil {
		if err = c.moveTo(nd, live); err != nil {
			syscall.Munmap(nd)
		}
	}
	if err != nil {
		nf.Close()
		return err
	}
	syscall.Munmap(c.data)
	c.f.Close()
	c.f, c.data, c.segs = nf, nd, live
	c.size.Store(int64(need))
	c.garbage.Store(0)
	c.compacts.Add(1)
	return nil
}

// moveTo copies the live segments to the front of nd and, once all of
// them are there, points them at the copies; a fault part-way leaves every
// offset on the old mapping.
func (c *coldLog) moveTo(nd []byte, live []*coldSeg) (err error) {
	defer endMapFault(debug.SetPanicOnFault(true), &err)
	off := 0
	for _, seg := range live {
		off += copy(nd[off:], c.data[seg.off:seg.off+int64(seg.length)])
	}
	off = 0
	for _, seg := range live {
		seg.off = int64(off)
		off += seg.length
	}
	return nil
}

// close unmaps the spill file and closes its descriptor, which frees its
// blocks. The logger is unusable for cold reads afterwards.
func (c *coldLog) close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data != nil {
		syscall.Munmap(c.data)
		c.f.Close()
		c.f, c.data = nil, nil
	}
}

// spill flushes tl's current hash table to the cold tier and swaps in a
// fresh hot table, reporting whether it did. Owner-thread only (called
// from the register path). On any failure the table simply stays resident
// — fail-open.
func (lg *Logger) spill(tl *ThreadLog, h *locSet, sh *statShard) bool {
	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}

	t := h.table.Load()
	locs := make([]uint64, 0, t.used)
	for _, e := range t.entries {
		// Owner-thread plain read: all writers of these slots are this
		// thread (atomic stores happen-before in program order here).
		if e != 0 {
			locs = append(locs, e)
		}
	}
	if len(locs) == 0 {
		return false
	}
	seg, err := lg.ensureCold().append(locs, lg.faults.Load())
	if err != nil {
		sh.spillFailures.Add(1)
		return false
	}

	cs := tl.cold.Load()
	if cs == nil {
		cs = new(coldState)
		sh.logBytes.Add(coldStateBytes)
		tl.cold.Store(cs)
	}
	// Publish the segment before swapping tables: an invalidator racing
	// the spill must find every location in at least one tier.
	cs.publish(seg)

	fresh := newLocSet()
	sh.logBytes.Add(fresh.bytes())
	tl.hash.Store(fresh)
	// The old table's resident bytes leave RAM for the cold tier: the
	// audit identity tracks them in the spilled term from here on.
	sh.logBytesSpilled.Add(h.bytes())
	sh.spills.Add(1)
	if met != nil {
		met.spillNs.Since(tl.tid, start)
	}
	return true
}

// retireCold marks every cold segment reachable from meta's logs dead, so
// compaction can reclaim their file bytes. Called at metadata release; a
// racing owner appending a fresh segment to a dying log may leak that
// segment as permanently live — the same benign-race leak the in-memory
// accounting documents for late appends.
func (lg *Logger) retireCold(meta *ObjectMeta) {
	c := lg.cold.Load()
	if c == nil {
		return
	}
	retired := false
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		cs := tl.cold.Load()
		if cs == nil {
			continue
		}
		for seg := cs.segs.Load(); seg != nil; seg = seg.next {
			c.retire(seg)
			retired = true
		}
	}
	if retired && c.overGarbage() {
		c.compact()
	}
}

// forEachColdLocation streams every location spilled for meta through fn.
// Unreadable segments are skipped and counted (coverage loss, fail-open).
func (lg *Logger) forEachColdLocation(meta *ObjectMeta, sh *statShard, fn func(loc uint64)) {
	c := lg.cold.Load()
	if c == nil {
		return
	}
	faults := lg.faults.Load()
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		cs := tl.cold.Load()
		if cs == nil {
			continue
		}
		for seg := cs.segs.Load(); seg != nil; seg = seg.next {
			if c.forEach(seg, faults, fn) != nil {
				sh.coldReadErrs.Add(1)
			}
		}
	}
}

// ColdStats is a point-in-time summary of the cold tier.
type ColdStats struct {
	// Segments is the number of live (unretired) segments on disk.
	Segments int64
	// DiskBytes is the spill file's append offset (live + garbage).
	DiskBytes int64
	// GarbageBytes is the portion held by retired segments, reclaimed at
	// the next compaction.
	GarbageBytes int64
	// Compactions is the number of file rewrites so far.
	Compactions uint64
}

// ColdLogStats reports the cold tier's file-level state.
func (lg *Logger) ColdLogStats() ColdStats {
	c := lg.cold.Load()
	if c == nil {
		return ColdStats{}
	}
	return ColdStats{
		Segments:     c.liveSegs.Load(),
		DiskBytes:    c.size.Load(),
		GarbageBytes: c.garbage.Load(),
		Compactions:  c.compacts.Load(),
	}
}

// Close releases the logger's cold-tier file, if any. The logger must be
// quiescent (no in-flight registers or invalidations).
func (lg *Logger) Close() {
	lg.cold.Load().close()
}
