package pointerlog

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dangsan/internal/faultinject"
	"dangsan/internal/frame"
)

// The cold tier. A hash-mode thread log whose table crosses
// Config.ColdSpillBytes has its entries flushed to the logger's spill
// file as one framed segment (segment.go) and its table reset; the first
// spill also carries the log's frozen indirect blocks. So the resident
// footprint of a long-lived, store-heavy object is its fixed per-log
// charge plus one table below the spill threshold, while
// the full location history remains reachable for free-time
// invalidation. The tiering borrows dkdtree's PointLog shape — an
// append-only file log, compacted when the dead fraction dominates — with
// the file mapped shared instead of written through a buffer: a spill
// encodes into the mapping and a cold read decodes out of it, so neither
// makes a system call. The file is unlinked the moment it is created: its
// descriptor and its mapping keep it alive, only this logger ever reads it
// (the paper's log is write-intensive, read-rare and private to its
// process), and no logger leaves one behind — closed, panicked or killed.
//
// Concurrency contract, layer by layer:
//
//   - A ThreadLog's segment list is written by its owning thread (spill);
//     invalidating threads read it through atomics. A spill publishes its
//     segment node BEFORE dropping the blocks and resetting the table, and
//     every walk reads a log's resident tiers before its segments, so a
//     concurrent invalidator sees every location in at least one tier
//     (seeing it in both is the usual benign double visit — the second CAS
//     classifies it stale).
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

// coldMapBytes is the size a spill file is created and mapped at; a full
// one doubles, and none shrinks. At the minimum spill threshold a segment
// is under 1.5 KiB, so the service workloads never grow theirs.
const coldMapBytes = 1 << 20

// errColdIOFault is an injected faultinject.ColdIO failure: a spill or a
// segment read that the fault plane made fail.
var errColdIOFault = errors.New("pointerlog: injected cold I/O fault")

// coldSeg describes one spilled segment, a link in its ThreadLog's
// lock-free (prepend-published) list. length and next are immutable after
// publication; off moves only during compaction (under the coldLog write
// lock); dead flips once, at retirement.
type coldSeg struct {
	off    int64
	length int
	dead   atomic.Bool
	next   *coldSeg
}

// coldLog is the per-logger spill file and segment registry.
type coldLog struct {
	dir string

	mu    sync.RWMutex
	f     *os.File   // unlinked at creation (createSpill)
	data  []byte     // all of f, mapped shared; nil before the first spill and after close
	segs  []*coldSeg // every published segment, live and dead, in offset order
	stage []uint64   // a spill's locations and entries, reused under the write lock

	size     atomic.Int64 // append offset
	garbage  atomic.Int64 // bytes held by dead segments
	liveSegs atomic.Int64
	compacts atomic.Uint64
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
// disk fails here and not as a fault on some later store.
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

// append encodes t's locations, then the entries of blocks and the blocks
// linked after it, as one segment at the append offset of the mapping and
// registers it. Both are staged in c.stage, so a spill allocates nothing
// but its coldSeg. Owner-thread only for t and blocks: every writer of
// their slots is the calling thread, so plain reads see them all.
func (c *coldLog) append(t *locTable, blocks *logBlock, faults *faultinject.Plane) (seg *coldSeg, err error) {
	if faults.Fail(faultinject.ColdIO) {
		return nil, errColdIOFault
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	stage := c.stage[:0]
	for _, e := range t.entries {
		if e != 0 {
			stage = append(stage, e)
		}
	}
	nlocs := len(stage)
	for b := blocks; b != nil; b = b.next.Load() {
		for _, e := range b.entries {
			if e != 0 {
				stage = append(stage, e)
			}
		}
	}
	c.stage = stage
	off := int(c.size.Load())
	if err := c.reserve(off + frame.HeaderBytes + 8*len(stage)); err != nil {
		return nil, err
	}
	defer endMapFault(debug.SetPanicOnFault(true), &err)
	n := len(appendSegment(c.data[off:off], stage[:nlocs], stage[nlocs:]))
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
		return errColdIOFault
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

// compact slides the live segments down over the dead ones, in offset
// order, inside the current mapping; the file keeps its size, and the
// append offset drops to the end of the live set, so the next spills land
// on pages already faulted in. Runs under the write lock, so invalidating
// readers wait rather than read through the move. Its one caller,
// retireCold at metadata release, gates it on overGarbage, so a move
// happens only once dead bytes are at least half the file and its cost
// amortizes over the segments retired since the last one.
//
// A segment's offset follows it as soon as its copy is whole. A fault on
// the mapping part-way returns the error with the segment list and the
// append offset as they were: the segments already moved read from their
// new place, the one whose copy broke from its old one — a file truncated
// under the mapping faults every read there, counted in ColdReadErrors.
func (c *coldLog) compact() (err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		return nil
	}
	defer endMapFault(debug.SetPanicOnFault(true), &err)
	live := make([]*coldSeg, 0, c.liveSegs.Load())
	var off, reclaimed int64
	for _, seg := range c.segs {
		if seg.dead.Load() {
			reclaimed += int64(seg.length)
			continue
		}
		if seg.off != off {
			copy(c.data[off:], c.data[seg.off:seg.off+int64(seg.length)])
			seg.off = off
		}
		off += int64(seg.length)
		live = append(live, seg)
	}
	c.segs = live
	c.size.Store(off)
	// A segment retired during the walk stays listed, and its bytes stay
	// in garbage, until the next compaction.
	c.garbage.Add(-reclaimed)
	c.compacts.Add(1)
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

// spill flushes tl's hash table t — and, the first time, the frozen
// indirect blocks of its linear log — to the cold tier and resets the
// table. The embedded entries stay: they are part of the log's fixed
// charge. Owner-thread only (called from the register path). On any
// failure everything simply stays resident — fail-open.
func (lg *Logger) spill(tl *ThreadLog, t *locTable, sh *statShard) {
	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}

	blocks := tl.blocks.Load()
	seg, err := lg.cold.append(t, blocks, lg.faults.Load())
	if err != nil {
		sh.spillFailures.Add(1)
		return
	}
	// Publish the segment before dropping the blocks and resetting the
	// table: an invalidator racing the spill must find every location in
	// at least one tier.
	seg.next = tl.segs.Load()
	tl.segs.Store(seg)

	// The old table's and the blocks' resident bytes leave RAM for the
	// cold tier: the audit identity tracks them in the spilled term from
	// here on.
	spilled := t.bytes() + tl.dropBlocks()
	tl.charge(sh, tl.hash.reset())
	tl.charged.Add(-uint32(spilled))
	sh.logBytesSpilled.Add(spilled)
	sh.spills.Add(1)
	if met != nil {
		met.spillNs.Since(tl.tid, start)
	}
}

// retireCold marks every cold segment reachable from meta's logs dead, so
// compaction can reclaim their file bytes. Called at metadata release; a
// racing owner appending a fresh segment to a dying log may leak that
// segment as permanently live — the same benign-race leak the in-memory
// accounting documents for late appends.
func (lg *Logger) retireCold(meta *ObjectMeta) {
	c := lg.cold
	if c == nil {
		return
	}
	retired := false
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		for seg := tl.segs.Load(); seg != nil; seg = seg.next {
			c.retire(seg)
			retired = true
		}
	}
	if retired && c.overGarbage() {
		c.compact()
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
	// Compactions is the number of in-place compactions so far.
	Compactions uint64
}

// ColdLogStats reports the cold tier's file-level state.
func (lg *Logger) ColdLogStats() ColdStats {
	c := lg.cold
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
	lg.cold.close()
}
