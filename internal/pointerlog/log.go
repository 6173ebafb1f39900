package pointerlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
)

// ErrMetadataExhausted reports that the logger could not allocate per-object
// metadata: the registry is full, Config.MaxMetadataBytes is reached, or a
// fault was injected. Callers (the DangSan detector) route it into degraded
// mode — the object stays usable but untracked — instead of crashing.
var ErrMetadataExhausted = errors.New("pointerlog: metadata exhausted")

const (
	// embedEntries is the number of log entries embedded directly in the
	// ThreadLog, serving the common case of objects with few pointers
	// without a second allocation (paper Fig. 7's static log).
	embedEntries = 12
	// blockEntries is the size of each indirect log block: with its link a
	// logBlock is exactly one 128-B size class, so the charge has no slack.
	blockEntries = 15
	// logBlockBytes is the accounting charge for one logBlock.
	logBlockBytes = blockEntries*8 + 8
	// threadLogBytes is the accounting charge for one ThreadLog: its
	// embedded entries plus a fixed header, at least the struct's size.
	threadLogBytes = embedEntries*8 + 64
)

// logBlock is one chunk of the indirect log. Blocks form a singly linked
// list appended to by the owning thread; the invalidating thread walks it
// concurrently.
type logBlock struct {
	next    atomic.Pointer[logBlock]
	entries [blockEntries]uint64 // atomic access; 0 = unused
}

// ThreadLog holds the pointer locations recorded by one thread for one
// object, in up to three tiers it owns directly: the linear log (embedded
// entries, then indirect blocks), the hash table that replaces it at
// MaxLogEntries, and the segments spilled to the logger's file
// (Config.ColdSpillBytes). Only the owning thread writes it (append-only,
// except for in-place compression of the most recent entry); the freeing
// thread reads it concurrently without synchronization, relying on atomic
// word access and free-time verification instead of locks.
type ThreadLog struct {
	tid   int32
	count int32 // owner-only: entries in the linear log (embed + blocks); 0 once folded
	next  atomic.Pointer[ThreadLog]

	embed  [embedEntries]uint64 // atomic access
	blocks atomic.Pointer[logBlock]
	hash   locSet // nil table while the log is linear
	// segs is the list of this log's spilled segments, newest first; nil
	// until the first spill.
	segs atomic.Pointer[coldSeg]

	// Owner-only state: tail is the block being filled (nil while the
	// embedded entries are) and prev the one before it (nil while tail is
	// the first). count and tail locate the newest entry; the lookback
	// reads back from it through tail and then prev or the embedded
	// entries.
	tail *logBlock
	prev *logBlock

	// charged is the resident bytes charged to LogBytes for this log (see
	// charge), which audit mode holds against a walk of it at its free. It
	// fills half of the 8 B the other fields leave of the 160-B charge.
	charged atomic.Uint32
}

// ObjectMeta is the per-object metadata the shadow map points at: the
// object's extent and the head of its thread-log list.
//
// The extent is stored atomically because metas are recycled: a thread
// holding a stale handle (its object freed and the meta re-issued for a
// new allocation) may read the extent while CreateMeta is overwriting it.
// The value it sees is reconciled by free-time verification either way —
// the atomics only remove the data race, not the (benign) staleness.
type ObjectMeta struct {
	base atomic.Uint64
	size atomic.Uint64

	logs atomic.Pointer[ThreadLog]
}

// Base returns the object's start address.
func (meta *ObjectMeta) Base() uint64 { return meta.base.Load() }

// Size returns the object's usable size in bytes (including DangSan's +1
// allocation pad).
func (meta *ObjectMeta) Size() uint64 { return meta.size.Load() }

// SetSize updates the object's usable size (in-place realloc). The caller
// must bump the logger generation so cached extents are refreshed.
func (meta *ObjectMeta) SetSize(n uint64) { meta.size.Store(n) }

// cacheLine pads the fields every free or malloc writes away from the
// read-mostly fields every pointer store reads, so threads on different
// cores do not pull each other's lines back and forth.
const cacheLine = 64

// Logger owns the pointer-log state for one simulated process.
type Logger struct {
	// Read-mostly, up to cold: set at construction, by InjectFaults and
	// AttachMetrics, or while the registry grows, and read on every store.
	cfg Config

	// Metadata registry. MetaAt (the pointer-store hot path) is lock-free:
	// directories and slabs are published with atomic stores and never
	// move; mu below only guards allocation and the free list (malloc/free
	// frequency, which is orders of magnitude rarer than pointer stores).
	// Slab si hangs off slabs[si/metaDirSize][si%metaDirSize]; both levels
	// are allocated on first use.
	slabs [maxMetaSlabs / metaDirSize]atomic.Pointer[metaDir]
	next  atomic.Uint64
	// slabCount tracks allocated registry slabs for MetadataBytes.
	slabCount atomic.Uint64

	// faults, when set, can fail metadata allocation (CreateMeta), log-block
	// allocation, and hash-table creation/growth. hashGrowOK is the
	// precomputed grow gate handed to locSet.insert so the hot path does not
	// allocate a closure per call. Set both via InjectFaults before the
	// logger sees concurrent traffic.
	faults     atomic.Pointer[faultinject.Plane]
	hashGrowOK func() bool

	// met holds the observability instruments; nil until AttachMetrics,
	// so the metrics-off hot path pays one predicted branch.
	met *loggerMetrics

	// cold is the spill file shared by every thread log that tiers out:
	// set whenever cfg.ColdSpillBytes is, nil otherwise. Its file is
	// created at the first spill.
	cold *coldLog

	_ [cacheLine]byte
	// gen is the cache-invalidation generation for per-thread store fast
	// paths (detectors caching a {meta, ThreadLog} pair): it is bumped
	// whenever object metadata becomes stale — every Invalidate and every
	// in-place realloc — so a cached pair is valid exactly while the
	// generation it was filled under still matches. Every free writes it
	// and every store reads it, so it has a line to itself.
	gen atomic.Uint64
	_   [cacheLine]byte

	// Written by every malloc and free.
	mu   sync.Mutex
	free []uint64
	_    [cacheLine]byte

	// stats is sharded by tid, one padded shard per writer.
	stats Stats

	// auditErrs holds the violations audit mode found (cfg.Audit; guarded
	// by mu).
	auditErrs []string
}

// loggerMetrics bundles the logger's obs instruments.
type loggerMetrics struct {
	registerNs   *obs.Histogram
	invalidateNs *obs.Histogram
	spillNs      *obs.Histogram
}

const metaSlabSize = 1 << 12

// maxMetaSlabs bounds live tracked objects to maxMetaSlabs*metaSlabSize
// (256M), far beyond any workload here.
const maxMetaSlabs = 1 << 16

// metaDirSize is the number of slabs one second-level directory holds.
const metaDirSize = 1 << 8

type (
	metaSlab [metaSlabSize]ObjectMeta
	metaDir  [metaDirSize]atomic.Pointer[metaSlab]
)

// NewLogger creates a Logger with the given configuration.
func NewLogger(cfg Config) *Logger {
	lg := &Logger{cfg: cfg.validated()}
	if lg.cfg.ColdSpillBytes > 0 {
		lg.cold = &coldLog{dir: lg.cfg.ColdDir}
	}
	return lg
}

// AttachMetrics registers the logger's instruments with reg: Register and
// Invalidate latency histograms and gauges over the counters Stats already
// tracks. Call before the logger sees concurrent traffic.
func (lg *Logger) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lg.met = &loggerMetrics{
		registerNs:   reg.Histogram("pointerlog.register_ns"),
		invalidateNs: reg.Histogram("pointerlog.invalidate_ns"),
		// The spill histogram lives in the dangsan namespace: tiering is
		// part of the detector's store/free plane, and the dashboards
		// group it with dangsan.free_ns rather than the logger internals.
		spillNs: reg.Histogram("dangsan.spill_ns"),
	}
	reg.RegisterFunc("pointerlog.log_bytes", func() int64 {
		return int64(lg.stats.LogBytesTotal())
	})
	reg.RegisterFunc("pointerlog.log_bytes_live", func() int64 {
		return int64(lg.stats.Snapshot().LogBytesLive)
	})
	reg.RegisterFunc("pointerlog.objects_tracked", func() int64 {
		return int64(lg.stats.Snapshot().ObjectsTracked)
	})
	reg.RegisterFunc("pointerlog.hash_tables", func() int64 {
		return int64(lg.stats.Snapshot().HashTables)
	})
	reg.RegisterFunc("pointerlog.registered", func() int64 {
		return int64(lg.stats.Snapshot().Registered)
	})
	reg.RegisterFunc("pointerlog.duplicates", func() int64 {
		return int64(lg.stats.Snapshot().Duplicates)
	})
	reg.RegisterFunc("pointerlog.degraded_objects", func() int64 {
		return int64(lg.stats.Snapshot().DegradedObjects)
	})
	reg.RegisterFunc("pointerlog.dropped_registrations", func() int64 {
		return int64(lg.stats.Snapshot().DroppedRegistrations)
	})
	reg.RegisterFunc("pointerlog.metadata_bytes", func() int64 {
		return int64(lg.MetadataBytes())
	})
	reg.RegisterFunc("pointerlog.log_bytes_spilled", func() int64 {
		return int64(lg.stats.SpilledLogBytesTotal())
	})
	reg.RegisterFunc("pointerlog.spills", func() int64 {
		return int64(lg.stats.Snapshot().Spills)
	})
	reg.RegisterFunc("pointerlog.spill_failures", func() int64 {
		return int64(lg.stats.Snapshot().SpillFailures)
	})
	reg.RegisterFunc("pointerlog.cold_read_errors", func() int64 {
		return int64(lg.stats.Snapshot().ColdReadErrors)
	})
	reg.RegisterFunc("pointerlog.cold_segments", func() int64 {
		return lg.ColdLogStats().Segments
	})
	reg.RegisterFunc("pointerlog.cold_bytes_disk", func() int64 {
		return lg.ColdLogStats().DiskBytes
	})
	reg.RegisterFunc("pointerlog.cold_bytes_garbage", func() int64 {
		return lg.ColdLogStats().GarbageBytes
	})
	reg.RegisterFunc("pointerlog.cold_compactions", func() int64 {
		return int64(lg.ColdLogStats().Compactions)
	})
}

// Config returns the logger's configuration.
func (lg *Logger) Config() Config { return lg.cfg }

// Stats returns the logger's counters.
func (lg *Logger) Stats() *Stats { return &lg.stats }

// Gen returns the current fast-path cache generation. A per-thread
// cache of a {meta, ThreadLog} pair filled at generation g may be used
// without re-looking-up the object for as long as Gen() == g.
func (lg *Logger) Gen() uint64 { return lg.gen.Load() }

// BumpGen invalidates every per-thread fast-path cache. Invalidate
// bumps automatically; callers must bump for any other event that makes
// cached object extents stale (e.g. in-place realloc).
func (lg *Logger) BumpGen() { lg.gen.Add(1) }

// metaSlabBytes is the in-memory size of one registry slab, for the
// MetadataBytes budget accounting.
const metaSlabBytes = uint64(unsafe.Sizeof(metaSlab{}))

// InjectFaults attaches a fault-injection plane covering metadata
// allocation (MetaAlloc), indirect log blocks (LogBlockAlloc), and
// hash-table creation and growth (HashGrowAlloc). Must be called before the
// logger sees concurrent traffic; a nil plane disables injection.
func (lg *Logger) InjectFaults(p *faultinject.Plane) {
	lg.faults.Store(p)
	if p == nil {
		lg.hashGrowOK = nil
	} else {
		lg.hashGrowOK = func() bool { return !p.Fail(faultinject.HashGrowAlloc) }
	}
}

// MetadataBytes reports the logger's current metadata footprint: live log
// structures plus registry slabs. This is the quantity bounded by
// Config.MaxMetadataBytes.
func (lg *Logger) MetadataBytes() uint64 {
	n := lg.slabCount.Load() * metaSlabBytes
	total := lg.stats.LogBytesTotal()
	// Spilled bytes left RAM for the cold tier; like released bytes they
	// no longer count against the resident-metadata budget.
	gone := lg.stats.ReleasedLogBytesTotal() + lg.stats.SpilledLogBytesTotal()
	if gone < total {
		n += total - gone
	}
	return n
}

// NoteDegraded records that an allocation entered degraded (untracked)
// mode. The detector calls this when CreateMeta or the shadow map fails.
func (lg *Logger) NoteDegraded(tid int32) {
	lg.stats.shard(tid).degradedObjects.Add(1)
}

// CreateMeta allocates (or recycles) an ObjectMeta for a new object and
// returns it together with the nonzero handle to store in the shadow map.
// It returns ErrMetadataExhausted when the registry is full, the
// MaxMetadataBytes budget is reached, or a fault is injected; the caller
// must leave the object untracked (degraded) rather than abort.
func (lg *Logger) CreateMeta(base, size uint64) (*ObjectMeta, uint64, error) {
	if lg.faults.Load().Fail(faultinject.MetaAlloc) {
		return nil, 0, ErrMetadataExhausted
	}
	if max := lg.cfg.MaxMetadataBytes; max > 0 && lg.MetadataBytes() >= max {
		return nil, 0, ErrMetadataExhausted
	}
	lg.mu.Lock()
	var idx uint64
	if n := len(lg.free); n > 0 {
		idx = lg.free[n-1]
		lg.free = lg.free[:n-1]
	} else {
		idx = lg.next.Load()
		si := idx >> 12
		if si >= maxMetaSlabs {
			lg.mu.Unlock()
			return nil, 0, ErrMetadataExhausted
		}
		dir := lg.slabs[si/metaDirSize].Load()
		if dir == nil {
			dir = new(metaDir)
			lg.slabs[si/metaDirSize].Store(dir)
		}
		if dir[si%metaDirSize].Load() == nil {
			dir[si%metaDirSize].Store(new(metaSlab))
			lg.slabCount.Add(1)
		}
		lg.next.Store(idx + 1)
	}
	m := lg.MetaAt(idx + 1)
	lg.mu.Unlock()
	m.base.Store(base)
	m.size.Store(size)
	m.logs.Store(nil)
	// No tid on the allocation path; spread by handle instead.
	lg.stats.shard(int32(idx)).objectsTracked.Add(1)
	return m, idx + 1, nil
}

// MustCreateMeta is CreateMeta for contexts where exhaustion cannot happen
// (no fault plane, no budget); it panics on error.
func (lg *Logger) MustCreateMeta(base, size uint64) (*ObjectMeta, uint64) {
	m, handle, err := lg.CreateMeta(base, size)
	if err != nil {
		panic(err)
	}
	return m, handle
}

// MetaAt resolves a handle previously returned by CreateMeta (and stored in
// the shadow map) back to its ObjectMeta. Handle 0 returns nil. Lock-free:
// called on every instrumented pointer store.
func (lg *Logger) MetaAt(handle uint64) *ObjectMeta {
	// Handle 0 wraps to the largest index. Below next, the directory and
	// slab were published before next was.
	idx := handle - 1
	if idx >= lg.next.Load() {
		return nil
	}
	return &lg.slabs[idx/(metaSlabSize*metaDirSize)].Load()[idx/metaSlabSize%metaDirSize].Load()[idx%metaSlabSize]
}

// ReleaseMeta recycles the meta behind handle. Call only after Invalidate;
// a racing Register may still append to the dying log list, which is benign
// because every entry is re-verified at the next free of whatever object
// the meta gets recycled for.
//
// The object's log structures die with it: their measured footprint moves
// from the live accounting into LogBytesReleased, which already holds the
// blocks a fold dropped, and the log list is dropped so the memory is
// actually reclaimable. Bytes a racing Register charges after the
// measurement leak from the live gauge until process teardown — the same
// benign race as the append itself. With auditing on, the measured
// footprint must equal what the object's logs were charged.
func (lg *Logger) ReleaseMeta(handle uint64) {
	if handle == 0 {
		return
	}
	if meta := lg.MetaAt(handle); meta != nil {
		// Cold segments die with the object: mark them garbage so the
		// next compaction reclaims their file bytes.
		lg.retireCold(meta)
		fp, charged := meta.logFootprint()
		if fp != 0 {
			lg.stats.shard(int32(handle - 1)).logBytesReleased.Add(fp)
		}
		if lg.cfg.Audit && fp != charged {
			lg.auditFail(fmt.Errorf("pointerlog audit: free of object %#x: walked %d B, its logs were charged %d B",
				meta.Base(), fp, charged))
		}
		meta.logs.Store(nil)
	}
	lg.mu.Lock()
	lg.free = append(lg.free, handle-1)
	lg.mu.Unlock()
}

// logFootprint measures the memory currently held by meta's log
// structures, mirroring exactly what the incremental LogBytes charges
// account for: per thread log its fixed struct cost, indirect blocks, and
// hash table. Spilled segments are on disk, in the spilled term instead,
// and blocks a fold dropped are already in the released term.
// It also sums what the logs were charged, which audit mode requires to
// equal the measurement. Safe for any thread; a racing owner's appends may
// or may not be counted.
func (meta *ObjectMeta) logFootprint() (walked, charged uint64) {
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		charged += uint64(tl.charged.Load())
		walked += threadLogBytes + tl.hash.bytes()
		for b := tl.blocks.Load(); b != nil; b = b.next.Load() {
			walked += logBlockBytes
		}
	}
	return walked, charged
}

// charge adds n resident bytes to tl's own charge and to LogBytes in sh.
// Every structure a thread log allocates is charged through here.
func (tl *ThreadLog) charge(sh *statShard, n uint64) {
	tl.charged.Add(uint32(n))
	sh.logBytes.Add(n)
}

// threadLogFor finds or creates the calling thread's log for meta. New logs
// are pushed onto the list head with compare-and-swap — the only
// synchronization on the entire store fast path, and it runs only the first
// time a thread touches an object (paper §4.4: "modifications to the list
// are rare ... few compare-and-exchange conflicts").
func (lg *Logger) threadLogFor(meta *ObjectMeta, tid int32, sh *statShard) *ThreadLog {
	head := meta.logs.Load()
	for tl := head; tl != nil; tl = tl.next.Load() {
		if tl.tid == tid {
			return tl
		}
	}
	tl := &ThreadLog{tid: tid}
	for {
		tl.next.Store(head)
		if meta.logs.CompareAndSwap(head, tl) {
			// Account only for the log that actually entered the list, so
			// memory-overhead figures don't overcount under contention.
			tl.charge(sh, threadLogBytes)
			return tl
		}
		// Lost the race: another thread inserted. Re-scan in case it was us
		// in a recycled meta... it cannot be (one goroutine per tid), so
		// just retry the push with the new head.
		head = meta.logs.Load()
		for other := head; other != nil; other = other.next.Load() {
			if other.tid == tid {
				return other
			}
		}
	}
}

// Register records that the pointer slot at loc now holds a pointer into
// meta's object. tid identifies the calling thread. This is the paper's
// regptr/logptr path, invoked from every instrumented pointer store. It
// returns the thread log it appended to, which the caller may cache and
// pass to RegisterWith for as long as Gen() is unchanged, skipping the
// log-list walk on subsequent stores into the same object.
func (lg *Logger) Register(meta *ObjectMeta, loc uint64, tid int32) *ThreadLog {
	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}
	sh := lg.stats.shard(tid)
	tl := lg.threadLogFor(meta, tid, sh)
	lg.registerIn(tl, loc, sh)
	if met != nil {
		met.registerNs.Since(tid, start)
	}
	return tl
}

// RegisterWith is the store fast path: Register with the thread-log
// lookup already resolved. tl must be the calling thread's own log, as
// previously returned by Register for the same (object, tid) pair at
// the current generation.
func (lg *Logger) RegisterWith(tl *ThreadLog, loc uint64, tid int32) {
	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}
	lg.registerIn(tl, loc, lg.stats.shard(tid))
	if met != nil {
		met.registerNs.Since(tid, start)
	}
}

func (lg *Logger) registerIn(tl *ThreadLog, loc uint64, sh *statShard) {
	// Hash-table mode: the log overflowed earlier. Checked before the
	// lookback, whose window holds frozen entries the table may lack: until
	// a grow folds the linear log in, a location logged before the switch is
	// logged again in the table. Once a spill or a fold has taken the
	// linear log's blocks there is no newest entry.
	if t := tl.hash.table.Load(); t != nil {
		// Tiering check where a grow is due: a table whose doubling would
		// reach the threshold is spilled as it stands and the location
		// goes into the fresh one — nothing is grown and rehashed only to
		// be thrown away. A failed spill falls through to the grow.
		if max := lg.cfg.ColdSpillBytes; max > 0 && 2*t.bytes() >= max && t.full() {
			lg.spill(tl, t, sh)
		}
		added, grown, dropped := tl.hash.insert(loc, lg.hashGrowOK)
		// A duplicate insert can still grow the table — the load-factor
		// check runs before probing — so growth must be charged before the
		// duplicate return or those bytes vanish from the accounting.
		if grown > 0 {
			tl.charge(sh, grown)
			if tl.count > 0 {
				tl.fold(sh)
			}
		}
		if dropped {
			// Denied grow on a full table: the location goes unlogged.
			// Coverage loss only — a free simply won't invalidate it.
			sh.droppedRegs.Add(1)
			return
		}
		if !added {
			sh.duplicates.Add(1)
			return
		}
		sh.logged.Add(1)
		return
	}

	if tl.count > 0 {
		// Lookback: drop a location one of the newest Lookback entries
		// already holds. The newest is compared first, then the rest of
		// the window in the container being filled; older reads what is
		// left of it from the container before.
		last := tl.newest()
		if n := lg.cfg.Lookback; n > 0 {
			if entryContains(atomic.LoadUint64(last), loc) {
				sh.duplicates.Add(1)
				return
			}
			if n > 1 {
				cur := tl.filling()
				for i := len(cur) - 2; i >= 0 && i >= len(cur)-n; i-- {
					if entryContains(atomic.LoadUint64(&cur[i]), loc) {
						sh.duplicates.Add(1)
						return
					}
				}
				if n > len(cur) && tl.count > embedEntries && tl.older(loc, n-len(cur)) {
					sh.duplicates.Add(1)
					return
				}
			}
		}
		// Compression: fold into the newest entry when possible.
		if lg.cfg.Compression && tryCompress(last, loc) {
			sh.logged.Add(1)
			sh.compressed.Add(1)
			return
		}
	}

	// Switch to the hash table once the log hits the threshold, preventing
	// unbounded growth when duplicates recur with cycles longer than the
	// lookback (paper §4.4).
	if int(tl.count) >= lg.cfg.MaxLogEntries {
		if lg.faults.Load().Fail(faultinject.HashGrowAlloc) {
			sh.droppedRegs.Add(1)
			return
		}
		sh.hashTables.Add(1)
		tl.charge(sh, tl.hash.reset())
		tl.hash.insert(loc, nil)
		sh.logged.Add(1)
		return
	}

	// Append a fresh entry.
	var slot *uint64
	if n := uint(tl.count); n < embedEntries {
		slot = &tl.embed[n]
	} else {
		i := (n - embedEntries) % blockEntries
		if i == 0 {
			if lg.faults.Load().Fail(faultinject.LogBlockAlloc) {
				sh.droppedRegs.Add(1)
				return
			}
			b := new(logBlock)
			tl.charge(sh, logBlockBytes)
			if tl.tail == nil {
				tl.blocks.Store(b)
			} else {
				tl.tail.next.Store(b)
			}
			tl.prev, tl.tail = tl.tail, b
		}
		slot = &tl.tail.entries[i]
	}
	atomic.StoreUint64(slot, loc)
	tl.count++
	sh.logged.Add(1)
}

// fold moves the frozen linear log into tl's just-doubled hash table if
// the table stays under its 7/8 load with it: the linear locations go into
// the table, and only then are the blocks and embedded entries dropped (the
// order spill keeps), so a walk that misses them in the linear log finds
// them in the table. The blocks' bytes leave the log's charge for
// LogBytesReleased; LogBytes does not move. Owner-only, in hash mode.
func (tl *ThreadLog) fold(sh *statShard) {
	t := tl.hash.table.Load()
	// A location the linear log holds twice counts twice: the check errs
	// towards keeping the blocks.
	lacking := 0
	tl.forEachLinear(func(loc uint64) {
		if !tl.hash.contains(loc) {
			lacking++
		}
	})
	if (t.used+lacking)*8 >= len(t.entries)*7 {
		return
	}
	tl.forEachLinear(func(loc uint64) { tl.hash.insert(loc, nil) })
	dropped := tl.dropBlocks()
	for i := range tl.embed {
		atomic.StoreUint64(&tl.embed[i], 0)
	}
	tl.count = 0
	tl.charged.Add(-uint32(dropped))
	sh.logBytesReleased.Add(dropped)
}

// dropBlocks unlinks tl's indirect blocks and returns their bytes. Nothing
// reaches the owner-only tail and prev in hash mode; clearing them lets the
// GC free the blocks. Owner-only.
func (tl *ThreadLog) dropBlocks() (n uint64) {
	for b := tl.blocks.Load(); b != nil; b = b.next.Load() {
		n += logBlockBytes
	}
	tl.blocks.Store(nil)
	tl.tail, tl.prev = nil, nil
	return n
}

// newest returns the owner's most recent entry. The log must hold an
// entry and be in linear mode.
func (tl *ThreadLog) newest() *uint64 {
	i := uint(tl.count) - 1
	if i < embedEntries {
		return &tl.embed[i]
	}
	return &tl.tail.entries[(i-embedEntries)%blockEntries]
}

// filling returns the container being filled — the embedded entries,
// then the tail block — up to and including the newest entry. The log
// must hold an entry and be in linear mode. Owner only.
func (tl *ThreadLog) filling() []uint64 {
	c := uint(tl.count)
	if c <= embedEntries {
		return tl.embed[:c]
	}
	return tl.tail.entries[:(c-embedEntries-1)%blockEntries+1]
}

// older reports whether one of the last n entries of the container
// before the tail block — the previous block, or the embedded entries —
// holds loc. n never exceeds a block (MaxLookback), so the window never
// reaches further back. Owner only, in linear mode past the embedded
// entries.
func (tl *ThreadLog) older(loc uint64, n int) bool {
	es := tl.embed[:]
	if tl.prev != nil {
		es = tl.prev.entries[:]
	}
	for i := len(es) - 1; i >= 0 && i >= len(es)-n; i-- {
		if entryContains(atomic.LoadUint64(&es[i]), loc) {
			return true
		}
	}
	return false
}

// tryCompress attempts to fold loc into the owner's newest entry, *slot.
func tryCompress(slot *uint64, loc uint64) bool {
	e := atomic.LoadUint64(slot)
	if e == 0 {
		return false
	}
	if isCompressed(e) {
		if ne, ok := tryCompressAdd(e, loc); ok {
			atomic.StoreUint64(slot, ne)
			return true
		}
		return false
	}
	// Two raw locations sharing all but the LSB merge into one compressed
	// entry. A location with LSB 0 must occupy the first slot.
	if e>>8 != loc>>8 || e == loc {
		return false
	}
	var ne uint64
	var ok bool
	if loc&0xff == 0 {
		ne, ok = tryCompressAdd(compressOne(loc), e)
	} else {
		ne, ok = tryCompressAdd(compressOne(e), loc)
	}
	if !ok {
		return false
	}
	atomic.StoreUint64(slot, ne)
	return true
}

// forEachLocation visits every location recorded for meta across all
// threads and returns the number of spilled segments it could not read
// (coverage loss, fail-open). Any thread may call it; it tolerates
// concurrent appends, which may or may not be visited, and concurrent
// folds and spills: it reads each log's linear log, then its table, then
// its segments, and a fold fills the grown table before it drops the
// linear log, as a spill publishes its segment before it drops what the
// segment carries, so a later read finds what an earlier one missed.
func (lg *Logger) forEachLocation(meta *ObjectMeta, fn func(loc uint64)) (unread uint64) {
	faults := lg.faults.Load()
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		tl.forEachLinear(fn)
		tl.hash.forEach(fn)
		for seg := tl.segs.Load(); seg != nil; seg = seg.next {
			if lg.cold.forEach(seg, faults, fn) != nil {
				unread++
			}
		}
	}
	return unread
}

// forEachLinear calls fn for every location in tl's linear log: the
// embedded entries, then the indirect blocks. Safe for any thread.
func (tl *ThreadLog) forEachLinear(fn func(loc uint64)) {
	var scratch [3]uint64
	visit := func(e uint64) {
		for _, loc := range decodeEntry(e, scratch[:0]) {
			fn(loc)
		}
	}
	for i := range tl.embed {
		visit(atomic.LoadUint64(&tl.embed[i]))
	}
	for b := tl.blocks.Load(); b != nil; b = b.next.Load() {
		for i := range b.entries {
			visit(atomic.LoadUint64(&b.entries[i]))
		}
	}
}
