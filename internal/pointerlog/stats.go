package pointerlog

import "sync/atomic"

// statShardCount is the number of counter shards; a power of two so the
// tid-to-shard map is a mask. 64 shards cover the thread counts of the
// paper's Fig. 10 sweep without collisions.
const statShardCount = 64

// statShard is one cache-line-padded bundle of counters. Counters are
// atomic only so Snapshot can read them concurrently; in steady state
// each shard is written by a single thread (its tid maps here), so the
// update is an uncontended RMW on a line no other thread touches — the
// point of sharding (paper §4.4's no-shared-state argument, applied to
// our own bookkeeping).
//
// Registered is not stored: every Register call ends in exactly one of
// logged, duplicates, or droppedRegs, so Snapshot derives it as their sum.
type statShard struct {
	objectsTracked   atomic.Uint64
	logged           atomic.Uint64
	duplicates       atomic.Uint64
	compressed       atomic.Uint64
	hashTables       atomic.Uint64
	invalidated      atomic.Uint64
	stale            atomic.Uint64
	faulted          atomic.Uint64
	logBytes         atomic.Uint64
	logBytesReleased atomic.Uint64
	logBytesSpilled  atomic.Uint64
	spills           atomic.Uint64
	spillFailures    atomic.Uint64
	coldReadErrs     atomic.Uint64
	degradedObjects  atomic.Uint64
	droppedRegs      atomic.Uint64
	_                [128 - 16*8]byte // pad to two cache lines (adjacent-line prefetch)
}

// Stats mirrors the per-benchmark statistics of the paper's Table 1 plus
// the memory accounting needed for the overhead experiments, sharded by
// thread id. All counters are cumulative; updates from any thread are
// safe, and Snapshot lazily aggregates across shards.
type Stats struct {
	shards [statShardCount]statShard
}

// shard returns the counter shard for tid. Negative or colliding tids
// share a shard, which costs contention, never correctness.
func (s *Stats) shard(tid int32) *statShard {
	return &s.shards[uint32(tid)&(statShardCount-1)]
}

// Snapshot is a plain-value copy of Stats for reporting.
//
// LogBytes is cumulative — every byte ever charged to log structures —
// matching the paper's Table 1 memory-overhead accounting. LogBytesReleased
// is the measured footprint of log structures whose object has been
// released, plus the indirect blocks a fold dropped while their object
// lived; LogBytesSpilled is the footprint flushed to the cold tier, and
// LogBytesLive what remains: the log memory actually resident right now.
type Snapshot struct {
	ObjectsTracked   uint64
	Registered       uint64
	Logged           uint64
	Duplicates       uint64
	Compressed       uint64
	HashTables       uint64
	Invalidated      uint64
	Stale            uint64
	Faulted          uint64
	LogBytes         uint64
	LogBytesReleased uint64
	LogBytesLive     uint64
	// LogBytesSpilled is the cumulative resident footprint of hash tables
	// and indirect log blocks flushed to the cold tier: bytes that were
	// charged to LogBytes, left RAM at a spill, and now live on disk in
	// segment form. The
	// cross-tier identity is LogBytes == live + released + spilled.
	LogBytesSpilled uint64
	// Spills counts cold-tier flushes; SpillFailures counts flushes that
	// could not reach disk and fell open (table stayed resident);
	// ColdReadErrors counts segments invalidation could not read back
	// (coverage loss only).
	Spills         uint64
	SpillFailures  uint64
	ColdReadErrors uint64
	// DegradedObjects counts allocations the detector could not track
	// (metadata exhausted, budget hit, or injected failure); their frees
	// skip invalidation, losing coverage but never correctness.
	DegradedObjects uint64
	// DroppedRegistrations counts pointer stores whose log append was
	// abandoned because log-block or hash-table memory was unavailable.
	DroppedRegistrations uint64
}

// Snapshot aggregates the shards into a consistent-enough copy of the
// counters. Totals are exactly the values the unsharded implementation
// would report: addition is commutative, and the derived Registered
// equals the number of Register calls because each call bumps exactly
// one of Logged, Duplicates, or DroppedRegistrations. (Dropped appends
// used to be left out of the sum, so degraded runs under-reported
// Registered by exactly the drop count.)
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	for i := range s.shards {
		sh := &s.shards[i]
		out.ObjectsTracked += sh.objectsTracked.Load()
		out.Logged += sh.logged.Load()
		out.Duplicates += sh.duplicates.Load()
		out.Compressed += sh.compressed.Load()
		out.HashTables += sh.hashTables.Load()
		out.Invalidated += sh.invalidated.Load()
		out.Stale += sh.stale.Load()
		out.Faulted += sh.faulted.Load()
		out.LogBytes += sh.logBytes.Load()
		out.LogBytesReleased += sh.logBytesReleased.Load()
		out.LogBytesSpilled += sh.logBytesSpilled.Load()
		out.Spills += sh.spills.Load()
		out.SpillFailures += sh.spillFailures.Load()
		out.ColdReadErrors += sh.coldReadErrs.Load()
		out.DegradedObjects += sh.degradedObjects.Load()
		out.DroppedRegistrations += sh.droppedRegs.Load()
	}
	out.Registered = out.Logged + out.Duplicates + out.DroppedRegistrations
	if out.LogBytes >= out.LogBytesReleased+out.LogBytesSpilled {
		out.LogBytesLive = out.LogBytes - out.LogBytesReleased - out.LogBytesSpilled
	}
	return out
}

// LogBytesTotal aggregates the log-memory counter alone, for the
// detector's MetadataBytes sampling path.
func (s *Stats) LogBytesTotal() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].logBytes.Load()
	}
	return n
}

// ReleasedLogBytesTotal aggregates the released-log-memory counter alone,
// for the audit identity LogBytesTotal == live + released + spilled.
func (s *Stats) ReleasedLogBytesTotal() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].logBytesReleased.Load()
	}
	return n
}

// SpilledLogBytesTotal aggregates the cold-tier counter alone: the
// spilled term of the cross-tier audit identity.
func (s *Stats) SpilledLogBytesTotal() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].logBytesSpilled.Load()
	}
	return n
}
