package pointerlog

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// deadRange is one half-open [lo, hi) extent of dying object memory. The
// batch invalidator coalesces the extents of every object in an epoch into
// a sorted, disjoint set so that a single pass over the merged location
// logs can classify any pointer value with one binary search.
type deadRange struct {
	lo, hi uint64
}

// mergeDeadRanges sorts the extents and coalesces overlapping or adjacent
// ones. Quarantined objects cannot overlap while their memory is withheld
// from the allocator, but adjacency is common (neighbouring size-class
// objects dying in the same epoch), and merging adjacent runs shrinks the
// binary-search depth.
func mergeDeadRanges(ranges []deadRange) []deadRange {
	if len(ranges) < 2 {
		return ranges
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].lo < ranges[j].lo })
	out := ranges[:1]
	for _, r := range ranges[1:] {
		if last := &out[len(out)-1]; r.lo <= last.hi {
			if r.hi > last.hi {
				last.hi = r.hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// rangesContain reports whether w falls inside one of the sorted, disjoint
// dead ranges.
func rangesContain(ranges []deadRange, w uint64) bool {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].hi > w })
	return i < len(ranges) && w >= ranges[i].lo
}

// InvalidateMany is the epoch-drain form of Invalidate: one walk over the
// union of the batch's location logs invalidates every pointer into any of
// the dying objects. The win over per-object Invalidate calls is twofold:
// the generation bump (which flushes every thread's store fast-path cache)
// happens once per epoch instead of once per free, and a location that was
// logged against several dying objects — the common case for connection
// slots that cycled through many request buffers — is loaded and classified
// once instead of once per object.
//
// The CAS contract is identical to Invalidate's: racing program stores win,
// the walk re-reads and reclassifies. Counter semantics differ only in
// timing — a location overwritten between the object's free and the epoch
// drain counts as stale here where the inline walk would have counted it
// invalidated.
func (lg *Logger) InvalidateMany(metas []*ObjectMeta, mem Memory) {
	switch len(metas) {
	case 0:
		return
	case 1:
		lg.Invalidate(metas[0], mem)
		return
	}

	lg.gen.Add(1)

	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}

	ranges := make([]deadRange, 0, len(metas))
	est := 0
	for _, meta := range metas {
		base := meta.Base()
		ranges = append(ranges, deadRange{lo: base, hi: base + meta.Size()})
		est += meta.walkEstimate()
	}
	ranges = mergeDeadRanges(ranges)

	tid := int32(ranges[0].lo >> 12)
	sh := lg.stats.shard(tid)

	workers := lg.walkers
	if workers <= 1 || est < lg.parallelMin {
		// Serial drain: dedupe locations across the batch so each unique
		// slot is loaded once no matter how many dying objects logged it.
		var c invalCounts
		seen := make(map[uint64]struct{}, est)
		visit := func(loc uint64) {
			if _, dup := seen[loc]; dup {
				return
			}
			seen[loc] = struct{}{}
			lg.invalidateRanges(loc, ranges, mem, &c)
		}
		for _, meta := range metas {
			meta.ForEachLocation(visit)
			// Cold locations join the same dedup set: a location present
			// in both tiers (re-logged after its spill) is still loaded
			// once per batch.
			lg.forEachColdLocation(meta, sh, visit)
		}
		c.flush(sh)
		if met != nil {
			met.invalidateSerial.Inc(tid)
			met.invalidateUnits.Observe(tid, 1)
			met.invalidateBatch.Observe(tid, uint64(len(metas)))
			met.invalidateNs.Since(tid, start)
		}
		return
	}

	// Parallel drain: gather units across the whole batch and fan out over
	// the bounded pool. No cross-unit dedupe — a location two objects
	// logged is visited twice, but the second visit classifies it as stale
	// (value already has InvalidBit, so it is outside every dead range).
	var units []invalUnit
	for _, meta := range metas {
		units = meta.appendUnits(units)
	}
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c invalCounts
			visit := func(loc uint64) {
				lg.invalidateRanges(loc, ranges, mem, &c)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					break
				}
				lg.walkUnit(&units[i], &c, visit)
			}
			c.flush(lg.stats.shard(int32(w)))
		}(w)
	}
	wg.Wait()
	if met != nil {
		met.invalidateParallel.Inc(tid)
		met.invalidateUnits.Observe(tid, uint64(len(units)))
		met.invalidateBatch.Observe(tid, uint64(len(metas)))
		met.invalidateNs.Since(tid, start)
	}
}

// invalidateRanges is invalidateLocation generalized to a merged dead-range
// set: the single [base, end) comparison becomes a binary search over the
// sorted disjoint extents.
func (lg *Logger) invalidateRanges(loc uint64, ranges []deadRange, mem Memory, c *invalCounts) {
	for {
		w, fault := mem.LoadWord(loc)
		if fault != nil {
			c.faulted++
			return
		}
		if !rangesContain(ranges, w) {
			c.stale++
			return
		}
		ok, fault := mem.CASWord(loc, w, w|InvalidBit)
		if fault != nil {
			c.faulted++
			return
		}
		if ok {
			c.invalidated++
			return
		}
	}
}
