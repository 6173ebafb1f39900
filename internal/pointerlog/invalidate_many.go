package pointerlog

import "sort"

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
// dead ranges. An inline free's single extent is one compare, not a search.
func rangesContain(ranges []deadRange, w uint64) bool {
	if len(ranges) == 1 {
		return w >= ranges[0].lo && w < ranges[0].hi
	}
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

	ranges := make([]deadRange, 0, len(metas))
	for _, meta := range metas {
		base := meta.Base()
		ranges = append(ranges, deadRange{lo: base, hi: base + meta.Size()})
	}
	// The dedupe set starts at one thread log's inline entries per object,
	// the common size; larger logs grow it. Cold locations join the same
	// set, so a location present in both tiers (re-logged after its spill)
	// is still loaded once per batch.
	seen := make(map[uint64]struct{}, len(metas)*embedEntries)
	lg.walk(metas, mergeDeadRanges(ranges), mem, seen)
}
