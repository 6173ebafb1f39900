package pointerlog

import (
	"time"

	"dangsan/internal/vmem"
)

// InvalidBit is OR-ed into a pointer value to invalidate it. Setting the
// most significant bit makes the address non-canonical on x86-64 — any
// dereference faults — while keeping the low bits intact so the fault
// address can be related back to the original pointer, pointer differences
// still work, and partial type-unsafe reuse only sees its top byte change
// (paper §4.4's argument for bit-setting over nullification).
const InvalidBit = uint64(1) << 63

// DecodeFault inspects a faulting address: if it is an invalidated pointer
// (InvalidBit set over an otherwise-canonical address), it returns the
// original pointer and true — the debugging affordance the paper's §4.4
// chooses bit-setting for, letting a crash report name the freed object.
func DecodeFault(addr uint64) (orig uint64, invalidated bool) {
	orig = addr &^ InvalidBit
	if addr&InvalidBit != 0 && vmem.Canonical(orig) {
		return orig, true
	}
	return addr, false
}

// Memory is the slice of the simulated address space the invalidator needs:
// checked word reads (which report the simulated SIGSEGV instead of
// crashing) and compare-and-swap.
type Memory interface {
	LoadWord(addr uint64) (uint64, *vmem.Fault)
	CASWord(addr, old, new uint64) (bool, *vmem.Fault)
}

// invalCounts accumulates per-walk counters locally so the walk touches
// shared (sharded) counters O(1) times per free, not once per location.
type invalCounts struct {
	invalidated, stale, faulted uint64
}

func (c *invalCounts) flush(sh *statShard) {
	if c.invalidated != 0 {
		sh.invalidated.Add(c.invalidated)
	}
	if c.stale != 0 {
		sh.stale.Add(c.stale)
	}
	if c.faulted != 0 {
		sh.faulted.Add(c.faulted)
	}
}

// Invalidate implements the paper's invalptrs: walk every location recorded
// for meta's object and overwrite, with compare-and-swap, every value that
// still points into [Base, Base+Size). Stale locations — overwritten since
// being logged, or in memory since returned to the OS — are skipped; that
// deferred reconciliation is what lets Register run without locks.
//
// The walk runs on the freeing thread alone, however large the logs. A
// program store on another thread that races it wins: the lost CAS re-reads
// the new value and classifies it stale, so it is never clobbered.
func (lg *Logger) Invalidate(meta *ObjectMeta, mem Memory) {
	// Any cached {meta, ThreadLog} fast-path pair is stale from here on.
	lg.gen.Add(1)

	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}

	lo := meta.Base()
	hi := lo + meta.Size()
	tid := int32(lo >> 12)
	sh := lg.stats.shard(tid)
	var c invalCounts
	visit := func(loc uint64) { invalidateLocation(loc, lo, hi, mem, &c) }
	if unread := lg.forEachLocation(meta, visit); unread > 0 {
		sh.coldReadErrs.Add(unread)
	}
	c.flush(sh)
	if met != nil {
		met.invalidateNs.Since(tid, start)
	}
}

// invalidateLocation sets InvalidBit in the word at loc while it still
// points into the dead object [lo, hi).
func invalidateLocation(loc, lo, hi uint64, mem Memory, c *invalCounts) {
	for {
		w, fault := mem.LoadWord(loc)
		if fault != nil {
			// The memory holding the pointer was itself freed and returned
			// to the OS; DangSan catches the SIGSEGV and skips the entry.
			c.faulted++
			return
		}
		if w < lo || w >= hi {
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
		// Lost a race with a concurrent store; re-check the fresh value.
	}
}
