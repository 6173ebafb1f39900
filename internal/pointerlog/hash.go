package pointerlog

import "sync/atomic"

// locSet is the hash-table fallback: an open-addressing set of pointer
// locations, held by value in its ThreadLog. Its table is nil while the log
// is linear. It has exactly one writer (the thread that owns the enclosing
// ThreadLog) and potentially concurrent readers (the thread running free).
// Writers publish entries and fresh or grown tables with atomic stores;
// readers that race with a grow may miss entries added concurrently, which
// the design tolerates — a missed location is the same benign race as a
// pointer propagated during free (paper §7).
type locSet struct {
	table atomic.Pointer[locTable]
}

type locTable struct {
	mask    uint64
	entries []uint64 // atomic access; 0 = empty slot
	used    int      // owner-only
}

const locSetInitial = 64 // slots; must be a power of two

// full reports whether the next insert wants the table doubled first: at 7/8
// load, the maximum of Go's runtime maps and of SwissTable. Owner-only.
func (t *locTable) full() bool { return t.used*8 >= len(t.entries)*7 }

// bytes reports the table's memory footprint.
func (t *locTable) bytes() uint64 { return uint64(len(t.entries)) * 8 }

// reset publishes a fresh, empty table of locSetInitial slots — at the
// switch to hash mode and at every spill — and returns its bytes.
// Owner-only.
func (s *locSet) reset() uint64 {
	t := &locTable{mask: locSetInitial - 1, entries: make([]uint64, locSetInitial)}
	s.table.Store(t)
	return t.bytes()
}

// hashLoc mixes a pointer location; Fibonacci hashing on the aligned bits.
func hashLoc(loc uint64) uint64 {
	return (loc >> 3) * 0x9E3779B97F4A7C15
}

// insert adds loc to the set, reporting whether it was newly added and
// by how many bytes the table grew (so the caller charges LogBytes
// without re-measuring the table on every call). Owner-only, in hash
// mode. loc must be nonzero.
//
// growOK, when non-nil, is consulted before the table is doubled; a false
// return denies the grow (fault injection simulating allocation failure).
// A denied grow is survivable — inserts continue into the existing table —
// until the table is nearly full, at which point new locations are dropped
// (reported via dropped) rather than filling the last free slot, which
// would turn every miss probe into an infinite loop.
func (s *locSet) insert(loc uint64, growOK func() bool) (added bool, grown uint64, dropped bool) {
	t := s.table.Load()
	if t.full() {
		if growOK == nil || growOK() {
			old := t.bytes()
			t = s.grow(t)
			grown = t.bytes() - old
		} else if t.used >= len(t.entries)-1 {
			if s.contains(loc) {
				return false, 0, false
			}
			return false, 0, true
		}
	}
	i := hashLoc(loc) & t.mask
	for {
		e := atomic.LoadUint64(&t.entries[i])
		if e == loc {
			return false, grown, false
		}
		if e == 0 {
			atomic.StoreUint64(&t.entries[i], loc)
			t.used++
			return true, grown, false
		}
		i = (i + 1) & t.mask
	}
}

// contains reports whether loc is in the set. Safe for any thread, in hash
// mode.
func (s *locSet) contains(loc uint64) bool {
	t := s.table.Load()
	i := hashLoc(loc) & t.mask
	for {
		e := atomic.LoadUint64(&t.entries[i])
		if e == loc {
			return true
		}
		if e == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table. Owner-only.
func (s *locSet) grow(old *locTable) *locTable {
	t := &locTable{
		mask:    old.mask*2 + 1,
		entries: make([]uint64, len(old.entries)*2),
		used:    old.used,
	}
	for _, e := range old.entries {
		if e == 0 {
			continue
		}
		i := hashLoc(e) & t.mask
		for t.entries[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.entries[i] = e
	}
	s.table.Store(t)
	return t
}

// forEach calls fn for every location in the set; none while the log is
// linear. Safe for any thread; entries inserted concurrently may or may not
// be visited.
func (s *locSet) forEach(fn func(loc uint64)) {
	t := s.table.Load()
	if t == nil {
		return
	}
	for i := range t.entries {
		if e := atomic.LoadUint64(&t.entries[i]); e != 0 {
			fn(e)
		}
	}
}

// len returns the number of entries (owner's view), in hash mode.
func (s *locSet) len() int {
	return s.table.Load().used
}

// bytes reports the memory footprint of the current table: 0 while the log
// is linear.
func (s *locSet) bytes() uint64 {
	if t := s.table.Load(); t != nil {
		return t.bytes()
	}
	return 0
}
