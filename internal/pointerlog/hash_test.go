package pointerlog

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Property: over random location streams with repeats, with grows allowed,
// denied, or denied at random, every insert keeps the set exact. added is
// true only for a location not yet accepted (a dropped location was never
// accepted), contains and forEach agree with the accepted set, bytes() is
// the initial table plus every reported growth, an allowed grow keeps the
// load at or under the bound, and a denied one never fills the last slot.
func TestLocSetQuick(t *testing.T) {
	f := func(seed int64, n, universe uint16, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		locs := make([]uint64, 1+int(universe)%400)
		for i := range locs {
			locs[i] = rng.Uint64()&^7 | 8
		}
		var growOK func() bool
		switch mode % 3 {
		case 1:
			growOK = func() bool { return false }
		case 2:
			growOK = func() bool { return rng.Intn(2) == 0 }
		}
		var s locSet
		s.reset()
		accepted := map[uint64]bool{}
		var grownTotal uint64
		for i := 0; i < int(n)%600; i++ {
			loc := locs[rng.Intn(len(locs))]
			added, grown, dropped := s.insert(loc, growOK)
			grownTotal += grown
			switch {
			case dropped && (added || accepted[loc]):
				t.Logf("insert %d: 0x%x dropped with added=%v accepted=%v", i, loc, added, accepted[loc])
				return false
			case added == accepted[loc] && !dropped:
				t.Logf("insert %d: 0x%x added=%v but accepted=%v", i, loc, added, accepted[loc])
				return false
			}
			if added {
				accepted[loc] = true
			}
			if s.len() != len(accepted) {
				t.Logf("insert %d: len %d, %d accepted", i, s.len(), len(accepted))
				return false
			}
			for a := range accepted {
				if !s.contains(a) {
					t.Logf("insert %d: accepted 0x%x not contained", i, a)
					return false
				}
			}
			visited := 0
			ok := true
			s.forEach(func(l uint64) {
				visited++
				ok = ok && accepted[l]
			})
			if !ok || visited != len(accepted) {
				t.Logf("insert %d: forEach visited %d (all accepted: %v), %d accepted", i, visited, ok, len(accepted))
				return false
			}
			if s.bytes() != locSetInitial*8+grownTotal {
				t.Logf("insert %d: bytes %d, initial %d + grown %d", i, s.bytes(), locSetInitial*8, grownTotal)
				return false
			}
			tb := s.table.Load()
			if growOK == nil && tb.used*8 > len(tb.entries)*7 {
				t.Logf("insert %d: %d of %d slots used with grows allowed", i, tb.used, len(tb.entries))
				return false
			}
			if tb.used >= len(tb.entries) {
				t.Logf("insert %d: every one of %d slots used", i, len(tb.entries))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// An invalidating thread walks a table while its owner inserts and grows
// it, without a lock. Slots never move within a table and a grown table is
// published only once it holds every old entry, so a walk visits every
// location whose insert returned before the walk began.
func TestLocSetWalkDuringGrowth(t *testing.T) {
	const total = 1 << 14 // grows 64 → 32768 slots: nine doublings
	locs := make([]uint64, total)
	index := make(map[uint64]int, total)
	for i := range locs {
		locs[i] = uint64(i+1)*0x1008 + 8
		index[locs[i]] = i
	}
	var s locSet
	s.reset()
	var inserted, walks atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i, loc := range locs {
			_, grown, _ := s.insert(loc, nil)
			inserted.Store(int64(i + 1))
			if grown > 0 {
				// Let a walk start on the freshly grown table before the
				// inserts into it go on.
				for w := walks.Load(); walks.Load() == w; {
					runtime.Gosched()
				}
			}
		}
	}()
	seen := make([]bool, total)
	var missed, overlapped int
	for !stop.Load() {
		before := int(inserted.Load())
		clear(seen)
		s.forEach(func(l uint64) { seen[index[l]] = true })
		if after := int(inserted.Load()); after > before {
			overlapped++
		}
		for i := 0; i < before; i++ {
			if !seen[i] {
				missed++
			}
		}
		walks.Add(1)
	}
	wg.Wait()
	if missed > 0 {
		t.Fatalf("walks missed %d locations inserted before they began", missed)
	}
	if s.len() != total {
		t.Fatalf("len = %d, want %d", s.len(), total)
	}
	t.Logf("%d walks, %d overlapped inserts", walks.Load(), overlapped)
}
