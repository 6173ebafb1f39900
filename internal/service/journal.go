package service

import "sync"

// journalRec is what the coordinator remembers about one key — enough to
// re-issue the allocation (and, for freed keys, the free) against a fresh
// worker during failover.
type journalRec struct {
	size   uint64
	stores uint32
}

// journal is the coordinator-side per-shard state log. It records only
// CONFIRMED operations — updates happen after a successful worker reply —
// so the journal is always a superset of what any client can know about
// the shard: a mutation the worker applied but whose reply was lost to a
// timeout is absent from the journal AND from the client's view (the
// client saw the same degraded/timeout outcome), so replaying the journal
// never contradicts a client. Freed keys are kept in a bounded FIFO window
// so a rebuilt worker re-invalidates the anchors of recent frees;
// older frees age out (their UAF probes report unknown, a coverage loss,
// never a false verdict).
type journal struct {
	mu     sync.Mutex
	live   map[uint64]journalRec
	freed  map[uint64]journalRec
	window freedWindow
}

func newJournal(window int) *journal {
	return &journal{
		live:   make(map[uint64]journalRec),
		freed:  make(map[uint64]journalRec),
		window: freedWindow{max: window},
	}
}

// freedWindow is the bounded FIFO of recently freed keys that a worker and
// its journal each keep: the worker to answer UAF probes, the journal to
// replay them into a rebuilt worker. The owner keeps the records; the
// window only orders the keys.
type freedWindow struct {
	keys []uint64 // oldest first
	max  int
}

// push appends key and returns the key it evicted past max, if any.
func (f *freedWindow) push(key uint64) (old uint64, evicted bool) {
	f.keys = append(f.keys, key)
	if len(f.keys) <= f.max {
		return 0, false
	}
	old, f.keys = f.keys[0], f.keys[1:]
	return old, true
}

// drop removes key: it was allocated again, so it is no longer freed.
func (f *freedWindow) drop(key uint64) {
	for i, k := range f.keys {
		if k == key {
			f.keys = append(f.keys[:i], f.keys[i+1:]...)
			return
		}
	}
}

func (j *journal) recordAlloc(key, size uint64, stores uint32) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.live[key]; ok {
		return // idempotent replay of an existing allocation
	}
	if _, ok := j.freed[key]; ok {
		// Key reincarnated: the fresh allocation supersedes the freed
		// record (the worker's own freed window did the same).
		delete(j.freed, key)
		j.window.drop(key)
	}
	j.live[key] = journalRec{size: size, stores: stores}
}

func (j *journal) recordFree(key uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.live[key]
	if !ok {
		return
	}
	delete(j.live, key)
	j.freed[key] = rec
	if old, ok := j.window.push(key); ok {
		delete(j.freed, old)
	}
}

// entry is one replayable journal record.
type entry struct {
	key    uint64
	size   uint64
	stores uint32
}

// snapshot returns the live set and the freed window (oldest first) for
// replay. The copies are taken under the lock; replay itself runs against
// a worker no client can reach yet, so the snapshot being slightly stale
// relative to concurrent confirmations is impossible — confirmations
// require worker replies and the old worker is gone.
func (j *journal) snapshot() (live, freed []entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	live = make([]entry, 0, len(j.live))
	for k, r := range j.live {
		live = append(live, entry{key: k, size: r.size, stores: r.stores})
	}
	freed = make([]entry, 0, len(j.window.keys))
	for _, k := range j.window.keys {
		if r, ok := j.freed[k]; ok {
			freed = append(freed, entry{key: k, size: r.size, stores: r.stores})
		}
	}
	return live, freed
}

// counts reports the journal's current size (live keys, freed-window keys).
func (j *journal) counts() (live, freed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.live), len(j.window.keys)
}
