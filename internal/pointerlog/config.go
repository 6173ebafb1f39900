// Package pointerlog implements DangSan's pointer logger: per-thread,
// lock-free, append-only logs of the memory locations that hold pointers
// into each heap object, plus the invalidation pass that runs at free time.
//
// The design follows the paper's log-structured-file-system insight (§4.4):
// pointer tracking is extremely write-heavy (every pointer-typed store) and
// read-rare (only free reads the log), and it needs no consistency between
// threads because every logged location is re-verified at free time — a
// location that no longer holds a pointer into the object is simply skipped
// as stale. Each object therefore keeps a singly linked list of per-thread
// logs; a thread appends to its own log without synchronization, and only
// list insertion uses compare-and-swap.
//
// Three mechanisms bound log growth (paper §4.4 and §6):
//
//   - a fixed lookback over the most recent entries suppresses tight
//     duplicate cycles (e.g. loop iterator slots);
//   - pointer compression packs up to three locations that differ only in
//     their least significant byte into one 8-byte entry;
//   - a hash-table fallback replaces the log once it exceeds a threshold,
//     bounding memory on pathological duplicate patterns the lookback
//     cannot catch.
package pointerlog

// DefaultLookback is the paper's chosen lookback window: "we have chosen to
// use a lookback size of four" — performance is flat between one and four
// and degrades beyond.
const DefaultLookback = 4

// DefaultMaxLogEntries is the log size (embedded + indirect blocks, counted
// in 8-byte entries) beyond which an object's per-thread log switches to the
// hash-table fallback.
const DefaultMaxLogEntries = 128

// MaxLookback bounds the configurable lookback window at one block's
// entries (15): the window reads the log's own newest entries, at most one
// full block plus the entries filled after it.
const MaxLookback = blockEntries

// MinColdSpillBytes floors the configurable spill threshold: below one
// initial table (locSetInitial slots) the hot tier could never hold even a
// freshly swapped-in table, and every grow would spill.
const MinColdSpillBytes = locSetInitial * 8 * 2

// Config carries the tunables that the paper's design discussion and our
// ablation benchmarks vary. The zero value is not valid; use
// DefaultConfig().
type Config struct {
	// Lookback is the number of the thread log's newest entries checked
	// for duplicates before appending (0 disables the lookback; at most
	// MaxLookback).
	Lookback int
	// MaxLogEntries is the per-thread log length that triggers the
	// hash-table fallback.
	MaxLogEntries int
	// Compression enables packing up to three nearby locations into one
	// log entry.
	Compression bool
	// Audit enables the accounting cross-check: at every release the
	// object's walked log footprint must equal what its thread logs were
	// charged, and on demand (AuditCheck) a walk of every live object must
	// close the LogBytes identity exactly. See audit.go for both checks
	// and their caveats.
	Audit bool
	// MaxMetadataBytes caps the logger's metadata footprint (live log
	// structures plus registry slabs). Once MetadataBytes() reaches the
	// cap, CreateMeta returns ErrMetadataExhausted and the detector tracks
	// no further objects until pressure subsides — explicit degraded mode
	// in place of unbounded growth. 0 means unlimited.
	MaxMetadataBytes uint64
	// ColdSpillBytes, when nonzero, arms the tiered log: once a hash-mode
	// location set's table would grow to this many resident bytes, its
	// entries — and, the first time, the linear log's indirect blocks —
	// are flushed as a compressed append-only segment to a per-logger
	// memory-mapped spill file and a fresh (hot) table takes over. Free-time invalidation decodes the segments in place; a spill
	// that cannot reach the file fails open (the table stays resident).
	// Values below MinColdSpillBytes are raised to it. 0 keeps every
	// location set fully resident (the pre-tiering behaviour).
	ColdSpillBytes uint64
	// ColdDir is the file system the spill file's blocks come from
	// (os.CreateTemp semantics: "" means the system temp dir). The file is
	// unlinked as soon as it is created, so nothing is ever visible there;
	// its blocks are freed when the logger closes or its process dies.
	ColdDir string
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Lookback:      DefaultLookback,
		MaxLogEntries: DefaultMaxLogEntries,
		Compression:   true,
	}
}

func (c Config) validated() Config {
	if c.Lookback < 0 {
		c.Lookback = 0
	}
	if c.Lookback > MaxLookback {
		c.Lookback = MaxLookback
	}
	if c.MaxLogEntries < embedEntries {
		c.MaxLogEntries = embedEntries
	}
	if c.ColdSpillBytes > 0 && c.ColdSpillBytes < MinColdSpillBytes {
		c.ColdSpillBytes = MinColdSpillBytes
	}
	return c
}
