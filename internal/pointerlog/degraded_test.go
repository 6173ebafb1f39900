package pointerlog

import (
	"errors"
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
)

// TestCreateMetaMaxMetadataBytes: once the metadata footprint reaches the
// budget, CreateMeta returns ErrMetadataExhausted instead of allocating.
func TestCreateMetaMaxMetadataBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMetadataBytes = 1 // any footprint at all exhausts the budget
	lg := NewLogger(cfg)

	// The first object fits: nothing has been charged yet.
	if _, _, err := lg.CreateMeta(0x1000, 64); err != nil {
		t.Fatalf("first CreateMeta under budget failed: %v", err)
	}
	if lg.MetadataBytes() < metaSlabBytes {
		t.Fatalf("slab not charged: MetadataBytes=%d", lg.MetadataBytes())
	}
	// The second one finds the budget blown.
	_, _, err := lg.CreateMeta(0x2000, 64)
	if !errors.Is(err, ErrMetadataExhausted) {
		t.Fatalf("want ErrMetadataExhausted, got %v", err)
	}

	// The degraded path the detector takes is NoteDegraded; it must land
	// in the snapshot.
	lg.NoteDegraded(0)
	lg.NoteDegraded(1)
	if got := lg.Stats().Snapshot().DegradedObjects; got != 2 {
		t.Fatalf("DegradedObjects=%d want 2", got)
	}
}

// TestCreateMetaUnlimitedByDefault: MaxMetadataBytes 0 never exhausts.
func TestCreateMetaUnlimitedByDefault(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	for i := 0; i < 3*metaSlabSize; i++ { // cross several slab boundaries
		if _, _, err := lg.CreateMeta(uint64(0x1000+i*64), 64); err != nil {
			t.Fatalf("CreateMeta %d: %v", i, err)
		}
	}
	if lg.MetadataBytes() < 3*metaSlabBytes {
		t.Fatalf("expected ≥3 slabs charged, MetadataBytes=%d", lg.MetadataBytes())
	}
}

// TestCreateMetaFaultInjected: the MetaAlloc site converts into the same
// typed error, and the plane counts the injection.
func TestCreateMetaFaultInjected(t *testing.T) {
	plane := faultinject.New(5)
	plane.Enable(faultinject.MetaAlloc, 1.0, -1)
	lg := NewLogger(DefaultConfig())
	lg.InjectFaults(plane)
	_, _, err := lg.CreateMeta(0x1000, 64)
	if !errors.Is(err, ErrMetadataExhausted) {
		t.Fatalf("want ErrMetadataExhausted, got %v", err)
	}
	if plane.Injected(faultinject.MetaAlloc) != 1 {
		t.Fatalf("plane counted %d injections, want 1", plane.Injected(faultinject.MetaAlloc))
	}
}

// TestRegisterDropsOnLogBlockFault: when indirect-block allocation is
// denied, registrations past the embedded entries are dropped and counted —
// and the audit accounting still balances (nothing was charged for them).
func TestRegisterDropsOnLogBlockFault(t *testing.T) {
	plane := faultinject.New(6)
	plane.Enable(faultinject.LogBlockAlloc, 1.0, -1)
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	cfg.Audit = true
	lg := NewLogger(cfg)
	lg.InjectFaults(plane)

	meta, _ := lg.MustCreateMeta(0x10000, 4096)
	for i := 0; i < embedEntries+5; i++ {
		lg.Register(meta, uint64(0x200000+i*4096), 0) // far apart: no compression
	}
	snap := lg.Stats().Snapshot()
	if snap.DroppedRegistrations != 5 {
		t.Fatalf("DroppedRegistrations=%d want 5", snap.DroppedRegistrations)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("accounting drifted under dropped registrations: %v", err)
	}
}

// TestRegisterDropsOnHashSwitchFault: the log-to-hash-table switch draws
// the HashGrowAlloc site; a denied switch drops that registration, and the
// log recovers when the fault clears.
func TestRegisterDropsOnHashSwitchFault(t *testing.T) {
	plane := faultinject.New(7)
	plane.Enable(faultinject.HashGrowAlloc, 1.0, 1) // exactly one denial
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	cfg.MaxLogEntries = embedEntries // switch as soon as the embed array fills
	cfg.Audit = true
	lg := NewLogger(cfg)
	lg.InjectFaults(plane)

	meta, _ := lg.MustCreateMeta(0x10000, 4096)
	for i := 0; i <= embedEntries; i++ {
		lg.Register(meta, uint64(0x200000+i*4096), 0)
	}
	snap := lg.Stats().Snapshot()
	if snap.DroppedRegistrations != 1 {
		t.Fatalf("DroppedRegistrations=%d want 1", snap.DroppedRegistrations)
	}
	if snap.HashTables != 0 {
		t.Fatalf("hash table created despite denied allocation")
	}
	// Budget drained: the next registration succeeds by creating the table.
	lg.Register(meta, 0x900000, 0)
	snap = lg.Stats().Snapshot()
	if snap.HashTables != 1 {
		t.Fatalf("log did not recover after the fault cleared: %+v", snap)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("accounting drifted across the denied switch: %v", err)
	}
}

// TestRegisteredCountsDrops: regression for the degraded-mode accounting
// bug where the derived Registered total omitted dropped registrations —
// every Register call ends in exactly one of logged, duplicate, or dropped,
// so Registered must equal their sum even when the log is shedding load.
// Checked both on the Snapshot and end-to-end through the obs gauge.
func TestRegisteredCountsDrops(t *testing.T) {
	plane := faultinject.New(9)
	plane.Enable(faultinject.LogBlockAlloc, 1.0, -1)
	cfg := DefaultConfig()
	cfg.Lookback = 1
	cfg.Compression = false
	lg := NewLogger(cfg)
	lg.InjectFaults(plane)
	reg := obs.NewRegistry()
	lg.AttachMetrics(reg)

	meta, _ := lg.MustCreateMeta(0x10000, 4096)
	lg.Register(meta, 0x200000, 0)
	lg.Register(meta, 0x200000, 0) // lookback duplicate, while room remains
	for i := 1; i < embedEntries+5; i++ {
		lg.Register(meta, uint64(0x200000+i*4096), 0)
	}
	const calls = embedEntries + 6

	snap := lg.Stats().Snapshot()
	if snap.DroppedRegistrations != 5 || snap.Duplicates != 1 {
		t.Fatalf("fixture drifted: %+v", snap)
	}
	if want := snap.Logged + snap.Duplicates + snap.DroppedRegistrations; snap.Registered != want {
		t.Fatalf("Registered=%d want %d (logged=%d dup=%d dropped=%d)",
			snap.Registered, want, snap.Logged, snap.Duplicates, snap.DroppedRegistrations)
	}
	if snap.Registered != calls {
		t.Fatalf("Registered=%d want %d (one per Register call)", snap.Registered, calls)
	}
	if g := reg.Snapshot().Gauges["pointerlog.registered"]; g != int64(calls) {
		t.Fatalf("gauge pointerlog.registered=%d want %d", g, calls)
	}
}

// TestLocSetFullTableDrop: with growth denied, the table absorbs inserts
// until it is one slot from full, then drops — it must never fill the last
// slot (which would make every miss probe spin forever).
func TestLocSetFullTableDrop(t *testing.T) {
	var s locSet
	s.reset()
	deny := func() bool { return false }
	var added, dropped int
	for i := 1; i <= 4*locSetInitial; i++ {
		a, grown, d := s.insert(uint64(i*8), deny)
		if grown != 0 {
			t.Fatalf("insert %d grew the table despite denial", i)
		}
		if a {
			added++
		}
		if d {
			dropped++
		}
	}
	if added != locSetInitial-1 {
		t.Fatalf("added=%d want %d (one slot must stay empty)", added, locSetInitial-1)
	}
	if dropped != 4*locSetInitial-added {
		t.Fatalf("dropped=%d want %d", dropped, 4*locSetInitial-added)
	}
	// Probes for entries present and absent must both terminate.
	if !s.contains(8) {
		t.Fatal("first inserted location missing")
	}
	if s.contains(uint64(5 * locSetInitial * 8)) {
		t.Fatal("never-inserted location reported present")
	}
	// Re-inserting an existing location on a full table is a duplicate,
	// not a drop.
	a, _, d := s.insert(8, deny)
	if a || d {
		t.Fatalf("duplicate insert on full table: added=%v dropped=%v", a, d)
	}
}

// TestRegisterWithHashDropsWhenFull: end-to-end through the Logger — an
// object in hash mode whose table cannot grow eventually drops instead of
// hanging, and keeps the accounting exact.
func TestRegisterWithHashDropsWhenFull(t *testing.T) {
	plane := faultinject.New(8)
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	cfg.MaxLogEntries = embedEntries
	cfg.Audit = true
	lg := NewLogger(cfg)
	lg.InjectFaults(plane)

	meta, _ := lg.MustCreateMeta(0x10000, 4096)
	// Fill past the switch so the hash table exists (no faults armed yet).
	for i := 0; i <= embedEntries; i++ {
		lg.Register(meta, uint64(0x200000+i*4096), 0)
	}
	if lg.Stats().Snapshot().HashTables != 1 {
		t.Fatal("hash mode not reached")
	}
	// Now deny all growth and hammer distinct locations.
	plane.Enable(faultinject.HashGrowAlloc, 1.0, -1)
	for i := 0; i < 4*locSetInitial; i++ {
		lg.Register(meta, uint64(0x400000+i*4096), 0)
	}
	snap := lg.Stats().Snapshot()
	if snap.DroppedRegistrations == 0 {
		t.Fatal("full table with denied growth never dropped")
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("accounting drifted in degraded hash mode: %v", err)
	}
}
