package detectors

import (
	"fmt"
	"sync/atomic"

	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
)

// BudgetOptions configures a detector's fail-open knobs; each backend
// aliases it as its Options.
type BudgetOptions struct {
	// MaxMetadataBytes caps the detector's metadata footprint (a shadow table
	// excluded; its allocations fail through the plane's ShadowPopulate
	// site); 0 means unlimited. Tracking that would exceed the cap is
	// dropped fail-open, exactly like dangsan's.
	MaxMetadataBytes uint64
	// Faults, when non-nil, injects failures into the metadata paths.
	Faults *faultinject.Plane
}

// Budget is the fail-open metadata contract the baselines share with
// dangsan's logger, embedded by each of them: metadata is charged against a
// cap before it is built, a charge that does not fit (or that the fault plane
// fails) reports the logger's typed error, and the detector then drops the
// tracking — coverage loss, counted here, never a crash or a false report.
// Set it up with Init before the detector sees traffic.
type Budget struct {
	name   string
	max    uint64
	faults *faultinject.Plane

	charged  atomic.Uint64
	degraded atomic.Uint64
	dropped  atomic.Uint64
}

// Init names the detector (for error text) and applies its options.
func (b *Budget) Init(name string, opts BudgetOptions) {
	b.name, b.max, b.faults = name, opts.MaxMetadataBytes, opts.Faults
}

// Charge accounts n metadata bytes against the budget, consulting the fault
// plane at site first. Exhaustion wraps pointerlog.ErrMetadataExhausted so
// callers up the stack treat every detector's alike.
func (b *Budget) Charge(site faultinject.Site, n uint64) error {
	if b.faults.Fail(site) {
		return fmt.Errorf("%s: injected metadata failure: %w", b.name, pointerlog.ErrMetadataExhausted)
	}
	if b.max != 0 && b.charged.Load()+n > b.max {
		return fmt.Errorf("%s: metadata budget exceeded: %w", b.name, pointerlog.ErrMetadataExhausted)
	}
	b.charged.Add(n)
	return nil
}

// Refund returns n charged bytes.
func (b *Budget) Refund(n uint64) { b.charged.Add(-n) }

// Charged reports the bytes currently charged.
func (b *Budget) Charged() uint64 { return b.charged.Load() }

// NoteDegraded counts one object whose tracking was dropped.
func (b *Budget) NoteDegraded() { b.degraded.Add(1) }

// NoteDropped counts n pointer registrations that were dropped.
func (b *Budget) NoteDropped(n uint64) { b.dropped.Add(n) }

// Degraded reports the fail-open coverage losses: objects that were never
// tracked (or lost their tracking) and pointer registrations that were
// dropped — always 0 for a detector that tracks no pointers.
func (b *Budget) Degraded() (objects, dropped uint64) {
	return b.degraded.Load(), b.dropped.Load()
}
