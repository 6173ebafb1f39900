package pointerlog

import "fmt"

// Audit mode (Config.Audit) holds the incremental LogBytes accounting to
// the structures it charges for, at two grains.
//
// Per object, at every ReleaseMeta: each ThreadLog carries the resident
// bytes charged to it — its struct, its blocks, its hash tables, less what
// a spill moved to the cold tier — and the walk the release makes anyway
// (logFootprint) must equal their sum. That costs no more than the free
// itself, and a violation names the object.
//
// Globally, at AuditCheck (so at every detector Stats snapshot with
// auditing on):
//
//	LogBytes (cumulative charges) ==
//	    measured live + LogBytesReleased + LogBytesSpilled
//
// where measured live walks every meta in the registry; a released meta
// holds no logs and adds 0. The spilled term extends the identity across
// tiers: bytes charged while a table or block was resident and then moved
// to the cold tier are no longer measurable by the walk, so a cumulative
// counter carries them exactly like released bytes.
//
// Both checks are exact only while no Register races them: an append can
// charge bytes between the walk and the read of the charges. A free's
// check races only a store into the object being freed (a use after free
// in the program); the global check races every store, so it belongs at
// quiescent points — the end of a run, a stats op.

// AuditCheck re-measures the live log footprint and verifies the
// accounting identity, returning the violation (and recording it for
// AuditViolations) if it fails. With auditing off it returns nil without
// doing any work.
func (lg *Logger) AuditCheck() error {
	if !lg.cfg.Audit {
		return nil
	}
	live := lg.MeasureLiveLogBytes()
	total := lg.stats.LogBytesTotal()
	released := lg.stats.ReleasedLogBytesTotal()
	spilled := lg.stats.SpilledLogBytesTotal()
	if total == live+released+spilled {
		return nil
	}
	err := fmt.Errorf(
		"pointerlog audit: LogBytes=%d but measured live=%d + released=%d + spilled=%d = %d (drift %+d)",
		total, live, released, spilled, live+released+spilled,
		int64(total)-int64(live+released+spilled))
	lg.auditFail(err)
	return err
}

// auditFail records a violation for AuditViolations.
func (lg *Logger) auditFail(err error) {
	lg.mu.Lock()
	lg.auditErrs = append(lg.auditErrs, err.Error())
	lg.mu.Unlock()
}

// AuditViolations returns a copy of every audit failure recorded so far.
// Empty with auditing off or while the accounting holds.
func (lg *Logger) AuditViolations() []string {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return append([]string(nil), lg.auditErrs...)
}

// MeasureLiveLogBytes walks the log structures of every meta in the
// registry and returns their summed footprint: the independent
// re-measurement AuditCheck compares against. It holds mu, so no meta is
// created or released during the walk.
func (lg *Logger) MeasureLiveLogBytes() uint64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var n uint64
	for h := uint64(1); h <= lg.next.Load(); h++ {
		fp, _ := lg.MetaAt(h).logFootprint()
		n += fp
	}
	return n
}
