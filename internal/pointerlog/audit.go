package pointerlog

import "fmt"

// Audit mode (Config.Audit) cross-checks the incremental LogBytes
// accounting against ground truth: it re-measures every live object's log
// structures by walking them and requires
//
//	LogBytes (cumulative charges) ==
//	    measured live + LogBytesReleased + LogBytesSpilled
//
// to hold exactly. The spilled term extends the identity
// across tiers: bytes that were charged while a hash table was resident
// and then left RAM at a cold-tier spill are no longer measurable by the
// walk, so they are carried by a cumulative counter exactly like released
// bytes.
//
// The check runs automatically at every ReleaseMeta and
// whenever a Snapshot is taken with auditing on; violations accumulate and
// are reported by AuditViolations.
//
// The identity is exact only while no Register races the measurement: a
// concurrent append can charge bytes between the walk and the counter
// read. Audit mode is a debugging tool for (effectively) single-threaded
// workloads — the seed-golden workload and the deterministic interpreter
// traces — not a production invariant checker.

// AuditCheck re-measures the live log footprint and verifies the
// accounting identity, returning the violation (and recording it for
// AuditViolations) if it fails. With auditing off it returns nil without
// doing any work.
func (lg *Logger) AuditCheck() error {
	if !lg.cfg.Audit {
		return nil
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.auditLocked("check")
}

// auditNow runs the identity check, recording any violation. Callers must
// not hold mu.
func (lg *Logger) auditNow(context string) {
	lg.mu.Lock()
	lg.auditLocked(context)
	lg.mu.Unlock()
}

// auditLocked does the walk and comparison. Caller holds mu, which
// freezes the live-handle set (CreateMeta/ReleaseMeta) but not the logs
// themselves — see the package comment above for why that is acceptable.
func (lg *Logger) auditLocked(context string) error {
	live := lg.measureLiveLocked()
	total := lg.stats.LogBytesTotal()
	released := lg.stats.ReleasedLogBytesTotal()
	spilled := lg.stats.SpilledLogBytesTotal()
	if total == live+released+spilled {
		return nil
	}
	err := fmt.Errorf(
		"pointerlog audit (%s): LogBytes=%d but measured live=%d + released=%d + spilled=%d = %d (drift %+d)",
		context, total, live, released, spilled, live+released+spilled,
		int64(total)-int64(live+released+spilled))
	lg.auditErrs = append(lg.auditErrs, err.Error())
	return err
}

// measureLiveLocked sums the log footprint of every live meta. Caller
// holds mu.
func (lg *Logger) measureLiveLocked() uint64 {
	var n uint64
	for idx := range lg.auditLive {
		n += lg.MetaAt(idx + 1).logFootprint()
	}
	return n
}

// AuditViolations returns a copy of every audit failure recorded so far.
// Empty with auditing off or while the accounting holds.
func (lg *Logger) AuditViolations() []string {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return append([]string(nil), lg.auditErrs...)
}

// MeasureLiveLogBytes walks every live object's log structures and returns
// their summed footprint — the independent re-measurement audit mode
// compares against. Exported for tests and the stats tool; requires
// auditing (the live-handle set is only maintained then) and returns 0
// otherwise.
func (lg *Logger) MeasureLiveLogBytes() uint64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.measureLiveLocked()
}
