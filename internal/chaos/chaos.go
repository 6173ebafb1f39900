// Package chaos is the fault-injection test harness: it sweeps the
// fault-injection plane (internal/faultinject) across rates and seeds,
// drives real workloads through the injected failures, and checks the
// system-wide invariants DangSan's fail-open design promises (paper §4.4):
//
//   - no false UAF reports: a correct program never observes a memory
//     fault, no matter which internal allocations were failed;
//   - no deadlocks or panics: every run terminates, with success or a
//     typed out-of-memory error;
//   - accounting stays exact: the pointer logger's audit identity holds
//     even when log blocks, hash grows, and registrations are denied;
//   - degradation is the only coverage loss: while no object is degraded
//     and no registration dropped, the exploit suite is still detected.
//
// A cell is one (rate, seed) pair; Run executes one cell, Sweep a grid.
// Everything is deterministic per cell, so a failed cell replays exactly.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
	"dangsan/internal/workloads"
)

// Config shapes the workload a chaos cell runs.
type Config struct {
	// Profile is the server workload to drive (zero value: apache, the
	// most allocation-heavy profile).
	Profile workloads.ServerProfile
	// Workers and Requests size the concurrent server run.
	Workers  int
	Requests int
	// HeapBytes shrinks the simulated heap so allocator pressure is
	// reachable (0: 8 MiB).
	HeapBytes uint64
	// MaxMetadataBytes caps every stage detector's metadata footprint
	// (0: unlimited). See pointerlog.Config.MaxMetadataBytes.
	MaxMetadataBytes uint64
	// Budget bounds per-site injections so pressure is transient and the
	// run can recover (<0: unlimited; 0: the default 256).
	Budget int64
	// Timeout is the per-run watchdog; exceeding it counts as a deadlock
	// violation (0: 60s).
	Timeout time.Duration
	// SkipExploits disables the exploit-detection sub-check.
	SkipExploits bool
}

func (c Config) normalized() Config {
	if c.Profile.Name == "" {
		c.Profile, _ = workloads.ServerProfileByName("apache")
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Requests <= 0 {
		c.Requests = 300
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 8 << 20
	}
	if c.Budget == 0 {
		c.Budget = 256
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// ExploitResult is one exploit scenario's outcome under injection.
type ExploitResult struct {
	Name string `json:"name"`
	// Prevented mirrors workloads.ExploitOutcome.Prevented.
	Prevented bool `json:"prevented"`
	// Skipped is true when the scenario could not run to its verdict
	// (allocator OOM mid-scenario) or detection was not required (the
	// detector degraded objects or dropped registrations, so coverage
	// loss is expected).
	Skipped bool   `json:"skipped"`
	Detail  string `json:"detail,omitempty"`
}

// Result is one chaos cell's outcome. Violations must be empty for the
// cell to pass; everything else is reporting.
type Result struct {
	Rate float64 `json:"rate"`
	Seed int64   `json:"seed"`
	// Seconds is the concurrent server run's wall time.
	Seconds float64 `json:"seconds"`
	// Completed is true when the concurrent run served every request.
	Completed bool `json:"completed"`
	// OOMAborted is true when the concurrent run stopped early on a typed
	// out-of-memory error — graceful abort, not a violation.
	OOMAborted bool `json:"oom_aborted"`
	// Injected is the total injection count across both server runs.
	Injected uint64 `json:"injected"`
	// Sites breaks injections down per site (concurrent run).
	Sites []faultinject.SiteStats `json:"sites,omitempty"`
	// Degraded and Dropped aggregate the detector's coverage-loss
	// counters across both server runs.
	Degraded uint64 `json:"degraded"`
	Dropped  uint64 `json:"dropped"`
	// Exploits reports the detection sub-check.
	Exploits []ExploitResult `json:"exploits,omitempty"`
	// Violations lists every broken invariant: false UAF faults, panics,
	// hangs, audit failures, missed exploit detections.
	Violations []string `json:"violations,omitempty"`
}

// detector builds a backend of the table wired to the plane and the
// metadata budget; DangSan also gets the audit cross-check and the cold
// tier on request.
func (c Config) detector(kind backends.Kind, plane *faultinject.Plane, audit, tiered bool) detectors.Detector {
	cfg := pointerlog.DefaultConfig()
	cfg.MaxMetadataBytes = c.MaxMetadataBytes
	cfg.Audit = audit
	if tiered {
		// The minimum threshold, so the server workload's hash-mode objects
		// actually spill and the ColdIO site sees traffic.
		cfg.ColdSpillBytes = pointerlog.MinColdSpillBytes
	}
	det, err := backends.New(kind, dangsan.Options{Config: cfg, Faults: plane})
	if err != nil {
		panic(err) // the kinds are this package's constants
	}
	return det
}

// classify sorts a server-run error into the result: nil and typed OOM are
// acceptable (the latter marks the run OOM-aborted); memory faults are
// false-UAF violations; panics and anything else are violations too.
func classify(r *Result, stage string, err error) {
	if err == nil {
		return
	}
	var oom *tcmalloc.OutOfMemoryError
	if errors.As(err, &oom) {
		r.OOMAborted = true
		return
	}
	var fault *vmem.Fault
	if errors.As(err, &fault) {
		r.Violations = append(r.Violations,
			fmt.Sprintf("%s: memory fault on correct code (false UAF): %v", stage, err))
		return
	}
	if strings.Contains(err.Error(), "panic") {
		r.Violations = append(r.Violations, fmt.Sprintf("%s: worker panicked: %v", stage, err))
		return
	}
	r.Violations = append(r.Violations, fmt.Sprintf("%s: unexpected error: %v", stage, err))
}

// runServer executes one watched server run under det and classifies the
// outcome. It returns false on watchdog expiry (the goroutine is abandoned;
// the cell already failed).
func (c Config) runServer(r *Result, stage string, plane *faultinject.Plane, workers int, det detectors.Detector) bool {
	p := proc.NewWithOptions(det, proc.Options{HeapBytes: c.HeapBytes, Faults: plane})
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- workloads.RunServer(p, c.Profile, workers, c.Requests, r.Seed)
	}()
	select {
	case err := <-done:
		if stage == "concurrent" {
			r.Seconds = time.Since(start).Seconds()
			r.Completed = err == nil
		}
		classify(r, stage, err)
	case <-time.After(c.Timeout):
		r.Violations = append(r.Violations,
			fmt.Sprintf("%s: server run exceeded %v watchdog (deadlock?)", stage, c.Timeout))
		return false
	}
	objs, drops := det.(detectors.CoverageLoss).Degraded()
	r.Degraded += objs
	r.Dropped += drops
	return true
}

// Run executes one chaos cell: the server stages and the exploit suite,
// each against a fresh plane armed at the given rate with the cell's seed.
func Run(cfg Config, rate float64, seed int64) Result {
	cfg = cfg.normalized()
	r := Result{Rate: rate, Seed: seed}
	stages := []struct {
		name    string
		kind    backends.Kind
		workers int
		audit   bool
		tiered  bool
	}{
		// Concurrent run: survival under pressure. Audit stays off — the
		// audit identity is exact only without racing frees (see
		// pointerlog/audit.go) — correctness is checked via
		// fault/panic/hang classification instead.
		{"concurrent", backends.DangSan, cfg.Workers, false, false},
		// Audited run: one worker, audit on. The accounting identity must
		// hold exactly even with injected metadata failures.
		{"audited", backends.DangSan, 1, true, false},
		// Tiered run: concurrent, cold tier armed at the minimum threshold
		// so hash-mode objects spill, with the ColdIO site denying segment
		// writes and reads. Both directions must fail open — a denied write
		// keeps the table resident, a denied read skips only that segment's
		// coverage.
		{"tiered", backends.DangSan, cfg.Workers, false, true},
		// Tiered audited run: one worker, audit on — the cross-tier
		// identity (live + released + spilled) must hold exactly through
		// every spill, free and compaction, even with ColdIO injecting.
		{"tiered-audited", backends.DangSan, 1, true, true},
		// Checked-dereference stages: their fail-open contract is
		// check-side. A denied metadata charge leaves the object untagged
		// (xtag) or untracked (camp), and every dereference of it passes —
		// so a correct run must still never fault.
		{"xtag", backends.XTag, cfg.Workers, false, false},
		{"camp", backends.CAMP, cfg.Workers, false, false},
	}
	for _, st := range stages {
		plane := faultinject.New(seed)
		plane.EnableAll(rate, cfg.Budget)
		det := cfg.detector(st.kind, plane, st.audit, st.tiered)
		if cfg.runServer(&r, st.name, plane, st.workers, det) {
			if st.name == "concurrent" {
				r.Sites = plane.Snapshot()
			}
			if ds, ok := det.(*dangsan.Detector); ok {
				for _, v := range ds.AuditViolations() {
					r.Violations = append(r.Violations, st.name+": "+v)
				}
				ds.Close()
			}
		}
		r.Injected += plane.TotalInjected()
	}

	if !cfg.SkipExploits {
		// xtag's tag checks catch all three scenarios too: the reuse that
		// arms each exploit gives the recycled memory a fresh generation,
		// so the stale tagged pointer mismatches. camp is deliberately
		// absent: its freed-range registry is cleared by reuse, and all
		// three scenarios reuse the victim's memory before the stale access
		// — the documented false-negative window of pure range checking.
		r.Exploits = cfg.runExploits(&r, backends.DangSan, "", rate, seed)
		r.Exploits = append(r.Exploits, cfg.runExploits(&r, backends.XTag, "xtag:", rate, seed)...)
	}
	return r
}

// runExploits drives the three UAF scenarios under injection against kind,
// naming each result prefix+scenario. Detection is required exactly when
// the detector lost no coverage during the scenario (nothing degraded,
// nothing dropped); OOM-aborted scenarios are skipped.
func (c Config) runExploits(r *Result, kind backends.Kind, prefix string, rate float64, seed int64) []ExploitResult {
	scenarios := []struct {
		name string
		run  func(*proc.Process) (workloads.ExploitOutcome, error)
	}{
		{"double-free-openssl", workloads.DoubleFreeOpenSSL},
		{"uaf-wireshark", workloads.UAFWireshark},
		{"uaf-litespeed", workloads.UAFLitespeed},
	}
	out := make([]ExploitResult, 0, len(scenarios))
	for i, sc := range scenarios {
		plane := faultinject.New(seed + int64(i)*7919)
		plane.EnableAll(rate, c.Budget)
		det := c.detector(kind, plane, false, false)
		p := proc.NewWithOptions(det, proc.Options{HeapBytes: c.HeapBytes, Faults: plane})
		outcome, err := sc.run(p)
		res := ExploitResult{Name: prefix + sc.name}
		degraded, dropped := det.(detectors.CoverageLoss).Degraded()
		switch {
		case err != nil:
			var oom *tcmalloc.OutOfMemoryError
			if errors.As(err, &oom) {
				res.Skipped = true
				res.Detail = "oom-aborted: " + err.Error()
			} else {
				r.Violations = append(r.Violations,
					fmt.Sprintf("exploit %s: unexpected error: %v", res.Name, err))
				res.Detail = err.Error()
			}
		case degraded > 0 || dropped > 0:
			// Coverage was lost; detection is not required. Record what
			// happened but don't judge it.
			res.Skipped = true
			res.Prevented = outcome.Prevented
			res.Detail = fmt.Sprintf("degraded=%d dropped=%d: %s", degraded, dropped, outcome.Detail)
		default:
			res.Prevented = outcome.Prevented
			res.Detail = outcome.Detail
			if !outcome.Prevented {
				r.Violations = append(r.Violations,
					fmt.Sprintf("exploit %s: not prevented with full coverage: %s", res.Name, outcome.Detail))
			}
		}
		out = append(out, res)
	}
	return out
}

// Sweep runs one cell per (rate, seed) of the grid, rates outermost:
// Sweep(cfg, rates, seeds, Run) for the fault-plane cells,
// Sweep(cfg, rates, seeds, RunShard) for the sharded-service ones.
func Sweep[C any, R cell](cfg C, rates []float64, seeds []int64, run func(C, float64, int64) R) []R {
	out := make([]R, 0, len(rates)*len(seeds))
	for _, rate := range rates {
		for _, seed := range seeds {
			out = append(out, run(cfg, rate, seed))
		}
	}
	return out
}

// cell is what Failed reads of a cell's result: its grid point and its
// violations.
type cell interface {
	cell() (rate float64, seed int64, violations []string)
}

func (r Result) cell() (float64, int64, []string)      { return r.Rate, r.Seed, r.Violations }
func (r ShardResult) cell() (float64, int64, []string) { return r.Rate, r.Seed, r.Violations }

// Failed collects the violations across a sweep, prefixed with their cell
// (empty: the sweep passed).
func Failed[R cell](results []R) []string {
	var out []string
	for _, r := range results {
		rate, seed, violations := r.cell()
		for _, v := range violations {
			out = append(out, fmt.Sprintf("rate=%g seed=%d: %s", rate, seed, v))
		}
	}
	return out
}
