// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§8): run-time overhead on the SPEC
// analogs (Fig. 9), scalability and memory on the PARSEC/SPLASH-2X analogs
// (Figs. 10 and 12), SPEC memory overhead (Fig. 11), web-server throughput
// and memory (§8.2/§8.3), the Table 1 statistics, the exploit scenarios
// (§8.1), the five-way comparison against xtag and camp, and the ablations
// behind the design choices (lookback size, pointer compression, and the
// shadow-vs-tree pointer-to-object mapper). Every experiment is one row of
// the table in experiments.go and returns one Result; service and cold-tier
// numbers are measured by the top-level benchmark/ instead.
package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
)

// Kind names a detector backend; the table of backends is
// internal/detectors/backends.
type Kind = backends.Kind

// Measurement is one timed run.
type Measurement struct {
	// Seconds is the wall-clock run time.
	Seconds float64
	// PeakFootprint is the maximum observed simulated RSS plus detector
	// metadata (sampled during the run and at its end).
	PeakFootprint uint64
	// Stats carries DangSan's pointer-log counters when the detector was
	// DangSan, zero otherwise.
	Stats pointerlog.Snapshot
}

// measure is the one way an experiment times a workload: s.Repeat runs,
// each against a fresh process under a fresh detector of the given kind,
// keeping the fastest run (the standard way to suppress scheduler noise)
// with the largest footprint any run reached. tune, when non-nil, adjusts
// DangSan's pointer-log configuration; the session's audit mode and metrics
// registry apply on top, so every timed row honours -repeat, -audit and
// -metrics alike. It also returns the last run's detector, for counters a
// Measurement does not carry (the workloads are deterministic, so they
// equal the fastest run's).
func (s *Session) measure(kind Kind, tune func(*pointerlog.Config), run func(*proc.Process) error) (Measurement, detectors.Detector, error) {
	var best Measurement
	var det detectors.Detector
	for i := 0; i < max(s.Repeat, 1); i++ {
		cfg := pointerlog.DefaultConfig()
		if tune != nil {
			tune(&cfg)
		}
		cfg.Audit = s.Audit
		var err error
		if det, err = backends.New(kind, dangsan.Options{Config: cfg}); err != nil {
			return Measurement{}, nil, err
		}
		m, err := s.measureOnce(det, run)
		if err != nil {
			return Measurement{}, nil, err
		}
		if i == 0 || m.Seconds < best.Seconds {
			m.PeakFootprint = max(m.PeakFootprint, best.PeakFootprint)
			best = m
		} else {
			best.PeakFootprint = max(best.PeakFootprint, m.PeakFootprint)
		}
	}
	return best, det, nil
}

// measureOnce times run against a fresh process under det, sampling the
// memory footprint concurrently. The session's registry, if any, is
// attached to the process (and through it the allocator and detector);
// successive runs sharing one registry accumulate counters.
func (s *Session) measureOnce(det detectors.Detector, run func(p *proc.Process) error) (Measurement, error) {
	p := proc.New(det)
	p.AttachMetrics(s.Metrics)
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				f := p.MemoryFootprint()
				for {
					old := peak.Load()
					if f <= old || peak.CompareAndSwap(old, f) {
						break
					}
				}
			}
		}
	}()
	start := time.Now()
	err := run(p)
	elapsed := time.Since(start)
	close(stop)
	<-done
	if err != nil {
		return Measurement{}, err
	}
	if f := p.MemoryFootprint(); f > peak.Load() {
		peak.Store(f)
	}
	m := Measurement{
		Seconds:       elapsed.Seconds(),
		PeakFootprint: peak.Load(),
	}
	if d, ok := det.(*dangsan.Detector); ok {
		m.Stats = d.Stats()
		if v := d.AuditViolations(); len(v) > 0 {
			return m, fmt.Errorf("bench: audit violations: %s", v[0])
		}
	}
	return m, nil
}

// Geomean returns the geometric mean of xs (which must be positive);
// returns NaN for an empty slice.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
