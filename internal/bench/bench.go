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
	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
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
	// Injected counts fault-plane injections during the run (0 when
	// injection was off).
	Injected uint64
}

// Measure times run against a fresh process using the given detector,
// sampling the memory footprint concurrently.
func Measure(det detectors.Detector, run func(p *proc.Process) error) (Measurement, error) {
	return MeasureWith(det, run, nil)
}

// MeasureWith is Measure with an observability registry attached to the
// process (and through it the allocator and detector). Successive
// measurements sharing one registry accumulate counters across runs —
// snapshot between runs to separate them.
func MeasureWith(det detectors.Detector, run func(p *proc.Process) error, reg *obs.Registry) (Measurement, error) {
	return measureProc(det, run, reg, proc.Options{})
}

// measureProc is the common measurement core; popts configures the
// process (heap size, allocator-side fault plane).
func measureProc(det detectors.Detector, run func(p *proc.Process) error, reg *obs.Registry, popts proc.Options) (Measurement, error) {
	p := proc.NewWithOptions(det, popts)
	p.AttachMetrics(reg)
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

// MeasureN runs the measurement opts.Repeat times with a fresh detector
// and process each time, returning the fastest run (the standard way to
// suppress scheduler noise) with the largest observed footprint. The
// options' registry, if any, is attached to every run. When the options
// arm fault injection, each repeat gets its own plane — passed to the
// factory so the detector and the allocator share it — making the failure
// pattern identical across repeats.
func MeasureN(opts Options, factory func(*faultinject.Plane) (detectors.Detector, error), run func(p *proc.Process) error) (Measurement, error) {
	n := opts.Repeat
	if n < 1 {
		n = 1
	}
	var best Measurement
	for i := 0; i < n; i++ {
		plane := opts.NewPlane()
		det, err := factory(plane)
		if err != nil {
			return Measurement{}, err
		}
		m, err := measureProc(det, run, opts.Metrics,
			proc.Options{HeapBytes: opts.HeapBytes, Faults: plane})
		if err != nil {
			return Measurement{}, err
		}
		m.Injected = plane.TotalInjected()
		if i == 0 || m.Seconds < best.Seconds {
			peak := best.PeakFootprint
			best = m
			if peak > best.PeakFootprint {
				best.PeakFootprint = peak
			}
		} else if m.PeakFootprint > best.PeakFootprint {
			best.PeakFootprint = m.PeakFootprint
		}
	}
	return best, nil
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
