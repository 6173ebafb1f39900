package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/camp"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/detectors/freesentry"
	"dangsan/internal/detectors/xtag"
	"dangsan/internal/proc"
)

// eventCounter is a proc.TraceSink that counts events by kind and, when
// sample is set, records the peak of sample() every footprintSampleEvery
// events — an event-count ticker, so single-threaded peaks repeat exactly.
type eventCounter struct {
	byKind    [proc.TraceKindMax]atomic.Uint64
	requested atomic.Uint64
	total     atomic.Uint64
	sample    func() uint64
	peak      atomic.Uint64
}

const footprintSampleEvery = 4096

func (c *eventCounter) TraceEvent(kind uint8, tid int32, a, b, cc uint64) {
	c.byKind[kind].Add(1)
	if kind == proc.TraceMalloc {
		c.requested.Add(a)
	}
	if c.sample != nil && c.total.Add(1)%footprintSampleEvery == 0 {
		c.notePeak(c.sample())
	}
}

func (c *eventCounter) notePeak(v uint64) {
	for {
		old := c.peak.Load()
		if v <= old || c.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (c *eventCounter) counts() [proc.TraceKindMax]uint64 {
	var out [proc.TraceKindMax]uint64
	for i := range c.byKind {
		out[i] = c.byKind[i].Load()
	}
	return out
}

// hookedEvents is the number of events the detectors hook: the "ops" of a
// detector workload.
func (c *eventCounter) hookedEvents() uint64 {
	return c.byKind[proc.TraceMalloc].Load() + c.byKind[proc.TraceFree].Load() +
		c.byKind[proc.TraceRealloc].Load() + c.byKind[proc.TraceStorePtr].Load()
}

// otherBackends are the detectors compared against dangsan on the same
// inputs in the traced pass.
var otherBackends = []struct {
	Name string
	New  func() detectors.Detector
}{
	{"dangnull", func() detectors.Detector { return dangnull.New() }},
	{"freesentry", func() detectors.Detector { return freesentry.New() }},
	{"xtag", func() detectors.Detector { return xtag.New() }},
	{"camp", func() detectors.Detector { return camp.New() }},
}

func newDangSan() detectors.Detector  { return dangsan.New() }
func newBaseline() detectors.Detector { return detectors.None{} }

// timePass runs every input once, each on a fresh process under a fresh
// detector, and returns the summed wall time (Quiesce inside the timed
// region) and the inputs that failed.
func timePass(inputs []detectorInput, newDet func() detectors.Detector) (seconds float64, errs []error) {
	runtime.GC()
	for _, in := range inputs {
		p := proc.New(newDet())
		start := time.Now()
		err := in.Run(p)
		p.Quiesce()
		seconds += time.Since(start).Seconds()
		closeDetector(p.Detector())
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", in.Name, err))
		}
	}
	return seconds, errs
}

func closeDetector(d detectors.Detector) {
	if c, ok := d.(interface{ Close() }); ok {
		c.Close()
	}
}

// footprintPass runs every input once under newDet with the event-count
// sampler installed and returns the largest footprint seen on any input
// and the number of hooked events.
func footprintPass(inputs []detectorInput, newDet func() detectors.Detector) (peak, events uint64, errs []error) {
	runtime.GC()
	for _, in := range inputs {
		p := proc.New(newDet())
		c := &eventCounter{sample: p.MemoryFootprint}
		p.SetTracer(c)
		err := in.Run(p)
		p.Quiesce()
		c.notePeak(p.MemoryFootprint())
		closeDetector(p.Detector())
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", in.Name, err))
		}
		if v := c.peak.Load(); v > peak {
			peak = v
		}
		events += c.hookedEvents()
	}
	return peak, events, errs
}

// detectorMeasurement is the untraced result of one detector workload.
type detectorMeasurement struct {
	RunS      []float64 // one per measured pass
	BaselineS []float64
	Footprint uint64
	Events    uint64
	Errs      []error
}

// detectorPasses is the number of measured pairs at a size scale: all of
// measuredPasses except on smoke runs, which only check that things work.
func detectorPasses(scale float64) int {
	if scale < 0.05 {
		return 3
	}
	return measuredPasses
}

// measureDetector runs the warm-up pair, the measured pairs (baseline and
// dangsan interleaved) and the untimed footprint pass.
func measureDetector(inputs []detectorInput, passes int) detectorMeasurement {
	var m detectorMeasurement
	for pass := 0; pass <= passes; pass++ {
		b, berrs := timePass(inputs, newBaseline)
		d, derrs := timePass(inputs, newDangSan)
		m.Errs = append(append(m.Errs, berrs...), derrs...)
		if pass == 0 {
			continue // warm-up
		}
		m.BaselineS = append(m.BaselineS, b)
		m.RunS = append(m.RunS, d)
	}
	var ferrs []error
	m.Footprint, m.Events, ferrs = footprintPass(inputs, newDangSan)
	m.Errs = append(m.Errs, ferrs...)
	return m
}
