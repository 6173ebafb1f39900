package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dangsan/internal/service"
)

// runOptions selects one run of one workload.
type runOptions struct {
	Workload workloadSpec
	Seed     int64
	Scale    float64
	Traced   bool
	TraceOut string
	// WorkRoot hosts per-run work directories (sockets, cold segments).
	WorkRoot string
	// SetupRepeats is how often set-up runs; the last one is used.
	SetupRepeats int
}

// setupState is everything set-up builds before the first timed op.
type setupState struct {
	inputs  []detectorInput
	streams [][]svcOp
	svc     *service.Service
	workDir string

	gateAttempted int
	gateFailures  []string
}

func (s *setupState) tearDown() {
	if s.svc != nil {
		s.svc.Close()
	}
	if s.workDir != "" {
		os.RemoveAll(s.workDir)
	}
}

// detectorMul is the count multiplier of a detector workload's inputs.
func detectorMul(opts runOptions) float64 {
	return opts.Workload.Mul * opts.Scale
}

func serviceOps(opts runOptions) int {
	return atLeast(int(float64(opts.Workload.Ops)*opts.Scale), 400*svcClients)
}

// parityOps is the per-client length of the prefix svc-chan and svc-unix
// share at this scale.
func parityOps(opts runOptions) int {
	return atLeast(int(float64(svcParityPrefix)*opts.Scale), 400*svcClients) / svcClients
}

func serviceFailovers(opts runOptions) int {
	w := opts.Workload
	if w.Failovers == 0 {
		return 0
	}
	n := int(float64(w.Failovers)*opts.Scale + 0.5)
	if n > w.Failovers {
		n = w.Failovers
	}
	return atLeast(n, 2)
}

// setUp generates the input, checks its fingerprint, runs the correctness
// gate and, for service workloads, starts the service and its workers.
func setUp(opts runOptions, seq int) (*setupState, error) {
	w := opts.Workload
	s := &setupState{}
	if err := checkFingerprint(w, opts.Seed); err != nil {
		return nil, err
	}
	s.gateAttempted, s.gateFailures = runGate()
	if w.Kind == kindDetector {
		inputs, err := genDetectorInputs(w, opts.Seed, detectorMul(opts))
		if err != nil {
			return nil, err
		}
		s.inputs = inputs
		return s, nil
	}
	s.streams = genServiceStreams(opts.Seed, serviceOps(opts))
	s.workDir = filepath.Join(opts.WorkRoot, fmt.Sprintf("w%d-%d", os.Getpid(), seq))
	if err := os.MkdirAll(s.workDir, 0o755); err != nil {
		return nil, err
	}
	svc, err := service.New(serviceConfig(w, opts.Seed, s.workDir, false))
	if err != nil {
		os.RemoveAll(s.workDir)
		return nil, err
	}
	s.svc = svc
	return s, nil
}

// setUpRepeated sets up opts.SetupRepeats times, tearing down all but the last,
// and returns the last state with every set-up time.
func setUpRepeated(opts runOptions) (*setupState, []float64, error) {
	var times []float64
	var state *setupState
	for i := 0; i < opts.SetupRepeats; i++ {
		if state != nil {
			state.tearDown()
		}
		runtime.GC()
		start := time.Now()
		s, err := setUp(opts, i)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		state = s
	}
	return state, times, nil
}

// peakRSSBytes reads this process's VmHWM.
func peakRSSBytes() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runWorkload performs one run — untraced for the end-to-end metrics or
// traced for the per-layer ones — and verifies its outputs.
func runWorkload(opts runOptions) (workloadResult, error) {
	runtime.GOMAXPROCS(goMaxProcs)
	w := opts.Workload
	res := workloadResult{
		Workload: w.Name, Seed: opts.Seed, Scale: opts.Scale, Traced: opts.Traced,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{},
	}
	state, setupTimes, err := setUpRepeated(opts)
	if err != nil {
		return res, err
	}
	defer state.tearDown()
	res.Attempted += uint64(state.gateAttempted)
	res.fail(state.gateFailures...)

	if opts.Traced {
		tr := newTracer()
		if w.Kind == kindDetector {
			traceDetectorWorkload(tr, state.inputs, w.Threads, &res)
		} else {
			if err := traceServiceWorkload(tr, opts, state, &res); err != nil {
				return res, err
			}
		}
		for _, name := range perLayerNames {
			if _, ok := res.PerLayer[name]; !ok {
				res.PerLayer[name] = metricValue{Unit: layerSpec(name).Unit}
			}
		}
		if opts.TraceOut != "" {
			if err := tr.writeFile(opts.TraceOut); err != nil {
				return res, err
			}
		}
	} else {
		lo, hi := minMax(setupTimes)
		res.EndToEnd["setup_s"] = metricValue{Value: median(setupTimes), Unit: "s", Min: &lo, Max: &hi, Samples: len(setupTimes)}
		if w.Kind == kindDetector {
			res.recordDetector(measureDetector(state.inputs, detectorPasses(opts.Scale)))
		} else {
			res.recordService(runService(state.svc, state.streams, serviceFailovers(opts), parityOps(opts)), serviceFailovers(opts))
		}
		rss, err := peakRSSBytes()
		if err != nil {
			return res, err
		}
		res.EndToEnd["peak_rss_bytes"] = metricValue{Value: float64(rss), Unit: "B", Samples: 1}
		share := 0.0
		if res.Attempted > 0 {
			share = float64(res.Failed) / float64(res.Attempted)
		}
		res.EndToEnd["failed_share"] = metricValue{Value: share, Unit: "ratio", Samples: int(res.Attempted)}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// recordDetector turns a detector measurement into end-to-end metrics.
func (r *workloadResult) recordDetector(m detectorMeasurement) {
	for _, err := range m.Errs {
		r.fail(err.Error())
	}
	r.Attempted += m.Events
	// The fastest pass is the value; the range shows what the slower ones did.
	run, slowest := minMax(m.RunS)
	base, slowestBase := minMax(m.BaselineS)
	r.EndToEnd["run_s"] = metricValue{Value: run, Unit: "s", Min: &run, Max: &slowest, Samples: len(m.RunS)}
	r.EndToEnd["baseline_run_s"] = metricValue{Value: base, Unit: "s", Min: &base, Max: &slowestBase, Samples: len(m.BaselineS)}
	fastest, slowestRate := float64(m.Events)/run, float64(m.Events)/slowest
	r.EndToEnd["ops_per_s"] = metricValue{Value: fastest, Unit: "1/s", Min: &slowestRate, Max: &fastest, Samples: len(m.RunS)}
	r.EndToEnd["footprint_bytes"] = metricValue{Value: float64(m.Footprint), Unit: "B", Samples: 1}
	r.Notes = append(r.Notes, fmt.Sprintf("slowdown %.3fx (run_s / baseline_run_s, base %.4fs); median pass %.4fs under dangsan, %.4fs baseline",
		run/base, base, median(m.RunS), median(m.BaselineS)))
}

// recordService turns a service measurement into end-to-end metrics.
func (r *workloadResult) recordService(m serviceMeasurement, failovers int) {
	r.Attempted += m.Issued
	r.Failed += m.Failed
	r.Failures = append(r.Failures, m.Failures...)
	if failovers == 0 && m.Degraded > 0 {
		r.fail(fmt.Sprintf("%d degraded verdicts on a workload without disruptions", m.Degraded))
	}
	answered := m.Issued
	if m.Failed < answered {
		answered -= m.Failed
	}
	r.EndToEnd["run_s"] = metricValue{Value: m.RunS, Unit: "s", Samples: 1}
	lo, hi := minMax(m.SliceOpsPS)
	r.EndToEnd["ops_per_s"] = metricValue{Value: float64(answered) / m.RunS, Unit: "1/s", Min: &lo, Max: &hi, Samples: int(m.Issued)}
	r.EndToEnd["footprint_bytes"] = metricValue{Value: float64(m.Stats.LogBytesLive), Unit: "B", Samples: 1}
	r.EndToEnd["degraded_share"] = metricValue{Value: float64(m.Degraded) / float64(m.Issued), Unit: "ratio", Samples: int(m.Issued)}
	if failovers == 0 {
		plo, phi := minMax(m.SliceP50US)
		r.EndToEnd["latency_us_p50"] = metricValue{Value: percentileSorted(m.LatencyUS, 50), Unit: "us", Min: &plo, Max: &phi, Samples: len(m.LatencyUS)}
		r.EndToEnd["latency_us_p99"] = metricValue{Value: percentileSorted(m.LatencyUS, 99), Unit: "us", Samples: len(m.LatencyUS)}
	} else {
		rlo, rhi := minMax(m.Recoveries)
		r.EndToEnd["recovery_ms_p50"] = metricValue{Value: median(m.Recoveries), Unit: "ms", Min: &rlo, Max: &rhi, Samples: len(m.Recoveries)}
	}
	r.Notes = append(r.Notes, "verdict parity digest "+m.Parity, fmt.Sprintf("service counters %+v", m.Counters),
		fmt.Sprintf("%d probes of freed keys answered \"not known\" after the shard's freed window (%d) had passed", m.AgedOut, svcFreedWindow))
	r.Parity = m.Parity
}
