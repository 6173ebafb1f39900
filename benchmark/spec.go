package main

// The fixed benchmark definition: workload names, sizes, metric names,
// units, directions and bounds. Later issues cite these names; changing
// any of them is a benchmark PR of its own.

// goMaxProcs pins the scheduler: the numbers stay comparable between this
// 2-core box and bigger ones.
const goMaxProcs = 2

// nominalSeconds is the measured part one workload is sized to at scale 1
// on the reference box. The driver's --seconds is mapped onto the size
// scale (seconds/nominalSeconds); nothing is ever derived from the clock.
const nominalSeconds = 8

// Detector workloads run one warm-up pair plus measuredPasses pairs of
// baseline and dangsan passes, interleaved B/D/B/D, and report the fastest
// pass of each. Many short passes instead of a few long ones, and the
// minimum instead of the median, because the noise on this class of
// machine is one-sided and slow: a pass is memory-latency bound, and the
// physical pages it draws and the neighbours on the host's cache make it
// anything from 0% to 60% slower than its best for seconds at a time (see
// README.md, "How the bounds were calibrated").
const measuredPasses = 24

// setupRepeats is how often set-up runs in one invocation; the median is
// reported as setup_s.
const setupRepeats = 3

// Service workload sizes at scale 1 and the fixed client/shard shape.
const (
	svcClients       = 2
	svcShards        = 2
	svcLiveCap       = 4096 // live keys per client
	svcHeavyEvery    = 16   // 1 key in 16 is heavy
	svcHeavyStores   = 300  // enough for hash mode and the cold tier
	svcProbeWindow   = 128  // UAF probes come from the last 128 freed keys
	svcFreedWindow   = 1024 // worker/journal freed-key window
	svcChanOps       = 1_200_000
	svcUnixOps       = 160_000
	svcFailoverOps   = 1_200_000
	svcFailovers     = 40
	svcParityPrefix  = svcUnixOps // svc-chan and svc-unix share this prefix
	svcLatencySlices = 5
)

type workloadKind int

const (
	kindDetector workloadKind = iota
	kindService
)

// workloadSpec is one named workload.
type workloadSpec struct {
	Name string
	Why  string
	Kind workloadKind

	// Detector workloads.
	SPEC     []string // workloads.RunSPEC profiles
	Parallel []string // workloads.RunParallel profiles
	Threads  int
	Mul      float64 // count multiplier at scale 1

	// Service workloads.
	Transport string
	Ops       int // total ops across clients at scale 1
	Failovers int
}

var workloadSpecs = []workloadSpec{
	{
		Name: "spec-stores", Kind: kindDetector, Threads: 1, Mul: 0.5,
		SPEC: []string{"429.mcf", "445.gobmk", "453.povray", "403.gcc", "400.perlbench", "473.astar"},
		Why:  "store-dominated SPEC analogs: StorePtr, shadow.Lookup, pointerlog.Register do the work; allocator and free path nearly idle",
	},
	{
		Name: "spec-churn", Kind: kindDetector, Threads: 1, Mul: 0.3,
		SPEC: []string{"447.dealII", "456.hmmer", "471.omnetpp", "433.milc"},
		Why:  "alloc/free- and hash-heavy SPEC analogs: tcmalloc, shadow create/clear, pointerlog CreateMeta/Invalidate dominate",
	},
	{
		Name: "par-2t", Kind: kindDetector, Threads: 2, Mul: 0.4,
		Parallel: []string{"parsec.canneal", "splash2x.barnes", "splash2x.radiosity", "parsec.freqmine"},
		Why:      "2 threads sharing objects: per-thread logs, cross-thread invalidation, tcmalloc central lists under contention",
	},
	{
		Name: "svc-chan", Kind: kindService, Transport: "chan", Ops: svcChanOps,
		Why: "2 closed-loop clients, 2 shards over channels: coordinator path, journal and worker queue dominate; codec and sockets bypassed",
	},
	{
		Name: "svc-unix", Kind: kindService, Transport: "unix", Ops: svcUnixOps,
		Why: "same streams over unix sockets to re-exec'd workers: encode, frame, syscalls, per-send goroutine and timer are most of each op",
	},
	{
		Name: "svc-failover", Kind: kindService, Transport: "chan", Ops: svcFailoverOps, Failovers: svcFailovers,
		Why: "same streams over channels with 40 worker kills: detect, respawn, cold-segment read, journal replay, audit",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one metric. Bound is the share of the base value by
// which an end-to-end metric may worsen before compare fails; 0 means it
// must not worsen at all. Per-layer metrics have no bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// BoundFor overrides Bound per workload.
	BoundFor map[string]float64
	// Only lists the workloads the metric applies to; nil means all.
	Only []string
	// Contract marks the end-to-end metrics every workload reports, the
	// ones BENCHMARK.json lists under end_to_end.
	Contract bool
}

func (m metricSpec) boundFor(workload string) float64 {
	if b, ok := m.BoundFor[workload]; ok {
		return b
	}
	return m.Bound
}

var (
	onlyDetector = []string{"spec-stores", "spec-churn", "par-2t"}
	onlyService  = []string{"svc-chan", "svc-unix", "svc-failover"}
	onlySteady   = []string{"svc-chan", "svc-unix"}
	onlyFailover = []string{"svc-failover"}
)

func (m metricSpec) appliesTo(workload string) bool {
	if m.Only == nil {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEndSpecs are the metrics a user of the system sees, all measured
// with tracing off; README.md defines each. The bounds are what this class
// of machine can resolve between two single runs (README.md, "How the
// bounds were calibrated").
var endToEndSpecs = []metricSpec{
	// Tens of milliseconds of page faults and process starts: the noisiest
	// timing. BENCHMARK.json states 0.25, the most its contract allows; the
	// driver compares medians of ten runs, compare two single runs.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.50, Contract: true},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "baseline_run_s", Unit: "s", Better: "lower", Bound: 0.25, Only: onlyDetector},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "footprint_bytes", Unit: "B", Better: "lower", Bound: 0.05, Contract: true},
	// On the service workloads the collector's timing decides when dead
	// workers' address spaces and per-op garbage go: single runs differ by
	// up to a third (medians of ten runs by a few percent).
	{Name: "peak_rss_bytes", Unit: "B", Better: "lower", Bound: 0.25, Contract: true,
		BoundFor: map[string]float64{"svc-chan": 0.40, "svc-failover": 0.50}},
	{Name: "latency_us_p50", Unit: "us", Better: "lower", Bound: 0.25, Only: onlySteady},
	{Name: "latency_us_p99", Unit: "us", Better: "lower", Bound: 0.40, Only: onlySteady},
	{Name: "recovery_ms_p50", Unit: "ms", Better: "lower", Bound: 0.50, Only: onlyFailover},
	// Exactly 0 without disruptions.
	{Name: "degraded_share", Unit: "ratio", Better: "lower", Bound: 0, Only: onlyService,
		BoundFor: map[string]float64{"svc-failover": 0.50}},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// perLayerNames lists every per-layer metric in print order; units and
// directions are derived from the name suffix (see layerUnit).
var perLayerNames = []string{
	"vmem.load_word_ns", "vmem.store_word_ns", "vmem.cas_word_ns", "vmem.busy_s",
	"tcmalloc.malloc_ns", "tcmalloc.free_ns", "tcmalloc.object_range_ns", "tcmalloc.busy_s",
	"shadow.lookup_ns", "shadow.create_ns", "shadow.clear_ns", "shadow.busy_s", "shadow.bytes",
	"pointerlog.register_ns", "pointerlog.register_hash_ns", "pointerlog.create_meta_ns",
	"pointerlog.invalidate_ns_per_loc", "pointerlog.busy_s",
	"pointerlog.registered", "pointerlog.duplicates", "pointerlog.hash_tables",
	"pointerlog.invalidated", "pointerlog.stale", "pointerlog.useful_walk_share",
	"pointerlog.log_bytes", "pointerlog.spilled_bytes",
	"detectors.dangsan.on_ptr_store_ns", "detectors.dangsan.on_alloc_ns", "detectors.dangsan.on_free_ns",
	"detectors.dangsan.self_s", "detectors.dangsan.metadata_bytes", "detectors.dangsan.slowdown",
	"detectors.baseline.run_s",
	"detectors.dangnull.run_s", "detectors.dangnull.footprint_bytes",
	"detectors.freesentry.run_s", "detectors.freesentry.footprint_bytes",
	"detectors.xtag.run_s", "detectors.xtag.footprint_bytes",
	"detectors.camp.run_s", "detectors.camp.footprint_bytes",
	"proc.store_ptr_ns", "proc.malloc_ns", "proc.free_ns", "proc.self_s",
	"transport.encode_request_ns", "transport.decode_request_ns",
	"transport.encode_response_ns", "transport.decode_response_ns",
	"transport.append_frame_ns", "transport.read_frame_ns", "transport.codec_allocs_per_op",
	"transport.client_do_us_p50", "transport.client_do_us_p99", "transport.client_allocs_per_op",
	"worker.detector_equiv_us",
	"service.do_us_mean", "service.coordinator_self_us", "service.transport_share",
	"service.allocs_per_op", "service.alloc_bytes_per_op",
	"service.retries", "service.timeouts", "service.failovers", "service.heartbeat_misses",
	"service.breaker_trips", "service.replayed_objects", "service.recovered_locs",
	"service.shard_imbalance",
	"client.latency_us_p50", "client.latency_us_p99", "client.recovery_ms_p50", "client.degraded_share",
	"trace.root_s", "trace.overhead_share", "trace.min_self_s",
}

// layerSpec derives unit and direction of a per-layer metric from its name.
func layerSpec(name string) metricSpec {
	m := metricSpec{Name: name, Unit: "count", Better: "lower"}
	has := func(suffix string) bool {
		return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
	}
	switch {
	case has("_ns") || has("_ns_per_loc"):
		m.Unit = "ns"
	case has("_us") || has("_us_p50") || has("_us_p99") || has("_us_mean"):
		m.Unit = "us"
	case has("_ms_p50"):
		m.Unit = "ms"
	case has("_s"):
		m.Unit = "s"
	case has("bytes") || has("bytes_per_op"):
		m.Unit = "B"
	case has("_share") || has("slowdown") || has("imbalance"):
		m.Unit = "ratio"
	}
	switch name {
	case "pointerlog.useful_walk_share", "trace.min_self_s":
		m.Better = "higher"
	}
	return m
}
