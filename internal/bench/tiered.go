package bench

import (
	"fmt"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
)

// TieredRow is one spill-threshold configuration's point in the tiered-log
// RAM-ceiling × latency sweep: the resident (hot) log footprint at peak
// use, what moved to disk, and what the cold tier cost the free path.
type TieredRow struct {
	// Config names the threshold ("off", "256KiB", "64KiB", "16KiB").
	Config string `json:"config"`
	// SpillBytes is the ColdSpillBytes setting (0 = tiering off).
	SpillBytes uint64  `json:"spill_bytes"`
	Seconds    float64 `json:"seconds"`
	// ResidentLogBytes is LogBytesLive at peak use — after every store,
	// before any free. This is the RAM ceiling the threshold buys down.
	ResidentLogBytes uint64 `json:"resident_log_bytes"`
	// SpilledLogBytes is the cumulative footprint retired to disk.
	SpilledLogBytes uint64 `json:"spilled_log_bytes"`
	Spills          uint64 `json:"spills"`
	ColdSegments    int64  `json:"cold_segments"`
	ColdDiskBytes   int64  `json:"cold_disk_bytes"`
	Compactions     uint64 `json:"compactions"`
	// Spill-path latency (the store that triggered each flush paid it).
	SpillP99Ns uint64 `json:"spill_p99_ns"`
	// Free-path latency: inline frees stream the cold segments back, so
	// the p99 prices the disk reads the threshold traded RAM for.
	FreeCount  uint64  `json:"free_count"`
	FreeMeanNs float64 `json:"free_mean_ns"`
	FreeP99Ns  uint64  `json:"free_p99_ns"`
	FreeMaxNs  uint64  `json:"free_max_ns"`
}

// RunTiered measures the cold-tier spill path on a hash-fallback workload:
// a few long-lived registry objects each accumulate thousands of distinct
// pointer locations (far past the hash switch), then are freed, forcing
// invalidation to stream every spilled segment back through the decoder.
// The sweep varies ColdSpillBytes from off through 1/4 of the default,
// trading resident log bytes against free-path tail latency.
func RunTiered(opts Options, progress func(string)) ([]TieredRow, error) {
	opts = opts.normalized()
	objects := 8
	locsPerObj := maxi(int(16384*opts.Scale), 2048)

	configs := []struct {
		name  string
		bytes uint64
	}{
		{"off", 0},
		{"256KiB", 4 * pointerlog.DefaultColdSpillBytes},
		{"64KiB", pointerlog.DefaultColdSpillBytes},
		{"16KiB", pointerlog.DefaultColdSpillBytes / 4},
	}

	var rows []TieredRow
	for _, c := range configs {
		if progress != nil {
			progress(fmt.Sprintf("tiered %s", c.name))
		}
		cfg := pointerlog.DefaultConfig()
		cfg.ColdSpillBytes = c.bytes
		cfg.Audit = opts.Audit
		// A private registry per row (MeasureWith attaches it through the
		// process): the shared opts registry would mix the rows' histograms.
		reg := obs.NewRegistry()
		det := dangsan.NewWithConfig(cfg)

		var resident uint64
		var coldPeak pointerlog.ColdStats
		m, err := MeasureWith(det, func(p *proc.Process) error {
			th := p.NewThread()
			defer th.Exit()
			// Locations spread across globals and a heap arena, stride 8:
			// every slot distinct, so each object's set genuinely grows.
			arena, err := th.Malloc(uint64(8 * objects * locsPerObj / 2))
			if err != nil {
				return err
			}
			defer th.Free(arena)
			globals := p.AllocGlobal(uint64(8 * objects * locsPerObj / 2))
			bases := make([]uint64, objects)
			for o := range bases {
				base, err := th.Malloc(1 << 16)
				if err != nil {
					return err
				}
				bases[o] = base
				for i := 0; i < locsPerObj; i++ {
					slot := uint64(o*locsPerObj+i) / 2 * 8
					loc := globals + slot
					if i&1 == 1 {
						loc = arena + slot
					}
					if f := th.StorePtr(loc, base+uint64(i&8191)*8); f != nil {
						return f
					}
				}
			}
			// Peak use: every location logged, nothing freed yet. This is
			// the number the spill threshold exists to bound. Disk bytes
			// are read here too — the frees below retire the segments.
			resident = det.Stats().LogBytesLive
			coldPeak = det.Logger().ColdLogStats()
			for _, base := range bases {
				if err := th.Free(base); err != nil {
					return err
				}
			}
			return nil
		}, reg)
		if err != nil {
			det.Close()
			return nil, fmt.Errorf("tiered %s: %w", c.name, err)
		}
		if v := det.AuditViolations(); len(v) > 0 {
			det.Close()
			return nil, fmt.Errorf("tiered %s: audit violations: %s", c.name, v[0])
		}
		snap := reg.Snapshot()
		free := snap.Histograms["dangsan.free_ns"]
		spill := snap.Histograms["dangsan.spill_ns"]
		cold := det.Logger().ColdLogStats()
		stats := det.Stats()
		det.Close()
		coldPeak.Compactions = cold.Compactions
		rows = append(rows, TieredRow{
			Config:           c.name,
			SpillBytes:       c.bytes,
			Seconds:          m.Seconds,
			ResidentLogBytes: resident,
			SpilledLogBytes:  stats.LogBytesSpilled,
			Spills:           stats.Spills,
			ColdSegments:     coldPeak.Segments,
			ColdDiskBytes:    coldPeak.DiskBytes,
			Compactions:      coldPeak.Compactions,
			SpillP99Ns:       spill.Quantile(0.99),
			FreeCount:        free.Count,
			FreeMeanNs:       free.Mean(),
			FreeP99Ns:        free.Quantile(0.99),
			FreeMaxNs:        free.Max,
		})
	}
	return rows, nil
}
