// Package dangsan's module-root benchmarks: one testing.B benchmark family
// per table/figure of the paper's evaluation. These run the workloads at a
// reduced scale (0.1x) so `go test -bench=. -benchmem` completes in
// minutes; the full-scale numbers come from `go run ./cmd/dangsan-bench`.
//
//	BenchmarkFig9SPEC        — run time per SPEC analog per detector (Fig. 9);
//	                           the reported footprint-bytes metric is Fig. 11.
//	BenchmarkFig10Scalability— run time per thread count (Fig. 10); the
//	                           footprint-bytes metric is Fig. 12.
//	BenchmarkServers         — requests/s shape of §8.2; footprint of §8.3.
//	BenchmarkLookback        — the §4.4 lookback design choice.
//	BenchmarkCompression     — the §6 pointer-compression design choice.
//	BenchmarkMapper          — the §4.3 shadow-vs-tree mapper argument.
package dangsan

import (
	"fmt"
	"testing"

	"dangsan/internal/bench"
	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/rbtree"
	"dangsan/internal/shadow"
	"dangsan/internal/vmem"
	"dangsan/internal/workloads"
)

const benchScale = 0.1

// BenchmarkFig9SPEC measures every SPEC analog under every detector.
func BenchmarkFig9SPEC(b *testing.B) {
	for _, prof := range workloads.SPECProfiles() {
		prof := bench.ScaleSPEC(prof, benchScale)
		for _, kind := range backends.Paper() {
			b.Run(fmt.Sprintf("%s/%s", prof.Name, kind), func(b *testing.B) {
				var footprint uint64
				for i := 0; i < b.N; i++ {
					det, err := bench.Options{}.NewDetector(kind, nil)
					if err != nil {
						b.Fatal(err)
					}
					p := proc.New(det)
					if err := workloads.RunSPEC(p, prof, 1); err != nil {
						b.Fatal(err)
					}
					footprint = p.MemoryFootprint()
				}
				b.ReportMetric(float64(footprint), "footprint-bytes")
			})
		}
	}
}

// BenchmarkFig10Scalability measures three representative parallel analogs
// across thread counts under baseline and DangSan.
func BenchmarkFig10Scalability(b *testing.B) {
	for _, name := range []string{"parsec.canneal", "splash2x.barnes", "parsec.freqmine"} {
		prof, err := workloads.ParallelProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prof = bench.ScaleParallel(prof, benchScale)
		for _, threads := range []int{1, 4, 16} {
			for _, kind := range []backends.Kind{backends.Baseline, backends.DangSan} {
				b.Run(fmt.Sprintf("%s/t%d/%s", prof.Name, threads, kind), func(b *testing.B) {
					var footprint uint64
					for i := 0; i < b.N; i++ {
						det, err := bench.Options{}.NewDetector(kind, nil)
						if err != nil {
							b.Fatal(err)
						}
						p := proc.New(det)
						if err := workloads.RunParallel(p, prof, threads, 1); err != nil {
							b.Fatal(err)
						}
						footprint = p.MemoryFootprint()
					}
					b.ReportMetric(float64(footprint), "footprint-bytes")
				})
			}
		}
	}
}

// BenchmarkServers measures the web-server analogs (32 workers, as in the
// paper's ApacheBench configuration).
func BenchmarkServers(b *testing.B) {
	const requests = 2000
	for _, prof := range workloads.ServerProfiles() {
		for _, kind := range []backends.Kind{backends.Baseline, backends.DangSan, backends.DangNULL} {
			b.Run(fmt.Sprintf("%s/%s", prof.Name, kind), func(b *testing.B) {
				var footprint uint64
				for i := 0; i < b.N; i++ {
					det, err := bench.Options{}.NewDetector(kind, nil)
					if err != nil {
						b.Fatal(err)
					}
					p := proc.New(det)
					if err := workloads.RunServer(p, prof, 32, requests, 1); err != nil {
						b.Fatal(err)
					}
					footprint = p.MemoryFootprint()
				}
				b.ReportMetric(float64(footprint), "footprint-bytes")
				b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "req/s")
			})
		}
	}
}

// BenchmarkLookback sweeps the lookback window on the duplicate-heavy
// perlbench analog (§4.4).
func BenchmarkLookback(b *testing.B) {
	prof, err := workloads.SPECProfileByName("perlbench")
	if err != nil {
		b.Fatal(err)
	}
	prof = bench.ScaleSPEC(prof, benchScale)
	for _, lb := range []int{0, 1, 2, 4, 8, 12, pointerlog.MaxLookback} {
		b.Run(fmt.Sprintf("lookback%d", lb), func(b *testing.B) {
			var logBytes uint64
			for i := 0; i < b.N; i++ {
				cfg := pointerlog.DefaultConfig()
				cfg.Lookback = lb
				det := dangsan.NewWithConfig(cfg)
				p := proc.New(det)
				if err := workloads.RunSPEC(p, prof, 1); err != nil {
					b.Fatal(err)
				}
				logBytes = det.MetadataBytes()
			}
			b.ReportMetric(float64(logBytes), "metadata-bytes")
		})
	}
}

// BenchmarkCompression toggles pointer compression on the locality-heavy
// povray analog (§6).
func BenchmarkCompression(b *testing.B) {
	prof, err := workloads.SPECProfileByName("povray")
	if err != nil {
		b.Fatal(err)
	}
	prof = bench.ScaleSPEC(prof, benchScale)
	for _, comp := range []bool{false, true} {
		b.Run(fmt.Sprintf("compression=%v", comp), func(b *testing.B) {
			var logBytes uint64
			for i := 0; i < b.N; i++ {
				cfg := pointerlog.DefaultConfig()
				cfg.Compression = comp
				det := dangsan.NewWithConfig(cfg)
				p := proc.New(det)
				if err := workloads.RunSPEC(p, prof, 1); err != nil {
					b.Fatal(err)
				}
				logBytes = det.MetadataBytes()
			}
			b.ReportMetric(float64(logBytes), "metadata-bytes")
		})
	}
}

// BenchmarkMapper compares ptr2obj lookup cost: constant-time shadow memory
// versus the balanced tree DangNULL uses, across live-object counts (§4.3).
func BenchmarkMapper(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		tbl := shadow.NewTable()
		var tree rbtree.Tree
		for i := 0; i < n; i++ {
			base := vmem.HeapBase + uint64(i)*64
			tbl.CreateObject(base, 64, 8, uint64(i+1))
			tree.Insert(base, base+64, uint64(i+1))
		}
		span := uint64(n) * 64
		b.Run(fmt.Sprintf("shadow/n%d", n), func(b *testing.B) {
			addr := uint64(0)
			for i := 0; i < b.N; i++ {
				if tbl.Lookup(vmem.HeapBase+addr%span) == 0 {
					b.Fatal("miss")
				}
				addr += 4099 * 8
			}
		})
		b.Run(fmt.Sprintf("rbtree/n%d", n), func(b *testing.B) {
			addr := uint64(0)
			for i := 0; i < b.N; i++ {
				if _, ok := tree.LookupContaining(vmem.HeapBase + addr%span); !ok {
					b.Fatal("miss")
				}
				addr += 4099 * 8
			}
		})
	}
}
