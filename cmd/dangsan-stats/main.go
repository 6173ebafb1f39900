// Command dangsan-stats runs one SPEC analog under DangSan and prints its
// Table 1-style statistics, optionally comparing DangNULL's coverage.
//
// Usage:
//
//	dangsan-stats [-scale 1.0] [-seed 1] [-compare] <benchmark>
//	dangsan-stats metrics <snapshot.json|->
//	dangsan-stats service <snapshot.json|->
//
// where <benchmark> is a SPEC name like 403.gcc or gcc, or "all". The
// "metrics" form pretty-prints a JSON snapshot written by
// `dangsan-bench -metrics` ("-" reads stdin); the "service" form renders
// the supervision gauges of a `dangsan-serve -metrics` snapshot — request
// and degraded counters, failover and replay totals, and a per-shard
// table of heartbeat age and failovers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dangsan/internal/bench"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/obs"
	"dangsan/internal/proc"
	"dangsan/internal/workloads"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	seed := flag.Int64("seed", 1, "workload random seed")
	compare := flag.Bool("compare", false, "also run DangNULL for coverage comparison")
	flag.Parse()
	if flag.NArg() == 2 && flag.Arg(0) == "metrics" {
		printMetrics(flag.Arg(1))
		return
	}
	if flag.NArg() == 2 && flag.Arg(0) == "service" {
		printService(flag.Arg(1))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dangsan-stats [flags] <benchmark|all> | dangsan-stats metrics|service <file|->")
		os.Exit(1)
	}

	var profs []workloads.SPECProfile
	if flag.Arg(0) == "all" {
		profs = workloads.SPECProfiles()
	} else {
		p, err := workloads.SPECProfileByName(flag.Arg(0))
		check(err)
		profs = []workloads.SPECProfile{p}
	}

	for _, prof := range profs {
		prof = bench.ScaleSPEC(prof, *scale)

		d := dangsan.New()
		p := proc.New(d)
		check(workloads.RunSPEC(p, prof, *seed))
		s := d.Stats()
		d.Close()
		fmt.Printf("%s\n", prof.Name)
		fmt.Printf("  objects tracked:  %d\n", s.ObjectsTracked)
		fmt.Printf("  hash tables:      %d\n", s.HashTables)
		fmt.Printf("  ptrs registered:  %d\n", s.Registered)
		fmt.Printf("  ptrs invalidated: %d\n", s.Invalidated)
		fmt.Printf("  stale entries:    %d\n", s.Stale)
		fmt.Printf("  duplicates:       %d\n", s.Duplicates)
		fmt.Printf("  compressed:       %d\n", s.Compressed)
		fmt.Printf("  log bytes:        %d\n", s.LogBytes)

		if *compare {
			dn := dangnull.New()
			check(workloads.RunSPEC(proc.New(dn), prof, *seed))
			reg, inv := dn.Stats()
			fmt.Printf("  dangnull ptrs:    %d\n", reg)
			fmt.Printf("  dangnull inval:   %d\n", inv)
		}
	}
}

// printMetrics renders a dangsan-bench -metrics snapshot for humans.
func printMetrics(path string) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	check(err)
	snap, err := obs.ParseSnapshot(data)
	check(err)
	fmt.Print(snap.Format())
}

// printService renders the supervision view of a dangsan-serve -metrics
// snapshot: the service.* gauges registered by the sharded service.
func printService(path string) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	check(err)
	snap, err := obs.ParseSnapshot(data)
	check(err)
	g := snap.Gauges
	if _, ok := g["service.requests"]; !ok {
		check(fmt.Errorf("%s has no service.* gauges (not a dangsan-serve snapshot?)", path))
	}
	fmt.Printf("service\n")
	fmt.Printf("  requests:        %d\n", g["service.requests"])
	fmt.Printf("  degraded:        %d\n", g["service.degraded_requests"])
	fmt.Printf("  retries:         %d\n", g["service.retries"])
	fmt.Printf("  timeouts:        %d\n", g["service.timeouts"])
	fmt.Printf("  failovers:       %d\n", g["service.failovers"])
	fmt.Printf("  replayed objs:   %d\n", g["service.replayed_objects"])
	fmt.Printf("  heartbeat miss:  %d\n", g["service.heartbeat_misses"])
	fmt.Printf("  worker panics:   %d\n", g["service.worker_panics"])
	fmt.Printf("  abandoned:       %d\n", g["service.abandoned_workers"])
	fmt.Printf("  replay errors:   %d\n", g["service.replay_errors"])
	// turn contended/parked: sends that found the shard's turn taken, and
	// those of them that outlasted the poll budget (in-process workers).
	// wire direct/polled: wire exchanges on a blocking socket, and those
	// that went through the netpoller because callers outnumbered Ps.
	fmt.Printf("  %-6s %-12s %-10s %-15s %-12s %-12s %-12s\n", "shard", "hb age", "failovers", "turn contended", "turn parked", "wire direct", "wire polled")
	for i := 0; ; i++ {
		age, ok := g[fmt.Sprintf("service.shard%d.heartbeat_age_ms", i)]
		if !ok {
			break
		}
		fmt.Printf("  %-6d %-12s %-10d %-15d %-12d %-12d %-12d\n", i, fmt.Sprintf("%dms", age),
			g[fmt.Sprintf("service.shard%d.failovers", i)],
			g[fmt.Sprintf("service.shard%d.turn_contended", i)],
			g[fmt.Sprintf("service.shard%d.turn_parked", i)],
			g[fmt.Sprintf("service.shard%d.wire_direct", i)],
			g[fmt.Sprintf("service.shard%d.wire_polled", i)])
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-stats: %v\n", err)
		os.Exit(1)
	}
}
