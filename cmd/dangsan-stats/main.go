// Command dangsan-stats pretty-prints a JSON metrics snapshot written by
// `dangsan-bench -metrics` or `dangsan-serve -metrics`.
//
// Usage:
//
//	dangsan-stats <snapshot.json|->
//
// where "-" reads the snapshot from stdin. Every counter, gauge and
// histogram in the snapshot is printed, the service.* and per-shard
// service.shardN.* gauges of a dangsan-serve run included.
package main

import (
	"fmt"
	"io"
	"os"

	"dangsan/internal/obs"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: dangsan-stats <snapshot.json|->")
		os.Exit(1)
	}
	var data []byte
	var err error
	if path := os.Args[1]; path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	check(err)
	snap, err := obs.ParseSnapshot(data)
	check(err)
	fmt.Print(snap.Format())
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-stats: %v\n", err)
		os.Exit(1)
	}
}
