#!/usr/bin/env bash
# Build the benchmark, run the 5% suite twice and compare the two result
# sets. A later PR calls this from .github/workflows/ci.yml; against a
# stored artifact of the parent commit the second run becomes
#   go run ./benchmark compare parent.json "$out/b.json"
# At 5% a run lasts a fraction of a second, so compare gates failed_share,
# degraded_share where it must be 0 and footprint_bytes, and only reports
# the timings: the bounds on those were calibrated on full-size runs.
# Run from the repository root.
set -euo pipefail

out="${1:-.bench_build/ci}"
mkdir -p "$out"
go build -o "$out/benchmark" ./benchmark
"$out/benchmark" -scale 0.05 -json "$out/a.json"
"$out/benchmark" -scale 0.05 -json "$out/b.json"
"$out/benchmark" compare "$out/a.json" "$out/b.json"
