#!/usr/bin/env bash
# The command of BENCHMARK.json: build eshbench from source and run it
# from the repo root, passing the driver's flags through
# (--workload, --seed, --seconds, --trace).
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, the built binaries and the per-run temp dir all
# live under .bench_build/ (listed in .gitignore). eshbench itself
# builds eshcorpus, eshd and eshgw into the same directory.
set -euo pipefail
cd "$(dirname "$0")/../.."
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -o .bench_build/bin/eshbench ./cmd/eshbench
exec .bench_build/bin/eshbench "$@"
