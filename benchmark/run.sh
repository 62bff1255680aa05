#!/bin/sh
# Build the harness if it is missing or older than a source file, then
# run it. Arguments go to the harness unchanged:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
#
# Without --workload the three workloads of BENCHMARK.json run in turn
# (broot_udp_x2 runs by name only: README "Workloads"). The last line
# of each run's standard output is its result object.
set -eu

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
cd "$root"

bin=${CARGO_TARGET_DIR:-target}/benchmark/ldp-benchmark
if [ ! -x "$bin" ] || [ -n "$(find benchmark/benches benchmark/Cargo.toml benchmark/build.sh crates offline \
        -type f -newer "$bin" 2>/dev/null | head -n 1)" ]; then
    sh benchmark/build.sh
fi

LDP_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
LDP_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export LDP_BENCH_RUSTC LDP_BENCH_COMMIT

case " $* " in
*" --workload "* | *" --catalogue "*) exec "$bin" "$@" ;;
esac
for w in broot_auth rec_hot rec_wide; do
    "$bin" --workload "$w" "$@"
done
