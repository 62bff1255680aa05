#!/bin/sh
# The gate: formatting, clippy, the ldp-lint determinism/panic-safety
# pass (DESIGN.md "Correctness invariants"), the whole test suite, the
# hotpath microbench, the four deterministic studies compared against
# their committed results/, and the end-to-end benchmark's self-check.
# Everything is built by cargo from this checkout; every output goes
# under target/, so a run leaves `git status` clean. Run before sending
# a PR.
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
cd "$root" || exit 2
bin=${CARGO_TARGET_DIR:-target}/release
out=${CARGO_TARGET_DIR:-target}/gate
mkdir -p "$out"
fail=0

note() { printf '== %s\n' "$*"; }
# step <title> <command...>: run it, record a failure, keep going.
step() {
    note "$1"
    shift
    "$@" || { note "FAILED: $*"; fail=1; }
}

step "cargo fmt --check" cargo fmt --all --check
step "cargo clippy (denies unwrap/expect/panic in hot-path crates)" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo build --release" cargo build --release --workspace -q

step "ldp-lint" "$bin/ldp-lint" check

# The full output is kept, so a one-off failure leaves its name behind;
# through a file and not a pipe into `tee`, so the status is cargo's.
tested() {
    cargo test --workspace -q > "$out/test.log" 2>&1
    status=$?
    cat "$out/test.log"
    return "$status"
}
step "cargo test (output in $out/test.log)" tested

step "hotpath microbench (telemetry overhead budget inside)" \
    "$bin/hotpath" "$out/BENCH_hotpath.json"

# The studies are deterministic and self-gating (non-zero exit when a
# determinism / resilience / dedup / recovery gate fails); their full
# output must equal the committed figure byte for byte.
study() {
    note "$1 vs results/$1.txt"
    "$bin/$@" > "$out/$1.txt" && cmp "$out/$1.txt" "results/$1.txt" ||
        { note "FAILED: $* (stale results/$1.txt, or a gate inside it)"; fail=1; }
}
study fig_outage
study fig_cache
study fig_recovery
study fig_trace

step "benchmark self-check (smoke scale: outputs verified, no bounds)" \
    sh benchmark/selfcheck.sh --quick

# Presence and ratio gates over the hotpath report.
num() {
    awk -F: -v key="\"$1\"" '$1 ~ key { gsub(/[ ,]/, "", $2); print int($2); exit }' \
        "$out/BENCH_hotpath.json" 2>/dev/null
}
for key in encode_msgs_per_sec decode_msgs_per_sec name_cmp_per_sec name_decode_per_sec \
    template_answers_per_sec \
    cache_hit_per_sec cache_delayed_hit_per_sec cache_miss_per_sec \
    sharded_events_per_sec_1 sharded_events_per_sec_2 \
    sharded_events_per_sec_8 nxdomain_answers_per_sec_100 nxdomain_answers_per_sec_20000 \
    view_select_per_sec_16 view_select_per_sec_4096 sim_complete_per_sec_16 \
    sim_complete_per_sec_32768; do
    v=$(num "$key")
    [ -n "$v" ] || { note "FAILED: $key missing from BENCH_hotpath.json"; fail=1; }
    eval "$key=\${v:-0}"
    note "$key: ${v:-missing}"
done
# The scratch-reuse encoder must stay at least as fast as decode, and
# a warm cache hit at least as fast as the full miss path.
[ "$encode_msgs_per_sec" -ge "$decode_msgs_per_sec" ] ||
    { note "FAILED: encode slower than decode"; fail=1; }
[ "$cache_hit_per_sec" -ge "$cache_miss_per_sec" ] ||
    { note "FAILED: cache hit slower than cache miss"; fail=1; }

# No per-query step may iterate a whole table (DESIGN.md §7): each pair
# is one step over a small and a large table, timed in one process, so
# machine noise cancels. A tree probe costs about 3x more over the large
# table (log 4096 / log 16; measured ratios 0.25-0.8), a scan 200x or
# more (measured on the pre-PR-15 code: 0.002, 0.004, 0.03), so the
# large-table rate must stay above a tenth of the small-table one.
scales() {
    [ $(( $2 * 10 )) -ge "$1" ] ||
        { note "FAILED: $3 falls with table size ($1/s small, $2/s large): a scan"; fail=1; }
}
scales "$nxdomain_answers_per_sec_100" "$nxdomain_answers_per_sec_20000" "NXDOMAIN answer"
scales "$view_select_per_sec_16" "$view_select_per_sec_4096" "view selection"
scales "$sim_complete_per_sec_16" "$sim_complete_per_sec_32768" "sim replay completion"

[ "$fail" -eq 0 ] && note "static analysis OK" || note "static analysis FAILED"
exit "$fail"
