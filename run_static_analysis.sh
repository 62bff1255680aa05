#!/bin/sh
# The gate: formatting, clippy (which holds the determinism and
# panic-safety invariants, DESIGN.md §7), rustdoc's link check, a
# registry-free Cargo.lock, the whole test suite, the scan gate, the
# four deterministic studies and the paper's five deterministic figures
# compared against their committed results/, and the end-to-end
# benchmark's self-check. Every step decides for itself: nothing here
# judges a time or compares runs. Last it prints the tree's three sizes,
# which decide nothing. Everything is built by cargo from
# this checkout; every output goes under target/, so a run leaves
# `git status` clean. Run before sending a PR.
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
step "cargo clippy (DESIGN §7: wall clock, hash order, unbounded channels, panics)" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo build --release" cargo build --release --workspace -q
# An intra-doc link to a deleted item turns the gate red instead of
# rotting.
step "cargo doc (broken intra-doc links are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# No registry package, so no ambient-entropy crate (rule D3): every
# Cargo.lock entry is a path package, and a path package has no
# `source =` line.
step "Cargo.lock has no registry package" \
    sh -c '! grep -n "^source = " Cargo.lock'

# The full output is kept, so a one-off failure leaves its name behind;
# through a file and not a pipe into `tee`, so the status is cargo's.
tested() {
    cargo test --workspace -q > "$out/test.log" 2>&1
    status=$?
    cat "$out/test.log"
    return "$status"
}
step "cargo test (output in $out/test.log)" tested

step "scan gate (no per-query step scans a table: small/large ratios)" \
    "$bin/scan_gate"

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
# The paper's deterministic figures, each at the scale its file was made
# at (the binaries' defaults). fig11, fig13_14 and fig15 run the server
# engine over UDP, TCP and TLS with DO, so they also hold its replies.
study table1
study fig10
study fig11
study fig13_14
study fig15

step "benchmark self-check (smoke scale: outputs verified, no bounds)" \
    sh benchmark/selfcheck.sh --quick

# Information only, never a failure: the sizes a change reports.
# `crates/*/src` code lines are the lines before a file's first
# column-0 `#[cfg(test)]` (a test module; an indented one marks a
# test-only item inside product code) that are neither blank nor `//`;
# test lines are every `.rs` line under `crates/*/tests` and `tests/`;
# the last is every `.rs` line outside build directories.
note "size (information only)"
src_lines=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
test_lines=$(find crates/*/tests tests -name '*.rs' -exec cat {} + | wc -l)
rust_lines=$(find . \( -name target -o -name .git -o -name .bench_build \) -prune -o \
    -name '*.rs' -exec cat {} + | wc -l)
printf 'crates/*/src code lines: %s\ntest lines: %s\nall Rust lines: %s\n' \
    "$src_lines" "$test_lines" "$rust_lines"

[ "$fail" = 0 ] && note "static analysis OK" || note "static analysis FAILED"
exit "$fail"
