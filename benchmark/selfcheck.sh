#!/bin/sh
# Run two complete sets of end-to-end runs back to back and compare
# them: one row per metric and workload with both values and the
# relative difference, non-zero exit when a pair differs by more than
# the metric's bound in BENCHMARK.json.
#
#   benchmark/selfcheck.sh [--quick] [--seed S] [--seconds N]
#
# --quick is a smoke run (scale / 16, three repetitions): the table is
# printed and outputs are verified, but no bound is applied.
set -eu

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
cd "$root"

quick=0
for a in "$@"; do [ "$a" = "--quick" ] && quick=1; done
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
case " $* " in *" --seconds "*) ;; *) set -- "$@" --seconds "$seconds" ;; esac

tmp=${CARGO_TARGET_DIR:-target}/benchmark/selfcheck
mkdir -p "$tmp"
rm -f "$tmp/exceeded"

# name=value lines of one result object
values() { tail -n 1 "$1" | grep -o '"[A-Za-z0-9_.-]*": {"value": [-0-9.e]*' | sed 's/"\([^"]*\)": {"value": /\1=/'; }
# bound of an end-to-end metric
bound() { sed -n "s/.*\"name\": *\"$1\".*\"bound\": *\([0-9.]*\).*/\1/p" BENCHMARK.json | head -n 1; }

fail=0
for set in 1 2; do
    for w in broot_auth rec_hot rec_wide; do
        echo "selfcheck: set $set, $w" >&2
        if ! sh benchmark/run.sh --workload "$w" --trace 0 "$@" > "$tmp/$w.$set.out"; then
            echo "selfcheck: $w failed in set $set (see $tmp/$w.$set.out)" >&2
            fail=1
        fi
    done
done

printf '%-14s %-24s %16s %16s %9s %7s\n' workload metric first second diff bound
for w in broot_auth rec_hot rec_wide; do
    values "$tmp/$w.1.out" | while IFS='=' read -r name first; do
        second=$(values "$tmp/$w.2.out" | sed -n "s/^$name=//p")
        b=$(bound "$name")
        awk -v w="$w" -v n="$name" -v a="$first" -v b="$second" -v bound="${b:-0}" -v quick="$quick" 'BEGIN {
            d = (a == 0) ? 0 : (b - a) / a; if (d < 0) d = -d
            over = (!quick && d > bound)
            printf "%-14s %-24s %16.4f %16.4f %8.2f%% %6.1f%%%s\n", w, n, a, b, d * 100, bound * 100, over ? "  EXCEEDED" : ""
            exit over
        }' || echo "$w $name" >> "$tmp/exceeded"
    done
done
if [ -s "$tmp/exceeded" ]; then
    echo "selfcheck: bound exceeded for:" >&2
    cat "$tmp/exceeded" >&2
    rm -f "$tmp/exceeded"
    fail=1
fi
exit "$fail"
