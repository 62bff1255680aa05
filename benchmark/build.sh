#!/bin/sh
# Build the benchmark harness into $CARGO_TARGET_DIR/benchmark/ldp-benchmark
# (default target/benchmark/). Run from anywhere; paths are relative
# to the repository root (the parent of this directory).
#
# Two routes, tried in order:
#  1. cargo, when `cargo metadata --offline` resolves benchmark/Cargo.toml
#     (it does once the workspace is std-only; today the registry crates
#     rand/bytes/crossbeam/tokio are unreachable here).
#  2. bare rustc: every workspace crate the harness needs is compiled to
#     an rlib in dependency order. The order is read from the crates'
#     own Cargo.toml files, so added crates and edges need no edit here.
#     A crate root is offline/<dir>_offline.rs when that shim exists
#     (the tokio-free module lists), else crates/<dir>/src/lib.rs. A
#     registry crate is built from offline/stubs/<name>.rs when that
#     exists and skipped otherwise.
# Build time is printed on stderr and is never part of setup_s.
set -eu

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
cd "$root"
[ -d crates ] || { echo "build.sh: no crates/ next to benchmark/ - nothing to measure" >&2; exit 2; }

target=${CARGO_TARGET_DIR:-target}
out=$target/benchmark
bin=$out/ldp-benchmark
mkdir -p "$out/tmp"
# rustc and the linker write scratch files to TMPDIR; keep them in the tree.
TMPDIR=$(CDPATH= cd -- "$out/tmp" && pwd)
export TMPDIR

t0=$(date +%s)

if cargo metadata --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null 2>&1; then
    echo "build.sh: cargo route" >&2
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
    cp "$target/release/ldp-benchmark" "$bin"
    echo "build.sh: built $bin in $(( $(date +%s) - t0 )) s" >&2
    exit 0
fi

echo "build.sh: cargo cannot resolve offline; bare rustc route" >&2
lib=$out/lib
mkdir -p "$lib"
rc() { rustc --edition 2021 -C opt-level=3 -C debuginfo=0 --cap-lints allow -L "dependency=$lib" "$@"; }

# name of the package in crates/<dir>
pkg_name() { sed -n '/^\[package\]/,/^\[/s/^name *= *"\(.*\)"/\1/p' "crates/$1/Cargo.toml" | head -n 1; }
# keys of [dependencies] (and [dependencies.<key>] tables) in a manifest
dep_keys() {
    awk '
        /^\[dependencies\.[^]]+\]/ { s = $0; sub(/^\[dependencies\./, "", s); sub(/\].*/, "", s); print s; indeps = 0; next }
        /^\[/ { indeps = ($0 == "[dependencies]"); next }
        indeps && /^[A-Za-z0-9_-]+/ { k = $0; sub(/[ .=].*/, "", k); print k }
    ' "$1"
}

# dir -> package table for the workspace
table=$out/tmp/crates.txt
: > "$table"
for m in crates/*/Cargo.toml; do
    d=$(basename "$(dirname "$m")")
    echo "$d $(pkg_name "$d")" >> "$table"
done
dir_of() { awk -v p="$1" '$2 == p { print $1 }' "$table"; }

# transitive closure of the harness's own dependencies
need=$(dep_keys benchmark/Cargo.toml)
while :; do
    more=$need
    for p in $need; do
        d=$(dir_of "$p")
        [ -n "$d" ] && more="$more $(dep_keys "crates/$d/Cargo.toml")"
    done
    more=$(printf '%s\n' $more | sort -u | tr '\n' ' ')
    [ "$more" = "$need" ] && break
    need=$more
done

externs=""
built=""
# registry crates: stubs when present
for p in $need; do
    [ -n "$(dir_of "$p")" ] && continue
    if [ -f "offline/stubs/$p.rs" ]; then
        rc --crate-type lib --crate-name "$p" --out-dir "$lib" "offline/stubs/$p.rs"
        externs="$externs --extern $p=$lib/lib$p.rlib"
    fi
    built="$built $p"
done

# workspace crates in waves: a crate is ready when every dependency is
# built; the crates of one wave compile side by side.
todo=""
for p in $need; do [ -n "$(dir_of "$p")" ] && todo="$todo $p"; done
while [ -n "$(echo $todo)" ]; do
    wave=""
    rest=""
    for p in $todo; do
        d=$(dir_of "$p")
        ready=1
        for q in $(dep_keys "crates/$d/Cargo.toml"); do
            case " $built " in *" $q "*) ;; *) ready=0 ;; esac
        done
        if [ "$ready" = 1 ]; then wave="$wave $p"; else rest="$rest $p"; fi
    done
    [ -n "$wave" ] || { echo "build.sh: dependency cycle among:$todo" >&2; exit 2; }
    pids=""
    for p in $wave; do
        d=$(dir_of "$p")
        src=crates/$d/src/lib.rs
        shim=offline/$(echo "$d" | tr - _)_offline.rs
        [ -f "$shim" ] && src=$shim
        name=$(echo "$p" | tr - _)
        # shellcheck disable=SC2086
        rc --crate-type lib --crate-name "$name" --out-dir "$lib" $externs "$src" &
        pids="$pids $!"
    done
    for pid in $pids; do wait "$pid"; done
    for p in $wave; do
        name=$(echo "$p" | tr - _)
        externs="$externs --extern $name=$lib/lib$name.rlib"
        built="$built $p"
    done
    todo=$rest
done

# shellcheck disable=SC2086
rc --crate-name ldp_benchmark -o "$bin" $externs benchmark/benches/main.rs
echo "build.sh: built $bin in $(( $(date +%s) - t0 )) s" >&2
