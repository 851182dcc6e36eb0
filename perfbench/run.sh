#!/usr/bin/env bash
# Build the sama CLI and the benchmark from this checkout, then run the
# benchmark with the arguments given, e.g.
#   bash perfbench/run.sh --workload lubm3k-query --seed 42 --seconds 20 --trace 0
# Both builds go to $CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sama
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
mkdir -p "$here/results"
exec "$target/release/perfbench" --sama "$target/release/sama" --root "$root" \
    --out "$here/results" "$@"
