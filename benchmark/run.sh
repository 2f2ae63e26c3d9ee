#!/usr/bin/env bash
# simbench entry point: builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--smoke] [--aa]      the whole suite
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                     one run, as the driver calls it
#
# Works from any directory; the benchmark itself runs from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

# Cargo's progress goes to standard error; standard output stays the benchmark's.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

cd "$here/.."
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$target/release/simbench" "$@"
    fi
done
exec "$target/release/simbench" suite "$@"
