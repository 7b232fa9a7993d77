#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is the JSON result
#   benchmark/run.sh --repeat <n> [--workload <name>] [--seconds <s>]
#       n runs per workload on seeds 1..n, with medians, quartiles and spreads
#   benchmark/run.sh
#       the canonical pair: every workload on seed 1, untraced then traced
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for arg in "$@"; do
    if [ "$arg" = "--repeat" ]; then
        exec python3 "$here/spread.py" "$@"
    fi
done

# cargo reads benchmark/.cargo/config.toml only from inside benchmark/, and
# takes a relative CARGO_TARGET_DIR from the working directory: make it
# absolute, then build without leaving the caller's directory.
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/rain-benchmark"
if [ "$#" -eq 0 ]; then
    "$bin" --workload all --seed 1 --trace 0
    exec "$bin" --workload all --seed 1 --trace 1
fi
exec "$bin" "$@"
