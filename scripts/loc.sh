#!/usr/bin/env bash
# Non-test Rust lines per crate, plus the total.
#
# For every `.rs` file under `crates/<name>/src`, count the lines before the
# file's first `#[cfg(test)]` (in-file unit-test modules sit at the bottom by
# convention). Integration tests under `crates/<name>/tests` are excluded.
#
# Usage: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { in_tests = 0 }
                      /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
                      !in_tests { n++ }
                      END { print n + 0 }')
    printf '%-12s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-12s %7d\n' total "$total"
