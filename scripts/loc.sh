#!/usr/bin/env bash
# Non-test Rust lines per crate, plus the total; or, given file paths,
# non-test lines per named file.
#
# For every `.rs` file, count the lines before the file's first
# `#[cfg(test)]` (in-file unit-test modules sit at the bottom by
# convention). Integration tests under `crates/<name>/tests` are excluded
# from the per-crate counts.
#
# Usage: bash scripts/loc.sh                 # per crate
#        bash scripts/loc.sh FILE.rs...      # per file
set -euo pipefail

non_test='FNR == 1 { in_tests = 0 }
          /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
          !in_tests { n++ }
          END { print n + 0 }'

if [ $# -gt 0 ]; then
    for file in "$@"; do
        printf '%-40s %7d\n' "$file" "$(awk "$non_test" "$file")"
    done
    exit 0
fi

cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk "$non_test")
    printf '%-12s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-12s %7d\n' total "$total"
