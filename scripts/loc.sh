#!/bin/sh
# Net non-test code lines, per crate and in total.
#
# Counts lines of the `.rs` files under `crates/*/src` and `src/` that are
# not blank and do not start with `//` after indentation, reading each file
# only up to its first `#[cfg(test)]` in column 0. Tests, benches, examples
# and doc comments are not counted. Prints only; there is no threshold.
#
# Usage: scripts/loc.sh [repo root, default: the current directory]
set -eu
cd "${1:-.}"
count() {
    find "$@" -name '*.rs' -type f -exec awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[ \t]*$/ && !/^[ \t]*\/\// { n++ }
        END { print n + 0 }
    ' {} + | awk '{ n += $1 } END { print n + 0 }'
}
total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    name=$(basename "$(dirname "$dir")")
    [ "$dir" = src ] && name=src
    n=$(count "$dir")
    printf '%-10s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
