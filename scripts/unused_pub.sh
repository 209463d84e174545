#!/bin/sh
# Public functions nothing calls.
#
# Prints every `pub fn` under `crates/*/src` and `src/` whose name occurs
# as a whole token nowhere else in the `.rs` files under `crates/`, `src/`,
# `tests/`, `examples/` or `perfbench/`: the name's only occurrences are its
# definitions. Exits 1 if it printed any.
#
# Usage: scripts/unused_pub.sh [repo root, default: the current directory]
set -eu
cd "${1:-.}"
ident='[A-Za-z_][A-Za-z0-9_]*'
defs=$(find crates/*/src src -name '*.rs' -type f -exec cat {} + |
    grep -o "pub fn $ident" | sed 's/^pub fn //' | sort | uniq -c)
tokens=$(find crates src tests examples perfbench -name '*.rs' -type f \
    -not -path '*/target/*' -exec cat {} + | grep -o "$ident" | sort | uniq -c)
unused=$(printf '%s\n--\n%s\n' "$defs" "$tokens" | awk '
    $1 == "--" { tokens = 1; next }
    !tokens { defs[$2] = $1; next }
    ($2 in defs) && $1 <= defs[$2] { print $2 }
')
[ -z "$unused" ] && exit 0
echo "$unused"
exit 1
