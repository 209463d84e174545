#!/bin/sh
# Named code anchors in the docs that no longer point at their name.
#
# Reads README.md, DESIGN.md, ROADMAP.md, EXPERIMENTS.md and the `.md`
# files under docs/ with line breaks folded into spaces, and checks every
# anchor of the forms `Name` (`path:line`), `Name` at `path:line` and
# `Name`, `path:line`. A path is read from the repository root or, if no
# file is there, as the one `.rs` file under crates/, src/, tests/,
# examples/ or perfbench/ whose path ends in it. An anchor is stale when
# that file does not exist (or the short path names several) or its line
# does not contain the last `::` segment of the name. Prints each stale
# anchor and exits 1 if there is one.
#
# Usage: scripts/anchors.sh [repo root, default: the current directory]
set -eu
cd "${1:-.}"
sources=$(find crates src tests examples perfbench -name '*.rs' -type f \
    -not -path '*/target/*')
stale=0
checked=0
for doc in README.md DESIGN.md ROADMAP.md EXPERIMENTS.md $(find docs -name '*.md' -type f | sort); do
    anchors=$(tr '\n' ' ' <"$doc" | tr -s ' ' |
        grep -oE '`[^` ]+`( \(| at |, )`[^` ]+:[0-9]+`' |
        sed -E 's/^`([^`]+)`.*`([^`]+):([0-9]+)`$/\1 \2 \3/')
    while read -r name path line; do
        [ -n "$name" ] || continue
        checked=$((checked + 1))
        file=$path
        if [ ! -f "$file" ]; then
            file=$(printf '%s\n' "$sources" | grep -E "(^|/)$path\$" || true)
        fi
        segment=${name##*::}
        segment=${segment%"()"}
        if [ -z "$file" ]; then
            why="no such file"
        elif [ "$(printf '%s\n' "$file" | wc -l)" -ne 1 ]; then
            why="names $(printf '%s\n' "$file" | wc -l) files"
        elif sed -n "${line}p" "$file" | grep -qF -- "$segment"; then
            continue
        else
            why="line $line does not contain $segment"
        fi
        echo "$doc: \`$name\` -> $path:$line: $why"
        stale=$((stale + 1))
    done <<EOF
$anchors
EOF
done
echo "$stale of $checked anchors stale"
[ "$stale" -eq 0 ]
