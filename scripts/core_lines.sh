#!/bin/sh
# Non-test lines of `crates/core`: the definition ROADMAP item 1 counts by.
#
#   scripts/core_lines.sh [<src-dir>...]      # default: crates/core/src
#   scripts/core_lines.sh crates/*/src        # the whole workspace
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (every file that has tests keeps them at the bottom, behind that
# attribute); a file without one counts whole. Comments and blank lines
# count: a reduction bought by deleting reason-giving comments or by
# denser formatting is not one. Prints one row per `**/*.rs` under the
# directories, then the total.
set -eu

[ $# -gt 0 ] || { cd "$(dirname "$0")/.." && set -- crates/core/src; }

find "$@" -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d  %s\n", n, f }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
