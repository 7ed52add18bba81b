#!/bin/sh
# Prints, for each file given, the number of code lines it ships: lines
# before the file's first `#[cfg(test)]` that are neither blank nor a
# `//` comment (doc comments included). The measure the simplicity PRs
# report; directories are searched for `*.rs`.
#
#   scripts/loc.sh crates/api/src/request.rs crates/api/src
set -eu
[ "$#" -gt 0 ] || { echo "usage: $0 <file-or-dir>..." >&2; exit 1; }
find "$@" -type f -name '*.rs' | sort | xargs awk '
    FNR == 1 { if (file != "") report(); file = FILENAME; count = 0; testing = 0 }
    /#\[cfg\(test\)\]/ { testing = 1 }
    !testing && !/^[[:space:]]*(\/\/|$)/ { count++ }
    function report() { printf "%6d %s\n", count, file; total += count }
    END { if (file != "") { report(); printf "%6d total\n", total } }
'
