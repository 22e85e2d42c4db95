#!/usr/bin/env bash
# Non-test Rust lines under crates/ src/ vendor/, by the rule every
# subtraction PR since PR 12 has quoted: skip tests/ directories, count each
# file up to its first #[cfg(test)]. Prints one line per crate and a total;
# CHANGES.md quotes this script's number, CI prints it (not gated).
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src vendor -name '*.rs' -not -path '*/tests/*' -print0 |
    sort -z |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting {
            n = split(FILENAME, part, "/")
            unit = (part[1] == "src") ? "src" : part[1] "/" part[2]
            lines[unit]++
            total++
        }
        END {
            for (unit in lines) printf "%7d  %s\n", lines[unit], unit | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
