#!/usr/bin/env bash
# Where the code still reads or spends the OS clock (ROADMAP item 2: "anything
# still on real time is a hole in the argument"). Counts the lines matching
# `Instant::now|thread::sleep|yield_now` in every Rust file under crates/*/src
# and src (test modules included), prints the table, and fails when a file
# exceeds its ceiling in ci/real_time_ceiling.txt or is not listed there at
# all: a new real-time site has to be argued for by raising a ceiling in the
# same change. A PR that removes sites lowers the ceiling with them.
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling_file=ci/real_time_ceiling.txt
status=0
total=0
printf '%5s %7s  %s\n' sites ceiling file
while IFS=: read -r file count; do
    [ "$count" -eq 0 ] && continue
    ceiling=$(awk -v f="$file" '$2 == f { print $1 }' "$ceiling_file")
    printf '%5d %7s  %s\n' "$count" "${ceiling:--}" "$file"
    total=$((total + count))
    if [ -z "$ceiling" ]; then
        echo "  ^ not in $ceiling_file: a new file on real time"
        status=1
    elif [ "$count" -gt "$ceiling" ]; then
        echo "  ^ above its ceiling"
        status=1
    fi
done < <(grep -rcE 'Instant::now|thread::sleep|yield_now' crates/*/src src --include='*.rs' | sort)
printf '%5d          total\n' "$total"
[ "$status" -eq 0 ] && echo "real-time sites within their ceilings OK"
exit "$status"
