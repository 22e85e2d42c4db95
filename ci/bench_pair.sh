#!/usr/bin/env bash
# Measures this checkout against a parent revision the way a performance
# claim has to be made: whole benchmark runs of the two builds in
# alternating pairs (which side goes first swaps every pair, so the host's
# drift lands on both), then one `compare` over all of them.
#
#   ci/bench_pair.sh <parent-rev> [pairs=10]
#
# The parent is exported with `git archive` into .bench_pair/parent and
# built from there, each side into a target directory of its own, so
# nothing is rebuilt between runs and nothing under benchmark/ changes.
# Results: .bench_pair/out/{parent,change}/<i>/run-seed1.json, one log per
# run beside them ($BENCH_PAIR_DIR moves .bench_pair elsewhere). About
# four minutes a pair.
set -euo pipefail

rev="${1:?usage: ci/bench_pair.sh <parent-rev> [pairs=10]}"
pairs="${2:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${BENCH_PAIR_DIR:-$root/.bench_pair}"

rm -rf "$work/parent" "$work/out"
mkdir -p "$work/parent" "$work/out"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

run_side() {
    local side="$1" i="$2" tree="$root"
    if [ "$side" = parent ]; then tree="$work/parent"; fi
    echo "pair $i/$pairs: $side" >&2
    CARGO_TARGET_DIR="$work/target-$side" bash "$tree/benchmark/run.sh" \
        --out-dir "$work/out/$side/$i" >"$work/out/$side-$i.log" 2>&1 ||
        { echo "$side run $i failed, see $work/out/$side-$i.log" >&2; exit 1; }
}

for i in $(seq 1 "$pairs"); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run_side "$side" "$i"
    done
done

CARGO_TARGET_DIR="$work/target-change" bash "$root/benchmark/run.sh" \
    compare "$work/out/parent" "$work/out/change"
