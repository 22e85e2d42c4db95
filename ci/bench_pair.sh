#!/usr/bin/env bash
# Measures this checkout against a parent revision the way a performance
# claim has to be made: whole benchmark runs of the two builds in
# alternating pairs (which side goes first swaps every pair, so the host's
# drift lands on both), then one `compare` over all of them.
#
#   ci/bench_pair.sh <parent-rev> [pairs=10] [n]
#
# The parent is exported with `git archive` into .bench_pair/parent and
# built from there, each side into a target directory of its own, so
# nothing is rebuilt between runs and nothing under benchmark/ changes.
# Results: .bench_pair/out/{parent,change}/<i>/run-seed1.json, one log per
# run beside them ($BENCH_PAIR_DIR moves .bench_pair elsewhere). About
# four minutes a pair.
#
# The `compare` table is then written as JSON, to BENCH_<n>.json at the
# root of the checkout when n is given (a change's committed perf row),
# else to .bench_pair/BENCH.json: the parent revision, and per workload x
# metric row both medians, the change (how much worse the change side is,
# as a share of the parent's median; negative is better), the spread, the
# bound, the verdict and the runs per side. Real-time rows, which
# `compare` does not judge, are tagged `reported`.
set -euo pipefail

rev="${1:?usage: ci/bench_pair.sh <parent-rev> [pairs=10] [n]}"
pairs="${2:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${BENCH_PAIR_DIR:-$root/.bench_pair}"
row="$work/BENCH.json"
if [ -n "${3:-}" ]; then row="$root/BENCH_$3.json"; fi
parent="$(git -C "$root" rev-parse "$rev")"

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

status=0
CARGO_TARGET_DIR="$work/target-change" bash "$root/benchmark/run.sh" \
    compare "$work/out/parent" "$work/out/change" >"$work/compare.txt" || status=$?
cat "$work/compare.txt"

# A row is `workload metric runs A B change spread bound verdict`; a
# failed_frac row leaves change and spread blank.
python3 - "$work/compare.txt" "$parent" >"$row" <<'PY'
import json, sys

def share(cell):
    return None if cell == "-" else round(float(cell.rstrip("%")) / 100, 6)

rows = []
for line in open(sys.argv[1]):
    cells = line.split()
    if len(cells) < 7 or "/" not in cells[2]:
        continue
    if cells[1] == "failed_frac":
        cells[5:5] = ["-", "-"]
    workload, metric, runs, a, b, change, spread, bound = cells[:8]
    verdict = " ".join(cells[8:])
    rows.append({
        "workload": workload,
        "metric": metric,
        "parent_median": float(a),
        "change_median": float(b),
        "change": share(change),
        "spread": share(spread),
        "bound": share(bound) if bound.endswith("%") else None if bound == "-" else float(bound),
        "verdict": "reported" if verdict == "not judged" else verdict,
        "runs": runs,
    })
json.dump({"parent": sys.argv[2], "rows": rows}, sys.stdout, indent=1)
print()
PY
echo "wrote $row" >&2
exit "$status"
