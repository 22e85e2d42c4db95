#!/usr/bin/env bash
# The benchmark's one command: builds the release binary from source,
# offline, and runs it. See README.md for the forms it takes.
#
#   benchmark/run.sh                      every workload, results in benchmark/out/
#   benchmark/run.sh --runs 5             ... five times over, for `compare`
#   benchmark/run.sh --traced             ... and a traced run of each (per-layer metrics)
#   benchmark/run.sh --quick              smoke: one 0.3 s pass per workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; last stdout line is the result object
#   benchmark/run.sh compare A B          result files, or directories of them
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for this script alike, so stay there.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/mantle-benchmark"
case "${1:-}" in
    compare | manifest | -h | --help) exec "$bin" "$@" ;;
    *) exec "$bin" --out-dir "$here/out" "$@" ;;
esac
