#!/usr/bin/env bash
# The side-door bans behind "one client loop" (DESIGN.md §3): a workload or
# a figure binary measures through mantle_workloads::driver, it does not
# rebuild the loop. All three fail the build:
#   1. `thread::scope` appears under crates/workloads/src and
#      crates/bench/src only in the driver module.
#   2. `flight::op_scope(` is called, outside crates/obs/src, only by the
#      driver and mantle-cli.
#   3. `trace::start(` is called, outside crates/obs/src, only by the driver.
# And behind "one in-flight op, one recorder" (DESIGN.md §4.8): the op the
# driver opens lives in one thread-local slot with one commit.
#   4. None of the retired plumbing between flight.rs and trace.rs comes back
#      under crates src tests examples.
#   5. crates/obs/src declares two thread-local statics (the op slot and the
#      thread-recorder override) and one `fn fmt_nanos`.
#   6. The per-shard phase gauge nobody read stays gone from code and from
#      the documents that describe the code.
# And behind "one queue model per SimNode" (DESIGN.md §1): a node's only
# queue is the modeled admission ratchet.
#   7. The real-time permit plane (the per-node semaphore, the clock helper
#      that folded its measured wait, InfiniFS's resolver pool) stays gone:
#      its names are on the retired list of check 4.
# And behind "one resolve vocabulary" (DESIGN.md §4.3; the rest of that gate
# is ci/resolve_vocabulary.sh):
#   8. IndexSm's second walk of the table stays gone: `resolve_at_depth` is
#      on the retired list of check 4.
# And behind "one table plane" (DESIGN.md §4.3; the rest of that gate is
# ci/write_vocabulary.sh):
#   9. The baselines' borrow-struct copy of the plane stays gone: `Relaxed`
#      (as a name of its own, not `Ordering::Relaxed`) is on the retired list
#      of check 4.
set -euo pipefail
cd "$(dirname "$0")/.."

driver='^crates/workloads/src/driver\.rs:'
scopes=$(grep -rn 'thread::scope' crates/workloads/src crates/bench/src --include='*.rs' | grep -v "$driver" || true)
flights=$(grep -rn 'flight::op_scope(' crates/*/src src --include='*.rs' |
    grep -v "$driver" | grep -v '^crates/obs/src/' | grep -v '^src/bin/mantle-cli\.rs:' || true)
traces=$(grep -rn 'trace::start(' crates/*/src src --include='*.rs' |
    grep -v "$driver" | grep -v '^crates/obs/src/' || true)
retired=$(grep -rnE 'start_detached|sampler_selects|push_to_ring|ObservedOp|is_op_active|FlightConfig|Semaphore|fold_real_wait|RESOLVER_POOL|resolve_at_depth|(^|[^:A-Za-z_])Relaxed\b' \
    crates src tests examples --include='*.rs' || true)
slots=$(grep -rnE '^\s*static [A-Z_]+: (RefCell|Cell)<' crates/obs/src --include='*.rs' || true)
fmts=$(grep -rn 'fn fmt_nanos' crates/obs/src --include='*.rs' || true)
gauge=$(grep -rnI 'tafdb_shard_phase_nanos' crates src tests examples benchmark/src DESIGN.md README.md || true)

status=0
count() { [ -z "$1" ] && echo 0 || echo "$1" | wc -l; }
expect() {
    if [ "$(count "$3")" -ne "$2" ]; then
        echo "$1: expected $2, found $(count "$3")"
        [ -n "$3" ] && echo "$3"
        status=1
    fi
}
expect "retired names (flight/trace plumbing: one op slot, one commit in crates/obs/src/trace.rs; permit plane: a SimNode's one queue is the ratchet in admit; IndexSm's re-walk: one pass of resolve::walk records the prefix state; the baselines' Relaxed: mantle_tafdb::Front is the one table plane)" 0 "$retired"
expect "thread-local statics in crates/obs/src (the op slot, the thread-recorder override)" 2 "$slots"
expect "fn fmt_nanos in crates/obs/src" 1 "$fmts"
expect "tafdb_shard_phase_nanos (read FlightRecorder::node_phases or /attribution)" 0 "$gauge"

report() {
    if [ -n "$2" ]; then
        echo "$1 (use mantle_workloads::driver::{drive, Client::op}):"
        echo "$2"
        status=1
    fi
}
report "thread::scope outside the driver module" "$scopes"
report "flight::op_scope outside the driver and mantle-cli" "$flights"
report "trace::start outside the driver" "$traces"
[ "$status" -eq 0 ] && echo "one client loop, one op recorder OK"
exit "$status"
