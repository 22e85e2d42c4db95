#!/usr/bin/env bash
# The side-door bans behind "one client loop" (DESIGN.md §3): a workload or
# a figure binary measures through mantle_workloads::driver, it does not
# rebuild the loop. All three fail the build:
#   1. `thread::scope` appears under crates/workloads/src and
#      crates/bench/src only in the driver module.
#   2. `flight::op_scope(` is called, outside crates/obs/src, only by the
#      driver and mantle-cli.
#   3. `trace::start(` is called, outside crates/obs/src, only by the driver.
set -euo pipefail
cd "$(dirname "$0")/.."

driver='^crates/workloads/src/driver\.rs:'
scopes=$(grep -rn 'thread::scope' crates/workloads/src crates/bench/src --include='*.rs' | grep -v "$driver" || true)
flights=$(grep -rn 'flight::op_scope(' crates/*/src src --include='*.rs' |
    grep -v "$driver" | grep -v '^crates/obs/src/' | grep -v '^src/bin/mantle-cli\.rs:' || true)
traces=$(grep -rn 'trace::start(' crates/*/src src --include='*.rs' |
    grep -v "$driver" | grep -v '^crates/obs/src/' || true)

status=0
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
[ "$status" -eq 0 ] && echo "one client loop OK"
exit "$status"
