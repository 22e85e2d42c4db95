#!/usr/bin/env bash
# The side-door bans behind "one write vocabulary into TafDB" and "one table
# plane" (DESIGN.md §4.3). All three fail the build:
#   1. `raw_put` appears in no file under crates/*/src, crates/*/tests,
#      src/, tests/ or examples/ outside crates/tafdb/src: front-ends write
#      rows through an executor, and tests seed rows through the loader's
#      door, `TafDb::bulk_apply`.
#   2. an `AttrDelta {` struct literal appears in non-test source (tests/
#      directories skipped, each file cut at its first #[cfg(test)], as in
#      ci/loc.sh) only where the five deltas are defined.
#   3. `recipe::create(`, `recipe::delete(`, `.get_object(`, `.dir_stat(`,
#      `.readdir_page(` and `raw_get` appear under crates/core/src and
#      crates/baselines/src only in locofs.rs (which keeps half of each
#      recipe on its directory server): what a front-end does with a
#      resolved parent is written once, in crates/tafdb/src/front.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

raw_put=$(grep -rn 'raw_put' crates src tests examples --include='*.rs' | grep -v '^crates/tafdb/src/' || true)

literals=$(find crates src -name '*.rs' -not -path '*/tests/*' \
    -not -path 'crates/types/src/record.rs' -not -path 'crates/tafdb/src/recipe.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /AttrDelta \{/ { print FILENAME ":" FNR ": " $0 }')

plane=$(grep -rnE 'recipe::create\(|recipe::delete\(|\.get_object\(|\.dir_stat\(|\.readdir_page\(|raw_get' \
    crates/core/src crates/baselines/src --include='*.rs' | grep -v '^crates/baselines/src/locofs\.rs:' || true)

status=0
if [ -n "$raw_put" ]; then
    echo "raw_put outside crates/tafdb/src (use TafDb::bulk_apply or an executor):"
    echo "$raw_put"
    status=1
fi
if [ -n "$literals" ]; then
    echo "AttrDelta struct literal outside record.rs / recipe.rs (use a named delta):"
    echo "$literals"
    status=1
fi
if [ -n "$plane" ]; then
    echo "post-resolve table op outside crates/tafdb/src/front.rs (call mantle_tafdb::Front):"
    echo "$plane"
    status=1
fi
[ "$status" -eq 0 ] && echo "write vocabulary, table plane OK"
exit "$status"
