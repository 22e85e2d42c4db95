#!/usr/bin/env bash
# The side-door bans behind "one write vocabulary into TafDB", "one table
# plane" (DESIGN.md §4.3), "reads lend", "range deletes copy nothing" and
# "names live in their keys", "a shard stores one form" (DESIGN.md §4.12)
# "TafDB runs no thread" (DESIGN.md §4.4) and "loads come through one door"
# (DESIGN.md §4.12 "Packed loads"). All ten fail the build:
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
#   4. the clone-out reads `scan_range(`, `scan_versions(`, `scan_dir(` and
#      `export_rows(` appear in non-test source (cut as in 2) only under
#      crates/engine/src: a reader visits rows in place through
#      `StorageEngine::{get_with, scan}` and copies out what it keeps.
#   5. `merge_attr_rows` and `scan_attr_rows` stay retired (dirstat folds
#      in the engine's visitor).
#   6. the copying range transform `update_range(` / `update_versions(`
#      appears in non-test source (cut as in 2) only under crates/engine/src
#      and inside the delta fold (`fn fold`) in crates/tafdb/src/shard.rs: a
#      range that is only deleted goes through `StorageEngine::delete_range`.
#   7. `Arc<str>` and `Box<str>` appear in non-test source (cut as in 2)
#      under crates/*/src only in crates/types/src/{name,path}.rs: a key or
#      command stores its name as a `mantle_types::Name`, inline when short.
#   8. `StorageEngine<Row>` and `build::<Row>` appear in non-test source (cut
#      as in 2) under crates/*/src only in crates/engine/src: a TafDB shard
#      stores a `StoredRow`; `Row` remains an engine value only for the
#      benchmark's bare engines and the engine tests.
#   9. `thread::spawn` and `thread::Builder` appear in non-test source (cut
#      as in 2) under crates/tafdb/src nowhere: delta records fold on the
#      append that reaches the bound, and the placement tick is driven by
#      its caller.
#  10. the engine loader `.load_row(` is called in non-test source (cut as
#      in 2) under crates/, src/ and examples/ only inside `fn bulk_apply` in
#      crates/tafdb/src/shard.rs: a live write never goes through the door
#      that lets btree keep a row in its packed nodes.
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

clone_out=$(find crates src examples -name '*.rs' -not -path '*/tests/*' \
    -not -path 'crates/engine/src/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /(scan_range|scan_versions|scan_dir|export_rows)\(/ { print FILENAME ":" FNR ": " $0 }')

retired=$(grep -rnwE 'merge_attr_rows|scan_attr_rows' crates src tests examples --include='*.rs' || true)

# The enclosing function is the last `fn name` above the line.
range_transform=$(find crates src examples -name '*.rs' -not -path '*/tests/*' \
    -not -path 'crates/engine/src/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1; fn = "" }
        /#\[cfg\(test\)\]/ { counting = 0 }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        counting && /(update_range|update_versions)\(/ &&
            !(FILENAME == "crates/tafdb/src/shard.rs" && fn == "fold") {
            print FILENAME ":" FNR ": " $0
        }')

stored_names=$(find crates -path 'crates/*/src/*' -name '*.rs' \
    -not -path 'crates/types/src/name.rs' -not -path 'crates/types/src/path.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /(Arc|Box)<str>/ { print FILENAME ":" FNR ": " $0 }')

row_engines=$(find crates -path 'crates/*/src/*' -name '*.rs' -not -path 'crates/engine/src/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /StorageEngine<Row>|build::<Row>/ { print FILENAME ":" FNR ": " $0 }')

tafdb_threads=$(find crates/tafdb/src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /thread::(spawn|Builder)/ { print FILENAME ":" FNR ": " $0 }')

loader=$(find crates src examples -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1; fn = "" }
        /#\[cfg\(test\)\]/ { counting = 0 }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        counting && /\.load_row\(/ &&
            !(FILENAME == "crates/tafdb/src/shard.rs" && fn == "bulk_apply") {
            print FILENAME ":" FNR ": " $0
        }')

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
if [ -n "$clone_out" ]; then
    echo "clone-out engine read outside crates/engine/src (visit with StorageEngine::{get_with, scan}):"
    echo "$clone_out"
    status=1
fi
if [ -n "$retired" ]; then
    echo "retired attribute-row collectors (fold in the engine's visitor):"
    echo "$retired"
    status=1
fi
if [ -n "$range_transform" ]; then
    echo "copying range transform outside the engines and the delta fold (delete with StorageEngine::delete_range):"
    echo "$range_transform"
    status=1
fi
if [ -n "$stored_names" ]; then
    echo "stored name outside mantle_types::{Name, MetaPath} (store a mantle_types::Name):"
    echo "$stored_names"
    status=1
fi
if [ -n "$row_engines" ]; then
    echo "an engine of Row outside crates/engine/src (a shard stores mantle_tafdb::StoredRow):"
    echo "$row_engines"
    status=1
fi
if [ -n "$tafdb_threads" ]; then
    echo "a thread spawned in crates/tafdb/src (fold on the append, let the caller tick):"
    echo "$tafdb_threads"
    status=1
fi
if [ -n "$loader" ]; then
    echo "the engine loader called outside TafDb::bulk_apply (a live write goes through put):"
    echo "$loader"
    status=1
fi
[ "$status" -eq 0 ] && echo "write vocabulary, table plane, lending reads, in-place range deletes, stored names, stored rows, threadless TafDB, one loader OK"
exit "$status"
