#!/usr/bin/env bash
# The side-door bans behind "one resolve vocabulary" (DESIGN.md §4.3): the
# four read-side rules are stated in crates/types/src/resolve.rs and a
# front-end calls them, it does not spell them out. All three fail the build:
#   1. `allows_traverse` / `.intersect(` appear in no file under
#      crates/*/src or src/ outside crates/types/src: the per-level
#      permission rule is applied by `resolve::walk` alone.
#   2. `MetaError::PermissionDenied(` is constructed nowhere under
#      crates/*/src or src/ outside crates/types/src (a `(_)` pattern is not
#      a construction): a refusal is `walk`'s or `ResolvedPath::require`'s.
#   3. The messages of `split_leaf` and `rename_precheck` appear under
#      crates src tests examples only in the module that owns them.
set -euo pipefail
cd "$(dirname "$0")/.."

outside_types() { grep -v '^crates/types/src/' || true; }
walks=$(grep -rnE 'allows_traverse|\.intersect\(' crates/*/src src --include='*.rs' | outside_types)
refusals=$(grep -rn 'MetaError::PermissionDenied(' crates/*/src src --include='*.rs' |
    grep -v 'PermissionDenied(_)' | outside_types)
messages=$(grep -rnE 'operation on root|root cannot be renamed|source equals destination' \
    crates src tests examples --include='*.rs' | grep -v '^crates/types/src/resolve\.rs:' || true)

status=0
report() {
    if [ -n "$2" ]; then
        echo "$1:"
        echo "$2"
        status=1
    fi
}
report "per-level permission rule outside crates/types/src (step through mantle_types::resolve::walk)" "$walks"
report "PermissionDenied constructed outside crates/types/src (use ResolvedPath::require)" "$refusals"
report "leaf-split / rename-precheck message outside resolve.rs (use MetaPath::{split_leaf, rename_precheck})" "$messages"
[ "$status" -eq 0 ] && echo "resolve vocabulary OK"
exit "$status"
