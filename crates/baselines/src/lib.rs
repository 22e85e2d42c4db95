//! Re-implementations of the paper's three baselines (§6.1).
//!
//! The originals are not public, so — exactly as the paper did — we
//! re-implement each system's metadata path faithfully enough that its
//! published performance characteristics emerge from the same mechanisms:
//!
//! * [`tectonic::Tectonic`] — the DBtable-based approach (Figure 2):
//!   level-by-level multi-RPC path resolution over the sharded table, and
//!   — as §6.1 states — *relaxed consistency*: directory modifications are
//!   independent single-row writes plus a blocking-latch parent-attribute
//!   update, not distributed transactions.
//! * [`infinifs::InfiniFs`] — speculative parallel path resolution with
//!   hash-predicted directory ids, CFS-style relaxed single-shard directory
//!   modifications, a dedicated rename coordinator, and an optional
//!   proxy-side path-lease cache (Figure 20).
//! * [`locofs::LocoFs`] — the tiered design: *all* directory metadata on a
//!   single Raft-replicated directory server that resolves full paths
//!   locally, object metadata in the sharded DB, with object creation
//!   forced through the directory server for the parent update (its
//!   cross-component coordination overhead, §3.3).
//!
//! All three implement [`mantle_types::MetadataService`] and
//! [`mantle_types::BulkLoad`], so every workload and figure harness runs
//! unmodified against any system. Tectonic and InfiniFS keep the paper's
//! TafDB schema, so what they do with a resolved parent — object
//! create/delete/stat, `dirstat`, listings, the bulk loader — is
//! [`mantle_tafdb::Front`], the plane Mantle uses, built with the relaxed
//! executor; this crate holds what differs: how each resolves a directory,
//! and `mkdir` / `rmdir` / `rename_dir`.

pub mod infinifs;
pub mod locofs;
pub mod tectonic;

pub use infinifs::{InfiniFs, InfiniFsOptions};
pub use locofs::{LocoFs, LocoFsOptions};
pub use tectonic::{Tectonic, TectonicOptions};

use mantle_tafdb::{recipe, Front};
use mantle_types::{
    InodeId, MetaError, MetaPath, Permission, RequestCtx, ResolvedPath, Result, ROOT_ID,
};

/// Where every baseline's walk starts: the one namespace root.
const ROOT: ResolvedPath = ResolvedPath {
    id: ROOT_ID,
    permission: Permission::ALL,
};

/// One level of a DBtable walk of `path`, as `resolve::walk` takes it:
/// `TafDb::resolve_step`'s verdict, with a missing entry as `None` and an
/// object in the way — the kind only a system that reads rows can tell —
/// naming the whole path.
fn dir_step(
    step: Result<(InodeId, Permission)>,
    path: &MetaPath,
) -> Result<Option<(InodeId, Permission)>> {
    match step {
        Ok(entry) => Ok(Some(entry)),
        Err(MetaError::NotFound(_)) => Ok(None),
        Err(MetaError::NotADirectory(_)) => Err(MetaError::NotADirectory(path.to_string())),
        Err(other) => Err(other),
    }
}

/// §6.1's `rmdir` of the resolved directory `dir`, as Tectonic and InfiniFS
/// both run it: the read that checks it is empty, then the recipe's three
/// writes, relaxed. (`ExpectEmptyDir` is the transactional form of that
/// read and has no single-row one.)
fn relaxed_rmdir(
    front: &Front,
    path: &MetaPath,
    parent: ResolvedPath,
    name: &str,
    dir: InodeId,
    stats: &mut RequestCtx,
) -> Result<()> {
    parent.require(Permission::WRITE, path)?;
    if !front.db().readdir(dir, stats)?.is_empty() {
        return Err(MetaError::NotEmpty(path.to_string()));
    }
    // Entry first: with no transaction around the writes, the directory
    // must stop being reachable before its attribute row goes.
    let [attr, _expect_empty, entry, unlink] =
        recipe::rmdir(parent.id, name.into(), dir, front.now());
    front.db().execute_relaxed(&[entry, attr, unlink], stats)
}
