//! Routing and the read paths: every row routes through the
//! epoch-versioned [`ShardMap`] and every read validates ownership after
//! reading (the map swap precedes source-row deletion, so an unchanged
//! owner proves the value was authoritative), absorbing races with a
//! `StaleRoute` bounce-and-retry.

use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use mantle_engine::dir_end;
use mantle_store::KeyParts;
use mantle_types::{
    AttrDelta, DirAttrMeta, DirEntry, EntryKind, InodeId, MetaError, ObjectMeta, Permission,
    RequestCtx, Result, RetryClass,
};

use crate::db::TafDb;
use crate::schema::{attr_view, entry_view, Row};
use crate::shard::Shard;
use crate::shardmap::{dir_region, place_of, ShardMap};

/// Internal retry cap for read paths racing a map change; past it the last
/// (per-shard consistent) result is returned best-effort.
const READ_ROUTE_RETRIES: u32 = 8;

impl TafDb {
    // --- routing ------------------------------------------------------------

    /// The current shard-map snapshot (cheap: an `Arc` clone).
    pub fn shard_map(&self) -> Arc<ShardMap> {
        self.map.read().clone()
    }

    /// The shard owning the *start* of `pid`'s directory region. While the
    /// region is unsplit (always true with the controller off) this is the
    /// owner of every row of the directory — the dynamic replacement for
    /// the historical fixed hash.
    pub fn shard_of(&self, pid: InodeId) -> usize {
        self.map.read().owner(dir_region(pid).0)
    }

    pub(crate) fn owner_of(&self, key: &dyn KeyParts) -> usize {
        self.map.read().owner(place_of(key))
    }

    /// Routes one placement key: records a load sample on its range and
    /// returns `(owner shard, map epoch)`.
    pub(crate) fn route(&self, place: u64) -> (usize, u64) {
        let m = self.map.read();
        m.record_hit(place);
        (m.owner(place), m.epoch())
    }

    /// Validates that `shard_idx` still owns `place` and is not migrating.
    /// Called *inside* a write's `in_flight` window: if it passes, a racing
    /// migration cannot copy the range until this write lands (quiescence
    /// observes `in_flight == 0` strictly after the marker is visible).
    pub(crate) fn check_route(&self, shard_idx: usize, place: u64, seen: u64) -> Result<()> {
        let m = self.map.read();
        if self.shards[shard_idx]
            .mig_active
            .load(std::sync::atomic::Ordering::Acquire)
            || m.owner(place) != shard_idx
        {
            return Err(MetaError::StaleRoute {
                seen,
                current: m.epoch(),
            });
        }
        Ok(())
    }

    /// Books a stale-route retry (per-op stats + global counters).
    pub(crate) fn note_stale(&self, stats: &mut RequestCtx) {
        stats.note_retry(RetryClass::StaleRoute);
        self.note_stale_effects();
    }

    /// The stats-free half of [`TafDb::note_stale`]: global counters,
    /// flight-recorder annotation, and a scheduler yield. The retry engine's
    /// `on_retry` hook uses this because the engine books the per-op stat
    /// itself.
    pub(crate) fn note_stale_effects(&self) {
        self.metrics.stale_routes.inc();
        mantle_obs::flight::annotate("tafdb:stale_route");
        std::thread::yield_now();
    }

    // --- reads (one RPC to the owning shard) -------------------------------

    /// The one entry-read loop: one RPC to the owning shard (with its own
    /// round trip, or as one leg of a caller-paid fan-out), re-routed while
    /// the shard map moves underneath it. `project` sees the row in place
    /// and makes what the caller keeps; `None` when there is no row.
    fn entry_rpc<T>(
        &self,
        pid: InodeId,
        name: &str,
        own_round_trip: bool,
        stats: &mut RequestCtx,
        project: impl Fn(&Row) -> T,
    ) -> Result<Option<T>> {
        let key = entry_view(pid, name);
        let place = place_of(&key);
        loop {
            let (owner, _) = self.route(place);
            let shard = &self.shards[owner];
            let get = || {
                let mut out = None;
                shard.engine.get_with(&key, &mut |r| out = Some(project(r)));
                out
            };
            let row = if own_round_trip {
                shard.node.try_rpc_named(stats, "get_entry", get)?
            } else {
                shard.node.try_rpc_batched(stats, "get_entry", get)?
            };
            // Owner unchanged ⇒ the shard was authoritative for the whole
            // read (map swaps precede source-row deletion).
            if self.map.read().owner(place) == owner {
                return Ok(row);
            }
            self.note_stale(stats);
        }
    }

    /// What `project` makes of the entry row of `name` under `pid`, read in
    /// place (`None`: no row) — a check copies nothing out of the row.
    ///
    /// # Errors
    ///
    /// [`MetaError::Transient`] on an injected transport fault,
    /// [`MetaError::Overloaded`] / [`MetaError::DeadlineExceeded`] from the
    /// shard's admission control.
    pub fn read_entry<T>(
        &self,
        pid: InodeId,
        name: &str,
        stats: &mut RequestCtx,
        project: impl Fn(&Row) -> T,
    ) -> Result<Option<T>> {
        self.entry_rpc(pid, name, true, stats, project)
    }

    /// A copy of the entry row of `name` under `pid`.
    ///
    /// # Errors
    ///
    /// As [`TafDb::read_entry`].
    pub fn get_entry(
        &self,
        pid: InodeId,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<Option<Row>> {
        self.read_entry(pid, name, stats, Row::clone)
    }

    /// [`TafDb::get_entry`] without a network round trip of its own — for
    /// callers modelling a parallel fan-out where one injected round trip
    /// covers a whole batch of concurrently issued queries (InfiniFS's
    /// speculative resolution). The RPC is still counted and still consumes
    /// shard-node capacity.
    pub fn get_entry_batched(
        &self,
        pid: InodeId,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<Option<Row>> {
        self.entry_rpc(pid, name, false, stats, Row::clone)
    }

    /// One step of level-by-level path resolution: child directory id and
    /// permission of `name` under `pid`.
    ///
    /// # Errors
    ///
    /// [`MetaError::NotFound`] if absent, [`MetaError::NotADirectory`] if
    /// the entry is an object, [`MetaError::Transient`] on an injected
    /// transport fault (retryable).
    pub fn resolve_step(
        &self,
        pid: InodeId,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<(InodeId, Permission)> {
        match self.get_entry(pid, name, stats)? {
            Some(Row::DirAccess { id, permission }) => Ok((id, permission)),
            Some(_) => Err(MetaError::NotADirectory(name.to_string())),
            None => Err(MetaError::NotFound(name.to_string())),
        }
    }

    /// Reads object metadata, named by the probe: an object row keeps its
    /// name in its key only (DESIGN.md §4.3).
    ///
    /// # Errors
    ///
    /// [`MetaError::NotFound`] / [`MetaError::IsADirectory`] /
    /// [`MetaError::Transient`].
    pub fn get_object(
        &self,
        pid: InodeId,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<ObjectMeta> {
        let found = self.read_entry(pid, name, stats, |row| {
            row.as_object().map(|o| ObjectMeta {
                name: name.to_owned(),
                ..*o
            })
        })?;
        object_or(found, name)
    }

    /// Checks that `name` under `pid` is an object — a delete's type check,
    /// which copies nothing out of the row.
    ///
    /// # Errors
    ///
    /// As [`TafDb::get_object`].
    pub fn expect_object(&self, pid: InodeId, name: &str, stats: &mut RequestCtx) -> Result<()> {
        let found = self.read_entry(pid, name, stats, |row| row.as_object().map(drop))?;
        object_or(found, name)
    }

    /// The one region read: `scan` runs on every shard owning a piece of
    /// `dir`'s region, as RPCs named `rpc_name` — the sole owner of an
    /// unsplit region in one RPC, the owners of a split one as the batched
    /// legs of a single fan-out round trip — and is re-run, from a fresh
    /// accumulator, while the shard map moves underneath it. `hit` is the
    /// placement key whose range books the load sample. Returns what the
    /// owners added to the accumulator, in owner order, and whether the
    /// region was split.
    fn read_region<A: Default>(
        &self,
        dir: InodeId,
        hit: u64,
        rpc_name: &'static str,
        stats: &mut RequestCtx,
        scan: impl Fn(&Shard, &mut A),
    ) -> Result<(A, bool)> {
        let (rs, re) = dir_region(dir);
        let mut attempt = 0;
        loop {
            let m = self.shard_map();
            m.record_hit(hit);
            let mut owners = m.owners_of(rs, re);
            let sole = owners.next().filter(|_| owners.next().is_none());
            let mut acc = A::default();
            if let Some(owner) = sole {
                let shard = &self.shards[owner];
                shard
                    .node
                    .try_rpc_named(stats, rpc_name, || scan(shard, &mut acc))?;
            } else {
                // One fan-out round trip covers the parallel per-owner scans.
                mantle_rpc::net_round_trip(&self.config);
                for o in m.owners_of(rs, re) {
                    let shard = &self.shards[o];
                    shard
                        .node
                        .try_rpc_batched(stats, rpc_name, || scan(shard, &mut acc))?;
                }
            }
            if self.map.read().epoch() == m.epoch() || attempt >= READ_ROUTE_RETRIES {
                return Ok((acc, sole.is_none()));
            }
            attempt += 1;
            self.note_stale(stats);
        }
    }

    /// Reads a directory's attributes, merging outstanding delta records
    /// (the read-side cost of §5.2.1). When the directory's region is split
    /// across shards, one fan-out round trip folds every owner's rows, in
    /// the engine's visitor.
    ///
    /// # Errors
    ///
    /// [`MetaError::NotFound`] when the directory has no attribute row.
    pub fn dir_stat(&self, dir: InodeId, stats: &mut RequestCtx) -> Result<DirAttrMeta> {
        let aplace = place_of(&attr_view(dir));
        let fold = |shard: &Shard, (base, pending): &mut (Option<DirAttrMeta>, AttrDelta)| {
            let mut rows = 0;
            shard.attr_rows(dir, &mut |_, row| {
                rows += 1;
                match row {
                    Row::DirAttr(a) => *base = Some(a.clone()),
                    Row::Delta(d) => pending.merge(d),
                    _ => {}
                }
                ControlFlow::Continue(())
            });
            self.metrics.range_scan_rows.add(rows);
        };
        let ((base, pending), _) = self.read_region(dir, aplace, "dir_stat", stats, fold)?;
        let mut attrs = base.ok_or_else(|| MetaError::NotFound(format!("dir {dir}")))?;
        attrs.apply_delta(&pending);
        Ok(attrs)
    }

    /// One shard's share of a page listing, added to `page`: the first
    /// `limit` entries of `pid` after `start_after` (saturating, so
    /// `usize::MAX` means "all"), and whether more follow. One engine scan
    /// lends each row in place; only an entry's name is copied out. The
    /// attribute row and delta records sort among the entries and list
    /// nothing, so the scan walks past them.
    fn scan_page(
        &self,
        shard: &Shard,
        pid: InodeId,
        start_after: Option<&str>,
        limit: usize,
        (page, more): &mut (Vec<DirEntry>, bool),
    ) {
        let (first, end) = (entry_view(pid, start_after.unwrap_or("")), dir_end(pid));
        let lo = match start_after {
            Some(_) => Bound::Excluded(&first as &dyn KeyParts),
            None => Bound::Included(&first as &dyn KeyParts),
        };
        let (mut rows, mut taken) = (0, 0);
        shard.engine.scan(lo, Bound::Excluded(&end), &mut |k, row| {
            rows += 1;
            let (kind, id) = match row {
                Row::DirAccess { id, .. } => (EntryKind::Dir, *id),
                Row::Object(o) => (EntryKind::Object, o.id),
                Row::DirAttr(_) | Row::Delta(_) => return ControlFlow::Continue(()),
            };
            if taken == limit {
                *more = true;
                return ControlFlow::Break(());
            }
            taken += 1;
            let name = k.name.to_string();
            page.push(DirEntry { name, kind, id });
            ControlFlow::Continue(())
        });
        self.metrics.range_scan_rows.add(rows);
    }

    /// Paged child listing: up to `limit` entries of `pid` with names
    /// strictly after `start_after` — a bounded range scan on the ordered
    /// shard engine (the backing of the COSS `LIST` API). The second return
    /// is whether more entries follow. Split regions merge per-owner pages.
    ///
    /// # Errors
    ///
    /// [`MetaError::Transient`] on an injected transport fault,
    /// [`MetaError::Overloaded`] / [`MetaError::DeadlineExceeded`] from a
    /// shard's admission control.
    pub fn readdir_page(
        &self,
        pid: InodeId,
        start_after: Option<&str>,
        limit: usize,
        stats: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        let ((mut rows, more), split) =
            self.read_region(pid, dir_region(pid).0, "readdir", stats, |shard, page| {
                self.scan_page(shard, pid, start_after, limit, page)
            })?;
        if split {
            // Each owner added its first `limit` matches, so the union
            // contains the global first `limit` by name.
            rows.sort_by(|a, b| a.name.cmp(&b.name));
        }
        let truncated = more || rows.len() > limit;
        rows.truncate(limit);
        Ok((rows, truncated))
    }

    /// Lists every direct child of `pid`, in name order: the unbounded
    /// page. On the MVCC engine the scan walks a pinned snapshot without
    /// holding the shard's write path back (DESIGN.md §4.12).
    ///
    /// # Errors
    ///
    /// As [`TafDb::readdir_page`].
    pub fn readdir(&self, pid: InodeId, stats: &mut RequestCtx) -> Result<Vec<DirEntry>> {
        self.readdir_page(pid, None, usize::MAX, stats)
            .map(|(rows, _)| rows)
    }
}

/// What an object read found: `Some(Some(_))` is the projection of an
/// object row, `Some(None)` any other row, `None` no row.
fn object_or<T>(found: Option<Option<T>>, name: &str) -> Result<T> {
    match found {
        Some(Some(object)) => Ok(object),
        Some(None) => Err(MetaError::IsADirectory(name.to_string())),
        None => Err(MetaError::NotFound(name.to_string())),
    }
}
