//! Engine conformance suite (DESIGN.md §4.12): every [`StorageEngine`]
//! implementation must agree, op for op, with a `BTreeMap` reference
//! model — the btree and mvcc engines run the *same* random op sequence
//! side by side, including checkpoint/restore round-trips, and any
//! divergence (return values, scan contents, image bytes) fails the
//! property. Torn checkpoint images must be rejected without touching
//! engine state.
//!
//! Every probe and scan bound goes to the engines as a borrowed
//! [`RowKeyView`], while the model is searched with the owned `RowKey`'s own
//! `Ord`: a view that ordered or compared differently from its key would
//! show as a divergence here. The names include the empty one, ones that
//! sort before `/_ATTR`, a prefix pair and a multi-byte one.
//!
//! The two lending reads are held to the same model: `get_with` runs its
//! closure once on exactly the model's row (never when there is none), and
//! a `scan` whose visitor breaks after `stop_after` rows has seen exactly
//! the model's first `stop_after` rows, in key order — including a scan
//! that crosses mvcc's 512-key chunk before it breaks.
//!
//! So is the in-place range delete, rmdir's attribute-row sweep: it reports
//! exactly the model's keys in its bounds, in key order, and leaves the
//! model's other rows. Its bounds start below, at or just past a
//! directory's `/_ATTR` base row and end inside or past the version range,
//! and the names ` z`, `-x` and `.y` sort just below `/_ATTR`, so a sweep
//! that took a sibling entry with the version range would show here.
//!
//! Loads (`load_row`, `TafDb::bulk_apply`'s door) are in the same mix: each
//! brings more rows than btree's 1,024-row merge step, beside and among the
//! live ops' keys, so btree's packed, staged and fresh maps all hold rows
//! that every live op then reads, overwrites, sweeps and checkpoints.

use std::collections::BTreeMap;
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use proptest::prelude::*;

use mantle_engine::{
    decode_image, dir_end, encode_image, scan_dir, scan_versions, versions_end, EngineKind,
    KeyBound, StorageEngine, WriteOp,
};
use mantle_store::{KeyParts, RowKey, RowKeyView};
use mantle_tafdb::{recipe, Row, StoredRow, TafDb, TafDbOptions, TxnOp};
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::snapshot::frame;
use mantle_types::{
    AttrDelta, DirAttrMeta, InodeId, ObjectMeta, Permission, RequestCtx, SimConfig, TxnId, ROOT_ID,
};

const ENGINES: [EngineKind; 2] = [EngineKind::Btree, EngineKind::Mvcc];

/// Row names: the empty one, three that sort just below `/_ATTR` (space,
/// `-` and `.` are below `/`), a prefix pair and a multi-byte one.
const SIBLINGS: [&str; 8] = ["", " z", "-x", ".y", ATTR_ROW_NAME, "a", "ab", "é"];

fn arb_key() -> impl Strategy<Value = RowKey> {
    (0u64..5, prop::sample::select(SIBLINGS.to_vec()), 0u64..4).prop_map(|(pid, name, ts)| RowKey {
        pid: InodeId(pid),
        name: name.into(),
        ts: TxnId(ts),
    })
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop_oneof![
        (0u64..50, 0u32..50).prop_map(|(now, owner)| Row::DirAttr(DirAttrMeta::new(now, owner))),
        (0i64..9, 0u64..9).prop_map(|(e, m)| Row::Delta(AttrDelta {
            nlink: 0,
            entries: e,
            mtime: m,
        })),
        (0u64..99).prop_map(|id| Row::DirAccess {
            id: InodeId(id),
            permission: Permission::ALL,
        }),
        // A bare engine of `Row` keeps what an object row says about its
        // parent and name, even where they disagree with its key.
        (0u64..5, prop::sample::select(SIBLINGS.to_vec()), 0u64..99).prop_map(|(pid, name, id)| {
            Row::Object(ObjectMeta::new(InodeId(pid), name, InodeId(id), 7, 1, 2))
        }),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Put(RowKey, Row),
    PutIfAbsent(RowKey, Row),
    Delete(RowKey),
    Get(RowKey),
    /// The lending point read.
    GetWith(RowKey),
    /// Merge-style read-modify-write (the `MergeAttr` shape).
    Update(RowKey, Row),
    /// An atomic multi-op write batch.
    Batch(Vec<(bool, RowKey, Row)>),
    /// Atomic purge of the non-base versions of `(pid, /_ATTR)`, through
    /// `update_range` (the compactor's fold deletes the same way).
    PurgeVersions(u64),
    /// `delete_range` of `pid`'s rows from `lo` to `hi` (see [`Lo`], [`Hi`]).
    DeleteRange(u64, Lo, Hi),
    ScanDir(u64, &'static str, usize),
    ScanVersions(u64, &'static str),
    /// A lending scan of `pid`'s rows from `from` whose visitor breaks
    /// after `stop_after` rows.
    Scan {
        pid: u64,
        from: &'static str,
        stop_after: usize,
    },
    /// checkpoint → restore onto the same engine must round-trip.
    CheckpointRestore,
    /// Rows through the loader's door, `load_row`: these, then
    /// [`LOAD_FILL`] filler rows under `pid` named by `tag`, so three loads
    /// merge btree's staged rows into its packed ones at least three times.
    Load(Vec<(RowKey, Row)>, u64, u8),
}

/// Filler rows per [`Op::Load`]: more than btree's 1,024-row merge step.
const LOAD_FILL: usize = 1_100;

/// Filler row `i` of a load: even ones sort just below `/_ATTR`, inside a
/// range delete from the `-x` sibling, odd ones past the `ab` entry.
fn filler(pid: u64, tag: u8, i: usize) -> (RowKey, Row) {
    let name = match i % 2 {
        0 => format!("-x{tag}{i:04}"),
        _ => format!("f{tag}{i:04}"),
    };
    let row = Row::DirAccess {
        id: InodeId(i as u64),
        permission: Permission::ALL,
    };
    (RowKey::base(InodeId(pid), &name), row)
}

/// Where a range delete starts, around `(pid, /_ATTR)`.
#[derive(Clone, Copy, Debug)]
enum Lo {
    /// At the `-x` sibling: below the base row, so `-x` and `.y` go too
    /// and ` z` stays.
    Sibling,
    /// At the base row (rmdir's `delete_with_deltas`).
    Base,
    /// Just past the base row (rmdir's `purge_deltas` on other owners).
    PastBase,
    /// At the delta record of transaction 2.
    Delta2,
}

/// Where a range delete ends, around `(pid, /_ATTR)`.
#[derive(Clone, Copy, Debug)]
enum Hi {
    /// The last version of the range, inclusive (what rmdir uses).
    VersionsEnd,
    /// Before the delta record of transaction 2.
    BeforeDelta2,
    /// The base row itself, inclusive.
    Base,
    /// The `a` entry, inclusive: past the version range.
    Entry,
}

fn bounds(pid: u64, lo: Lo, hi: Hi) -> (Bound<RowKey>, Bound<RowKey>) {
    let p = InodeId(pid);
    let lo = match lo {
        Lo::Sibling => Bound::Included(RowKey::base(p, "-x")),
        Lo::Base => Bound::Included(RowKey::base(p, ATTR_ROW_NAME)),
        Lo::PastBase => Bound::Excluded(RowKey::base(p, ATTR_ROW_NAME)),
        Lo::Delta2 => Bound::Included(RowKey::delta(p, ATTR_ROW_NAME, TxnId(2))),
    };
    let hi = match hi {
        Hi::VersionsEnd => Bound::Included(versions_end(p, ATTR_ROW_NAME).to_key()),
        Hi::BeforeDelta2 => Bound::Excluded(RowKey::delta(p, ATTR_ROW_NAME, TxnId(2))),
        Hi::Base => Bound::Included(RowKey::base(p, ATTR_ROW_NAME)),
        Hi::Entry => Bound::Included(RowKey::base(p, "a")),
    };
    (lo, hi)
}

/// `bounds` as the engine takes them: borrowed, as `dyn KeyParts`.
fn borrowed(b: &Bound<RowKey>) -> KeyBound<'_> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    let load = (
        prop::collection::vec((arb_key(), arb_row()), 0..6),
        0u64..5,
        0u8..4,
    )
        .prop_map(|(rows, pid, tag)| Op::Load(rows, pid, tag));
    prop_oneof![8 => arb_live_op(), 1 => load]
}

fn arb_live_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), arb_row()).prop_map(|(k, v)| Op::Put(k, v)),
        (arb_key(), arb_row()).prop_map(|(k, v)| Op::PutIfAbsent(k, v)),
        arb_key().prop_map(Op::Delete),
        arb_key().prop_map(Op::Get),
        arb_key().prop_map(Op::GetWith),
        (arb_key(), arb_row()).prop_map(|(k, v)| Op::Update(k, v)),
        prop::collection::vec((any::<bool>(), arb_key(), arb_row()), 1..5).prop_map(Op::Batch),
        (0u64..5).prop_map(Op::PurgeVersions),
        (
            0u64..5,
            prop::sample::select(vec![Lo::Sibling, Lo::Base, Lo::PastBase, Lo::Delta2]),
            prop::sample::select(vec![Hi::VersionsEnd, Hi::BeforeDelta2, Hi::Base, Hi::Entry]),
        )
            // The one inverted pair names no range: a B-tree refuses it.
            .prop_map(|(pid, lo, hi)| match (lo, hi) {
                (Lo::Delta2, Hi::Base) => Op::DeleteRange(pid, Lo::Sibling, hi),
                _ => Op::DeleteRange(pid, lo, hi),
            }),
        (
            0u64..5,
            prop::sample::select(vec!["", "/", "a", "b"]),
            0usize..6
        )
            .prop_map(|(p, f, l)| Op::ScanDir(p, f, l)),
        (
            (0u64..5),
            prop::sample::select(vec!["", "a", ATTR_ROW_NAME])
        )
            .prop_map(|(p, n)| Op::ScanVersions(p, n)),
        (
            0u64..5,
            prop::sample::select(vec!["", "/", "a", "b"]),
            1usize..8
        )
            .prop_map(|(pid, from, stop_after)| Op::Scan {
                pid,
                from,
                stop_after
            }),
        Just(Op::CheckpointRestore),
    ]
}

/// Model equivalents of the free-function scan helpers.
fn model_scan_dir(
    model: &BTreeMap<RowKey, Row>,
    pid: u64,
    from: &str,
    limit: usize,
) -> Vec<(RowKey, Row)> {
    let lo = RowKey::base(InodeId(pid), from);
    let hi = RowKey::base(InodeId(pid + 1), "");
    model
        .range(lo..hi)
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn model_scan_versions(model: &BTreeMap<RowKey, Row>, pid: u64, name: &str) -> Vec<(RowKey, Row)> {
    let lo = RowKey::base(InodeId(pid), name);
    let hi = RowKey::delta(InodeId(pid), name, TxnId(u64::MAX));
    model
        .range(lo..=hi)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// What a `get_with` closure was handed, once per call.
fn lent_get(engine: &dyn StorageEngine<Row>, key: &dyn KeyParts) -> Vec<Row> {
    let mut seen = Vec::new();
    engine.get_with(key, &mut |row| seen.push(row.clone()));
    seen
}

/// The rows a lending scan of `pid` from `from` visited before its visitor
/// broke after `stop_after` of them.
fn lent_scan(
    engine: &dyn StorageEngine<Row>,
    pid: u64,
    from: &str,
    stop_after: usize,
) -> Vec<(RowKey, Row)> {
    let (lo, hi) = (RowKeyView::base(InodeId(pid), from), dir_end(InodeId(pid)));
    let mut seen = Vec::new();
    engine.scan(Bound::Included(&lo), Bound::Excluded(&hi), &mut |k, row| {
        seen.push((k.clone(), row.clone()));
        if seen.len() == stop_after {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    seen
}

fn run_conformance(kind: EngineKind, ops: &[Op]) -> Result<Vec<u8>, TestCaseError> {
    let engine: Arc<dyn StorageEngine<Row>> = kind.build();
    let mut model: BTreeMap<RowKey, Row> = BTreeMap::new();
    let name = kind.name();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                prop_assert_eq!(
                    engine.put(k.clone(), v.clone()),
                    model.insert(k.clone(), v.clone()),
                    "{}: put prev",
                    name
                );
            }
            Op::PutIfAbsent(k, v) => {
                let fresh = engine.put_if_absent(k.clone(), v.clone());
                prop_assert_eq!(fresh, !model.contains_key(k), "{}: put_if_absent", name);
                model.entry(k.clone()).or_insert_with(|| v.clone());
            }
            Op::Delete(k) => {
                prop_assert_eq!(
                    engine.delete(&k.view()),
                    model.remove(k).is_some(),
                    "{}: delete",
                    name
                );
            }
            Op::Get(k) => {
                prop_assert_eq!(
                    engine.get(&k.view()),
                    model.get(k).cloned(),
                    "{}: get",
                    name
                );
                prop_assert_eq!(
                    engine.contains(&k.view()),
                    model.contains_key(k),
                    "{}: contains",
                    name
                );
            }
            Op::GetWith(k) => {
                prop_assert_eq!(
                    lent_get(&*engine, &k.view()),
                    model.get(k).cloned().into_iter().collect::<Vec<_>>(),
                    "{}: get_with",
                    name
                );
            }
            Op::Update(k, v) => {
                // Merge: bump a DirAttr in place, insert `v` when absent,
                // leave non-attr rows untouched — and report what happened.
                let mut f = |cur: Option<&Row>| -> (Option<Row>, bool) {
                    match cur {
                        Some(Row::DirAttr(a)) => {
                            let mut a = a.clone();
                            a.entries += 1;
                            (Some(Row::DirAttr(a)), true)
                        }
                        Some(other) => (Some(other.clone()), false),
                        None => (Some(v.clone()), true),
                    }
                };
                let got = engine.update(&k.view(), &mut f);
                let (next, want) = f(model.get(k));
                match next {
                    Some(row) => {
                        model.insert(k.clone(), row);
                    }
                    None => {
                        model.remove(k);
                    }
                }
                prop_assert_eq!(got, want, "{}: update report", name);
            }
            Op::Batch(items) => {
                let batch: Vec<WriteOp<Row>> = items
                    .iter()
                    .map(|(is_put, k, v)| {
                        if *is_put {
                            WriteOp::Put(k.clone(), v.clone())
                        } else {
                            WriteOp::Delete(k.clone())
                        }
                    })
                    .collect();
                engine.apply(batch);
                for (is_put, k, v) in items {
                    if *is_put {
                        model.insert(k.clone(), v.clone());
                    } else {
                        model.remove(k);
                    }
                }
            }
            Op::PurgeVersions(pid) => {
                let (lo, hi) = bounds(*pid, Lo::Base, Hi::VersionsEnd);
                engine.update_range(borrowed(&lo), borrowed(&hi), &mut |rows| {
                    rows.iter()
                        .filter(|(k, _)| k.ts != TxnId::BASE)
                        .map(|(k, _)| WriteOp::Delete(k.clone()))
                        .collect()
                });
                let doomed: Vec<RowKey> = model_scan_versions(&model, *pid, ATTR_ROW_NAME)
                    .into_iter()
                    .filter(|(k, _)| k.ts != TxnId::BASE)
                    .map(|(k, _)| k)
                    .collect();
                for k in doomed {
                    model.remove(&k);
                }
            }
            Op::DeleteRange(pid, lo, hi) => {
                let (lo, hi) = bounds(*pid, *lo, *hi);
                let mut reported = Vec::new();
                engine.delete_range(borrowed(&lo), borrowed(&hi), &mut |k| {
                    reported.push(k.clone())
                });
                let doomed: Vec<RowKey> = model
                    .range::<RowKey, _>((lo.as_ref(), hi.as_ref()))
                    .map(|(k, _)| k.clone())
                    .collect();
                for k in &doomed {
                    model.remove(k);
                }
                prop_assert_eq!(reported, doomed, "{}: delete_range keys", name);
            }
            Op::ScanDir(pid, from, limit) => {
                prop_assert_eq!(
                    scan_dir(&*engine, InodeId(*pid), from, *limit),
                    model_scan_dir(&model, *pid, from, *limit),
                    "{}: scan_dir",
                    name
                );
            }
            Op::ScanVersions(pid, vname) => {
                prop_assert_eq!(
                    scan_versions(&*engine, InodeId(*pid), vname),
                    model_scan_versions(&model, *pid, vname),
                    "{}: scan_versions",
                    name
                );
            }
            Op::Scan {
                pid,
                from,
                stop_after,
            } => {
                prop_assert_eq!(
                    lent_scan(&*engine, *pid, from, *stop_after),
                    model_scan_dir(&model, *pid, from, *stop_after),
                    "{}: scan",
                    name
                );
            }
            Op::Load(rows, pid, tag) => {
                let fill = (0..LOAD_FILL).map(|i| filler(*pid, *tag, i));
                for (k, v) in rows.iter().cloned().chain(fill) {
                    engine.load_row(k.clone(), v.clone());
                    model.insert(k, v);
                }
            }
            Op::CheckpointRestore => {
                let image = engine.checkpoint();
                let decoded = decode_image::<Row>(&image).expect("fresh image decodes");
                let want: Vec<(RowKey, Row)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(&decoded, &want, "{}: image contents", name);
                prop_assert!(
                    engine.restore(&image).is_some(),
                    "{}: restore of a good image",
                    name
                );
                prop_assert_eq!(engine.export_rows(), want, "{}: post-restore rows", name);
            }
        }
        // Cheap standing invariants after every op.
        prop_assert_eq!(engine.len(), model.len(), "{}: len", name);
        prop_assert!(
            engine.version_count() >= engine.len(),
            "{}: versions under-count live rows",
            name
        );
    }
    // Full-state agreement, then GC must collapse retained versions to
    // exactly the live rows (nothing is pinned here).
    let want: Vec<(RowKey, Row)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(engine.export_rows(), want, "{}: final export", name);
    engine.gc();
    prop_assert_eq!(engine.version_count(), engine.len(), "{}: gc residue", name);
    Ok(engine.checkpoint())
}

/// How a hostile image is made from a well-formed payload.
#[derive(Clone, Debug)]
enum Hostile {
    /// The payload as written.
    Intact,
    /// Cut short after this many bytes (modulo its length).
    Truncated(usize),
    /// One byte (at this offset, modulo the length) replaced.
    Overwritten(usize, u8),
    /// The row count replaced, the rows left as they were.
    Count(u64),
    /// Bytes that never were an image.
    Noise(Vec<u8>),
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    prop_oneof![
        Just(Hostile::Intact),
        (0usize..4096).prop_map(Hostile::Truncated),
        (0usize..4096, any::<u8>()).prop_map(|(at, b)| Hostile::Overwritten(at, b)),
        prop::sample::select(vec![0, 1, 13, 1 << 40, u64::MAX]).prop_map(Hostile::Count),
        prop::collection::vec(any::<u8>(), 0..96).prop_map(Hostile::Noise),
    ]
}

/// `payload` made hostile, then framed with a valid checksum: a checksum
/// guards against torn writes, not against a bad writer.
fn hostile_frame(mut payload: Vec<u8>, how: &Hostile) -> Vec<u8> {
    match how {
        Hostile::Intact => {}
        Hostile::Truncated(at) => payload.truncate(at % payload.len()),
        Hostile::Overwritten(at, b) => {
            let at = at % payload.len();
            payload[at] = *b;
        }
        Hostile::Count(n) => payload[..8].copy_from_slice(&n.to_le_bytes()),
        Hostile::Noise(bytes) => payload = bytes.clone(),
    }
    frame(payload)
}

/// What a checkpoint image decodes to is `None` — never for an `intact`
/// one — or rows that encode back to exactly the image: the decoder accepts
/// only what the encoder writes, and never panics.
fn none_or_round_trip<V: mantle_engine::EngineValue + PartialEq + std::fmt::Debug>(
    framed: &[u8],
    intact: bool,
) -> Result<(), TestCaseError> {
    match decode_image::<V>(framed) {
        Some(rows) => prop_assert_eq!(encode_image(&rows), framed.to_vec()),
        None => prop_assert!(!intact, "an intact image was refused"),
    }
    Ok(())
}

proptest! {
    // Cheap cases, and enough of them for an overwrite to land on a row's
    // tag byte.
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    /// Framed payloads that are truncated, overwritten, miscounted or
    /// noise decode to `None` or round-trip, as `Row`s and as the form a
    /// shard stores.
    #[test]
    fn hostile_images_decode_to_none_or_round_trip(
        rows in prop::collection::vec((arb_key(), arb_row()), 0..8),
        how in arb_hostile(),
    ) {
        let unframed = |image: Vec<u8>| image[16..].to_vec();
        let intact = matches!(how, Hostile::Intact);
        let image = unframed(encode_image(&rows));
        none_or_round_trip::<Row>(&hostile_frame(image, &how), intact)?;
        let stored: Vec<(RowKey, StoredRow)> =
            rows.iter().map(|(k, r)| (k.clone(), StoredRow::from(r))).collect();
        let image = unframed(encode_image(&stored));
        none_or_round_trip::<StoredRow>(&hostile_frame(image, &how), intact)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both engines agree with the model on every op of a random sequence,
    /// and — holding identical rows — emit byte-identical checkpoint
    /// images (the engine-independence contract migration relies on).
    #[test]
    fn engines_match_model_and_each_other(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut images = Vec::new();
        for kind in ENGINES {
            images.push(run_conformance(kind, &ops)?);
        }
        prop_assert_eq!(&images[0], &images[1], "checkpoint images diverge across engines");
    }

    /// A lending scan over more keys than mvcc's 512-key chunk stops where
    /// its visitor breaks — before, at or past a chunk boundary — and has
    /// seen the model's first rows in key order on both engines.
    #[test]
    fn lending_scans_stop_where_the_visitor_breaks(
        n in 600usize..1_400,
        from in 0usize..700,
        stop_after in 1usize..1_500,
    ) {
        let name_of = |i: usize| format!("n{i:05}");
        let row = |i: usize| Row::DirAccess {
            id: InodeId(i as u64),
            permission: Permission::ALL,
        };
        let model: BTreeMap<RowKey, Row> = (0..n)
            .map(|i| (RowKey::base(InodeId(1), &name_of(i)), row(i)))
            .collect();
        let from = name_of(from);
        let want = model_scan_dir(&model, 1, &from, stop_after);
        for kind in ENGINES {
            let engine: Arc<dyn StorageEngine<Row>> = kind.build();
            // Neighbours on both sides, which the scan must not reach.
            engine.put(RowKey::base(InodeId(0), "z"), row(0));
            engine.put(RowKey::base(InodeId(2), ""), row(0));
            for (k, v) in &model {
                engine.put(k.clone(), v.clone());
            }
            prop_assert_eq!(
                lent_scan(&*engine, 1, &from, stop_after),
                want.clone(),
                "{}: lending scan",
                kind.name()
            );
        }
    }

    /// A checkpoint image with any single corrupted byte is rejected by
    /// restore, leaving the engine state untouched.
    #[test]
    fn torn_images_are_rejected(
        rows in prop::collection::vec((arb_key(), arb_row()), 1..12),
        at_byte in 0usize..4096,
    ) {
        for kind in ENGINES {
            let engine: Arc<dyn StorageEngine<Row>> = kind.build();
            for (k, v) in &rows {
                engine.put(k.clone(), v.clone());
            }
            let before = engine.export_rows();
            let mut image = engine.checkpoint();
            let idx = at_byte % image.len();
            image[idx] ^= 0xFF;
            prop_assert!(
                engine.restore(&image).is_none(),
                "{}: corrupted image accepted", kind.name()
            );
            prop_assert_eq!(
                engine.export_rows(), before,
                "{}: failed restore mutated the engine", kind.name()
            );
        }
    }
}

/// Every row a recipe builds comes back from its stored form unchanged,
/// projected from its own key.
#[test]
fn stored_rows_project_back_to_every_recipe_row() {
    let (pid, dir, now) = (InodeId(3), InodeId(4), 9);
    let (rename, _) = recipe::rename(
        (pid, "a".into()),
        (dir, "b".into()),
        InodeId(5),
        Permission::READ,
        now,
    );
    let ops: Vec<TxnOp> = [
        &recipe::root(pid)[..],
        &recipe::mkdir(pid, "d".into(), dir, now),
        &recipe::rmdir(pid, "d".into(), dir, now),
        &recipe::create(dir, "o", InodeId(6), 4_096, 11, now),
        &recipe::delete(dir, "o", now),
        &rename,
        &recipe::setattr(pid, "d", Permission::READ),
    ]
    .concat();
    let mut rows = 0;
    for op in &ops {
        if let TxnOp::InsertUnique { key, row } | TxnOp::Put { key, row } = op {
            assert_eq!(&StoredRow::from(row).row(key.pid), row, "{key:?}");
            rows += 1;
        }
    }
    assert_eq!(rows, 5, "root, mkdir's two rows, create's and rename's");
}

/// An object row keeps only what its key does not say: one that carries a
/// name, or a `pid` other than its key's, comes back with the key's `pid`
/// and an empty name.
#[test]
fn stored_objects_take_their_parent_from_the_key_and_keep_no_name() {
    let row = Row::Object(ObjectMeta::new(InodeId(9), "x", InodeId(6), 10, 4, 2));
    let key = RowKey::base(InodeId(1), "x");
    let Row::Object(back) = StoredRow::from(&row).row(key.pid) else {
        panic!("an object row projects to an object row")
    };
    let want = ObjectMeta::new(InodeId(1), "", InodeId(6), 10, 4, 2);
    assert_eq!(back, want);
}

/// A namespace loaded through `bulk_apply` and then changed through
/// transactions reads the same on both engines, before and after every
/// shard is checkpointed and restored: what the loader stores and what a
/// transaction stores are one form.
#[test]
fn load_then_operate_agrees_on_both_engines() {
    let (d, s) = (InodeId(10), InodeId(11));
    let mut seen = Vec::new();
    for engine in ENGINES {
        let db = TafDb::new(
            SimConfig::instant(),
            TafDbOptions {
                engine,
                ..TafDbOptions::default()
            },
        );
        db.bulk_apply(recipe::mkdir(ROOT_ID, "d".into(), d, 1));
        db.bulk_apply(recipe::mkdir(d, "s".into(), s, 1));
        for i in 0..10 {
            let name = format!("o{i}");
            db.bulk_apply(recipe::create(d, &name, InodeId(100 + i), i, 7, 2));
        }
        let ctx = &mut RequestCtx::new();
        let mut run = |ops: &[TxnOp]| db.execute(ops, ctx).unwrap();
        run(&recipe::create(d, "new", InodeId(200), 5, 0, 3));
        run(&recipe::delete(d, "o3", 4));
        run(&recipe::rmdir(d, "s".into(), s, 5));
        run(&recipe::setattr(ROOT_ID, "d", Permission::READ));
        let read = || {
            let ctx = &mut RequestCtx::new();
            let object = db.get_object(d, "o7", ctx).unwrap();
            let attrs = db.dir_stat(d, ctx).unwrap();
            let step = db.resolve_step(ROOT_ID, "d", ctx).unwrap();
            let names: Vec<String> = db
                .readdir(d, ctx)
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            (object, attrs, step, names, db.total_rows())
        };
        let loaded = read();
        let (object, attrs, step, names, _) = &loaded;
        assert_eq!(object, &ObjectMeta::new(d, "o7", InodeId(107), 7, 7, 2));
        assert_eq!((attrs.nlink, attrs.entries, attrs.mtime), (2, 10, 5));
        assert_eq!(step, &(d, Permission::READ));
        assert_eq!(names.len(), 10);
        assert!(names.iter().all(|n| n != "o3" && n != "s"));
        let (_, failed) = db.checkpoint_all();
        assert!(failed.is_empty());
        assert!((0..db.n_shards()).all(|i| db.restore_shard(i)));
        assert_eq!(
            read(),
            loaded,
            "{}: restored shards read differently",
            engine.name()
        );
        seen.push(loaded);
    }
    assert_eq!(seen[0], seen[1], "the engines disagree");
}
