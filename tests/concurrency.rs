//! Cross-crate concurrency invariants: attribute counts stay exact under
//! contention on every system, racing mutations of one name have one
//! winner, caches never serve stale results across renames, and the Spark
//! commit pattern completes atomically.

use std::sync::atomic::{AtomicBool, Ordering};

use mantle::baselines::{
    infinifs::{InfiniFs, InfiniFsOptions},
    locofs::{LocoFs, LocoFsOptions},
    tectonic::{Tectonic, TectonicOptions},
};
use mantle::prelude::*;
use mantle::types::BulkLoad;

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

/// 8 threads hammer one shared directory with creates+deletes; the final
/// entry count must be exact on every system.
fn contended_counts<S: MetadataService + BulkLoad + Sync>(svc: &S) {
    svc.bulk_dir(&p("/hot"));
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                for i in 0..20 {
                    let path = p(&format!("/hot/o_{t}_{i}"));
                    svc.create(&path, 1, &mut stats).unwrap();
                    if i % 2 == 0 {
                        svc.delete(&path, &mut stats).unwrap();
                    }
                }
            });
        }
    });
    let mut stats = RequestCtx::new();
    let expected: i64 = 8 * 10; // Half of the creates survive.
    assert_eq!(
        svc.dirstat(&p("/hot"), &mut stats).unwrap().attrs.entries,
        expected,
        "{}",
        svc.name()
    );
    assert_eq!(
        svc.readdir(&p("/hot"), &mut stats).unwrap().len() as i64,
        expected
    );
}

#[test]
fn contended_counts_exact_on_all_systems() {
    contended_counts(&*MantleCluster::build(SimConfig::instant(), 4));
    contended_counts(&*Tectonic::new(
        SimConfig::instant(),
        TectonicOptions::default(),
    ));
    contended_counts(&*Tectonic::new(
        SimConfig::instant(),
        TectonicOptions {
            transactional: true,
            ..TectonicOptions::default()
        },
    ));
    contended_counts(&*InfiniFs::new(
        SimConfig::instant(),
        InfiniFsOptions::default(),
    ));
    contended_counts(&*LocoFs::new(
        SimConfig::instant(),
        LocoFsOptions::default(),
    ));
}

/// One mutation that `RACERS` threads attempt on one name at once.
struct Race<S> {
    what: &'static str,
    /// Builds what a round races over, below its own directory `base`.
    setup: fn(&S, &str),
    /// Thread `t`'s attempt.
    attempt: fn(&S, &str, usize, &mut RequestCtx) -> Result<()>,
    /// Directories below `base` and the entries each holds once exactly one
    /// attempt has won.
    after: &'static [(&'static str, usize)],
}

const RACERS: usize = 4;

/// Every race, 25 rounds each: exactly one attempt is acknowledged, the
/// others are told the name was taken (or gone), and the namespace holds
/// what the one winner did.
fn one_winner<S: MetadataService + BulkLoad + Sync>(svc: &S) {
    let races: [Race<S>; 4] = [
        Race {
            what: "create",
            setup: |svc, base| {
                svc.bulk_dir(&p(base));
            },
            attempt: |svc, base, _, ctx| svc.create(&p(&format!("{base}/x")), 1, ctx).map(drop),
            after: &[("", 1)],
        },
        Race {
            what: "mkdir",
            setup: |svc, base| {
                svc.bulk_dir(&p(base));
            },
            attempt: |svc, base, _, ctx| svc.mkdir(&p(&format!("{base}/x")), ctx).map(drop),
            after: &[("", 1)],
        },
        Race {
            what: "rename",
            setup: |svc, base| {
                svc.bulk_dir(&p(&format!("{base}/d")));
                for t in 0..RACERS {
                    svc.bulk_dir(&p(&format!("{base}/s{t}")));
                }
            },
            attempt: |svc, base, t, ctx| {
                svc.rename_dir(&p(&format!("{base}/s{t}")), &p(&format!("{base}/d/x")), ctx)
            },
            // The destination's parent and the three sources that stayed.
            after: &[("", RACERS), ("/d", 1)],
        },
        Race {
            what: "rmdir",
            setup: |svc, base| {
                svc.bulk_dir(&p(&format!("{base}/x")));
            },
            attempt: |svc, base, _, ctx| svc.rmdir(&p(&format!("{base}/x")), ctx),
            after: &[("", 0)],
        },
    ];
    for race in &races {
        for round in 0..25 {
            let base = format!("/{}{round}", race.what);
            let at = format!("{} {} round {round}", svc.name(), race.what);
            (race.setup)(svc, &base);
            let start = std::sync::Barrier::new(RACERS);
            let verdicts: Vec<Result<()>> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..RACERS)
                    .map(|t| {
                        let (base, start) = (&base, &start);
                        s.spawn(move || {
                            start.wait();
                            (race.attempt)(svc, base, t, &mut RequestCtx::new())
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for lost in verdicts.iter().filter_map(|v| v.as_ref().err()) {
                assert!(
                    matches!(lost, MetaError::AlreadyExists(_) | MetaError::NotFound(_)),
                    "{at}: {lost}"
                );
            }
            let acked = verdicts.iter().filter(|v| v.is_ok()).count();
            assert_eq!(acked, 1, "{at}: {verdicts:?}");
            let mut ctx = RequestCtx::new();
            for (sub, entries) in race.after {
                let dir = p(&format!("{base}{sub}"));
                assert_eq!(svc.readdir(&dir, &mut ctx).unwrap().len(), *entries, "{at}");
                let counted = svc.dirstat(&dir, &mut ctx).unwrap().attrs.entries;
                assert_eq!(counted, *entries as i64, "{at}");
            }
        }
    }
}

#[test]
fn racing_mutations_of_one_name_have_one_winner() {
    one_winner(&*MantleCluster::build(SimConfig::instant(), 4));
    one_winner(&*Tectonic::new(
        SimConfig::instant(),
        TectonicOptions::default(),
    ));
    one_winner(&*InfiniFs::new(
        SimConfig::instant(),
        InfiniFsOptions::default(),
    ));
    one_winner(&*LocoFs::new(
        SimConfig::instant(),
        LocoFsOptions::default(),
    ));
}

/// Readers race a rename: before the rename commits they see the old path;
/// after it they see the new one; at no point do they see stale *contents*
/// through Mantle's TopDirPathCache.
#[test]
fn lookups_never_see_stale_cache_across_rename() {
    let mut config = MantleConfig::with_sim(SimConfig::instant(), 4);
    config.index.k = 1; // Aggressive caching to maximize staleness risk.
    let cluster = MantleCluster::with_config(config);
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/a"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b/c"), &mut stats).unwrap();
    svc.create(&p("/a/b/c/obj"), 9, &mut stats).unwrap();
    svc.mkdir(&p("/z"), &mut stats).unwrap();

    let renamed = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers resolve both paths continuously.
        for _ in 0..4 {
            let svc = &svc;
            let renamed = &renamed;
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                // Linearizability: individual reads may straddle the
                // rename's commit point (a pre-commit ReadIndex snapshot is
                // a legal linearization), but once `rename_dir` has
                // *returned* (the flag is set), every subsequently issued
                // read must see the post-rename state — the cache may never
                // resurrect the old path.
                let mut commit_observed = false;
                for _ in 0..400 {
                    let was_renamed = renamed.load(Ordering::SeqCst);
                    let old = svc.objstat(&p("/a/b/c/obj"), &mut stats);
                    let new = svc.objstat(&p("/z/nb/c/obj"), &mut stats);
                    if was_renamed {
                        assert!(old.is_err(), "stale cache served the old path after commit");
                        assert_eq!(new.unwrap().size, 9);
                        commit_observed = true;
                    } else if commit_observed {
                        unreachable!("renamed flag is monotonic");
                    }
                }
            });
        }
        let svc2 = &svc;
        let renamed = &renamed;
        s.spawn(move || {
            let mut stats = RequestCtx::new();
            std::thread::yield_now();
            svc2.rename_dir(&p("/a/b"), &p("/z/nb"), &mut stats)
                .unwrap();
            renamed.store(true, Ordering::SeqCst);
        });
    });

    // Post-rename, the cache serves only the new location.
    let mut stats = RequestCtx::new();
    for _ in 0..10 {
        assert_eq!(svc.objstat(&p("/z/nb/c/obj"), &mut stats).unwrap().size, 9);
        assert!(svc.objstat(&p("/a/b/c/obj"), &mut stats).is_err());
    }
}

/// The Spark commit pattern at scale: many concurrent renames into one
/// shared output directory, across Mantle and the transactional DBtable —
/// both must end fully consistent (the difference is performance, §6.3).
#[test]
fn commit_storm_is_atomic_on_mantle_and_dbtable() {
    let run = |svc: &dyn MetadataService, bulk: &dyn Fn(&MetaPath)| {
        let mut stats = RequestCtx::new();
        bulk(&p("/out"));
        for t in 0..8 {
            bulk(&p(&format!("/t{t}")));
            bulk(&p(&format!("/t{t}/task")));
        }
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    let mut stats = RequestCtx::new();
                    svc.rename_dir(
                        &p(&format!("/t{t}/task")),
                        &p(&format!("/out/r{t}")),
                        &mut stats,
                    )
                    .unwrap();
                });
            }
        });
        assert_eq!(svc.readdir(&p("/out"), &mut stats).unwrap().len(), 8);
        assert_eq!(
            svc.dirstat(&p("/out"), &mut stats).unwrap().attrs.entries,
            8
        );
        for t in 0..8 {
            assert!(svc.lookup(&p(&format!("/out/r{t}")), &mut stats).is_ok());
            assert_eq!(
                svc.dirstat(&p(&format!("/t{t}")), &mut stats)
                    .unwrap()
                    .attrs
                    .entries,
                0
            );
        }
    };

    let mantle = MantleCluster::build(SimConfig::instant(), 4);
    run(&*mantle, &|path| {
        mantle.bulk_dir(path);
    });

    let dbtable = Tectonic::new(
        SimConfig::instant(),
        TectonicOptions {
            transactional: true,
            ..TectonicOptions::default()
        },
    );
    run(&*dbtable, &|path| {
        dbtable.bulk_dir(path);
    });
}

/// Delta records under contention never lose an update while explicit
/// sweeps race the folds that appends run themselves, and those folds keep
/// what is pending below the bound on every owner of the region.
#[test]
fn delta_records_and_compactor_race_safely() {
    const FOLD_AT: usize = 64; // the crate's private fold bound
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/hot"), &mut stats).unwrap();
    let hot = cluster.lookup(&p("/hot"), &mut stats).unwrap().id;
    cluster.db().force_hot(hot);
    std::thread::scope(|s| {
        for t in 0..6 {
            let svc = &svc;
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                for i in 0..50 {
                    svc.mkdir(&p(&format!("/hot/d_{t}_{i}")), &mut stats)
                        .unwrap();
                }
            });
        }
        // Fold aggressively while mkdirs are in flight.
        let db = cluster.db();
        s.spawn(move || {
            for _ in 0..200 {
                db.compact_once();
                std::thread::yield_now();
            }
        });
    });
    let st = svc.dirstat(&p("/hot"), &mut stats).unwrap();
    assert_eq!(st.attrs.entries, 300);
    assert_eq!(st.attrs.nlink, 302);
    let (rs, re) = mantle::tafdb::dir_region(hot);
    let owners = cluster.db().shard_map().owners_of(rs, re).count();
    assert!(cluster.db().pending_deltas(hot) < FOLD_AT * owners);
    cluster.db().compact_once();
    assert_eq!(
        svc.dirstat(&p("/hot"), &mut stats).unwrap().attrs.entries,
        300
    );
}
