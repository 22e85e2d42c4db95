//! The COSS LIST API: paged listing with continuation, across systems.

use mantle::baselines::infinifs::InfiniFsOptions;
use mantle::baselines::locofs::LocoFsOptions;
use mantle::baselines::tectonic::TectonicOptions;
use mantle::prelude::*;
use mantle::types::{BulkLoad, EntryKind};

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

fn fill<S: MetadataService + BulkLoad>(svc: &S, n: usize) {
    svc.bulk_dir(&p("/bucket"));
    for i in 0..n {
        if i % 5 == 0 {
            svc.bulk_dir(&p(&format!("/bucket/e{i:03}")));
        } else {
            svc.bulk_object(&p(&format!("/bucket/e{i:03}")), 1);
        }
    }
}

fn drain_pages<S: MetadataService>(svc: &S, limit: usize) -> Vec<String> {
    let mut stats = RequestCtx::new();
    let mut out: Vec<String> = Vec::new();
    let mut after: Option<String> = None;
    loop {
        let (page, truncated) = svc
            .list(&p("/bucket"), after.as_deref(), limit, &mut stats)
            .unwrap();
        assert!(page.len() <= limit);
        out.extend(page.iter().map(|e| e.name.clone()));
        if !truncated {
            break;
        }
        assert_eq!(page.len(), limit, "truncated pages must be full");
        after = Some(page.last().unwrap().name.clone());
    }
    out
}

#[test]
fn pagination_covers_everything_exactly_once() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    fill(&*cluster, 57);
    for limit in [1usize, 7, 10, 57, 100] {
        let names = drain_pages(&*cluster, limit);
        assert_eq!(names.len(), 57, "limit {limit}");
        let expected: Vec<String> = (0..57).map(|i| format!("e{i:03}")).collect();
        assert_eq!(names, expected, "limit {limit}: sorted, complete, no dupes");
    }
}

#[test]
fn hot_directory_with_pending_deltas_still_fills_its_first_page() {
    // Uncompacted delta records sort right after the attribute row and
    // used to eat the first page's scan slots.
    const LIMIT: usize = 10;
    for engine in [
        mantle::tafdb::EngineKind::Btree,
        mantle::tafdb::EngineKind::Mvcc,
    ] {
        let mut config = MantleConfig::with_sim(SimConfig::instant(), 4);
        config.db.engine = engine;
        let cluster = MantleCluster::with_config(config);
        fill(&*cluster, LIMIT + 10);
        let mut stats = RequestCtx::new();
        let bucket = cluster.lookup(&p("/bucket"), &mut stats).unwrap().id;
        cluster.db().force_hot(bucket);
        for i in 0..6 {
            cluster
                .create(&p(&format!("/bucket/z{i}")), 1, &mut stats)
                .unwrap();
        }
        assert!(cluster.db().pending_deltas(bucket) >= 4, "{engine:?}");

        let (page, truncated) = cluster
            .list(&p("/bucket"), None, LIMIT, &mut stats)
            .unwrap();
        assert_eq!(page.len(), LIMIT, "{engine:?}: first page is full");
        assert!(truncated, "{engine:?}");
        let mut expected: Vec<String> = (0..LIMIT + 10).map(|i| format!("e{i:03}")).collect();
        expected.extend((0..6).map(|i| format!("z{i}")));
        assert_eq!(drain_pages(&*cluster, LIMIT), expected, "{engine:?}");
    }
}

#[test]
fn page_entries_carry_kinds() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    fill(&*cluster, 10);
    let mut stats = RequestCtx::new();
    let (page, truncated) = cluster.list(&p("/bucket"), None, 100, &mut stats).unwrap();
    assert!(!truncated);
    assert_eq!(page.len(), 10);
    assert_eq!(page[0].kind, EntryKind::Dir); // e000 is a dir (0 % 5 == 0).
    assert_eq!(page[1].kind, EntryKind::Object);
}

#[test]
fn start_after_is_exclusive_and_missing_dir_errors() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    fill(&*cluster, 5);
    let mut stats = RequestCtx::new();
    let (page, _) = cluster
        .list(&p("/bucket"), Some("e002"), 10, &mut stats)
        .unwrap();
    assert_eq!(
        page.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
        vec!["e003", "e004"]
    );
    assert!(cluster.list(&p("/ghost"), None, 10, &mut stats).is_err());
}

#[test]
fn default_impl_matches_override() {
    // Tectonic uses the default readdir-based implementation; Mantle uses
    // the bounded range scan. Same workload, same pages.
    let mantle = MantleCluster::build(SimConfig::instant(), 4);
    let tectonic = Tectonic::new(SimConfig::instant(), TectonicOptions::default());
    fill(&*mantle, 23);
    fill(&*tectonic, 23);
    for limit in [4usize, 23] {
        assert_eq!(drain_pages(&*mantle, limit), drain_pages(&*tectonic, limit));
    }
}

#[test]
fn empty_directory_lists_empty() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    cluster.bulk_dir(&p("/bucket"));
    let mut stats = RequestCtx::new();
    let (page, truncated) = cluster.list(&p("/bucket"), None, 10, &mut stats).unwrap();
    assert!(page.is_empty());
    assert!(!truncated);
}

#[test]
fn unbounded_limit_returns_the_whole_directory_on_every_system() {
    // `limit + sentinel` must saturate, not overflow: `usize::MAX` is the
    // "no bound" page, identical on the scan overrides and the LocoFS
    // default implementation.
    fn whole<S: MetadataService + BulkLoad>(svc: &S) {
        fill(svc, 5);
        let (page, truncated) = svc
            .list(&p("/bucket"), None, usize::MAX, &mut RequestCtx::new())
            .unwrap();
        let names: Vec<&str> = page.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["e000", "e001", "e002", "e003", "e004"],
            "{}",
            svc.name()
        );
        assert!(!truncated, "{}", svc.name());
        let (tail, truncated) = svc
            .list(
                &p("/bucket"),
                Some("e002"),
                usize::MAX,
                &mut RequestCtx::new(),
            )
            .unwrap();
        assert_eq!(tail.len(), 2, "{}", svc.name());
        assert!(!truncated, "{}", svc.name());
    }
    let sim = SimConfig::instant();
    whole(&*MantleCluster::build(sim, 4));
    whole(&*Tectonic::new(sim, TectonicOptions::default()));
    whole(&*InfiniFs::new(sim, InfiniFsOptions::default()));
    whole(&*LocoFs::new(sim, LocoFsOptions::default()));
}
