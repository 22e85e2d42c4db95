//! The paper's stage breakdown (§6.3, Figs 13/15), pinned exactly: the
//! `(lookup, loop_detect, execute)` nanoseconds `RequestCtx::time` charges
//! to one `create`, `objstat`, `mkdir`, `dirstat` and `rename_dir` on each
//! system. One client, a fresh cluster, `SimConfig::default()`, path-lease
//! cache off, one op at a time on a context of its own. Other tests only
//! assert that a phase is non-zero; these literals move only when a PR says
//! which stage it meant to move.

use mantle::baselines::{
    infinifs::{InfiniFs, InfiniFsOptions},
    locofs::{LocoFs, LocoFsOptions},
    tectonic::{Tectonic, TectonicOptions},
};
use mantle::core::PathLeaseConfig;
use mantle::prelude::*;

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

/// `[lookup, loop_detect, execute]` nanos of one op.
fn stages(op: &str, f: impl FnOnce(&mut RequestCtx) -> Result<()>) -> [u64; 3] {
    let mut ctx = RequestCtx::new();
    f(&mut ctx).unwrap_or_else(|e| panic!("{op}: {e}"));
    Phase::ALL.map(|phase| ctx.phase_nanos(phase))
}

/// The script every system runs, after `mkdir /a` and `mkdir /a/b`:
/// create, objstat, mkdir, dirstat, then a cross-parent `rename_dir`.
fn script(svc: &dyn MetadataService) -> [[u64; 3]; 5] {
    for dir in ["/a", "/a/b"] {
        svc.mkdir(&p(dir), &mut RequestCtx::new()).unwrap();
    }
    [
        stages("create", |c| svc.create(&p("/a/b/o"), 7, c).map(|_| ())),
        stages("objstat", |c| svc.objstat(&p("/a/b/o"), c).map(|_| ())),
        stages("mkdir", |c| svc.mkdir(&p("/a/b/d"), c).map(|_| ())),
        stages("dirstat", |c| svc.dirstat(&p("/a/b/d"), c).map(|_| ())),
        stages("rename_dir", |c| {
            svc.rename_dir(&p("/a/b/d"), &p("/a/e"), c)
        }),
    ]
}

#[test]
fn mantle_stages_are_pinned() {
    let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
    config.pcache = PathLeaseConfig::default();
    let mantle = MantleCluster::with_config(config);
    assert_eq!(
        script(&*mantle),
        [
            [414_000, 0, 305_000],
            [209_000, 0, 205_000],
            [414_000, 0, 1_125_000],
            [416_000, 0, 205_000],
            [0, 511_000, 1_125_000],
        ]
    );
}

#[test]
fn tectonic_stages_are_pinned() {
    let tectonic = Tectonic::new(SimConfig::default(), TectonicOptions::default());
    assert_eq!(
        script(&*tectonic),
        [
            [410_000, 0, 610_000],
            [410_000, 0, 205_000],
            [410_000, 0, 915_000],
            [615_000, 0, 205_000],
            [615_000, 0, 1_425_000],
        ]
    );
}

#[test]
fn infinifs_stages_are_pinned() {
    let infinifs = InfiniFs::with_path_cache(
        SimConfig::default(),
        InfiniFsOptions::default(),
        PathLeaseConfig::default(),
    );
    assert_eq!(
        script(&*infinifs),
        [
            [210_000, 0, 610_000],
            [415_000, 0, 0],
            [210_000, 0, 915_000],
            [215_000, 0, 205_000],
            [415_000, 205_000, 825_000],
        ]
    );
}

#[test]
fn locofs_stages_are_pinned() {
    let locofs = LocoFs::new(SimConfig::default(), LocoFsOptions::default());
    assert_eq!(
        script(&*locofs),
        [
            [209_000, 0, 810_000],
            [209_000, 0, 205_000],
            [0, 0, 714_000],
            [0, 0, 211_000],
            [0, 716_000, 0],
        ]
    );
}
