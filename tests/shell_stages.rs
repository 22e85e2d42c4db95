//! The stage breakdown of the five ops `tests/stage_breakdown.rs` leaves
//! out, pinned exactly: the `(lookup, loop_detect, execute)` nanoseconds
//! `RequestCtx::time` charges to one `lookup`, `readdir`, `list`, `delete`
//! and `rmdir` on each system. Same setting as that file: one client, a
//! fresh cluster, `SimConfig::default()`, path-lease cache off, one op at a
//! time on a context of its own. Mantle, Tectonic and InfiniFS run these
//! ops through one service shell; these literals hold that the shell wraps
//! each op in the phases its system always charged.

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

/// The script every system runs, after `mkdir /a`, `/a/b`, `/a/b/d` and
/// `create /a/b/o`: lookup, readdir, list, delete, then rmdir.
fn script(svc: &dyn MetadataService) -> [[u64; 3]; 5] {
    for dir in ["/a", "/a/b", "/a/b/d"] {
        svc.mkdir(&p(dir), &mut RequestCtx::new()).unwrap();
    }
    svc.create(&p("/a/b/o"), 7, &mut RequestCtx::new()).unwrap();
    [
        stages("lookup", |c| svc.lookup(&p("/a/b"), c).map(|_| ())),
        stages("readdir", |c| {
            let entries = svc.readdir(&p("/a/b"), c)?;
            assert_eq!(entries.len(), 2, "{}", svc.name());
            Ok(())
        }),
        stages("list", |c| {
            let (page, more) = svc.list(&p("/a/b"), None, 1, c)?;
            assert_eq!((page.len(), more), (1, true), "{}", svc.name());
            Ok(())
        }),
        stages("delete", |c| svc.delete(&p("/a/b/o"), c)),
        stages("rmdir", |c| svc.rmdir(&p("/a/b/d"), c)),
    ]
}

#[test]
fn mantle_shell_stages_are_pinned() {
    let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
    config.pcache = PathLeaseConfig::default();
    let mantle = MantleCluster::with_config(config);
    assert_eq!(
        script(&*mantle),
        [
            [414_000, 0, 0],
            [414_000, 0, 205_000],
            [209_000, 0, 205_000],
            [414_000, 0, 510_000],
            [625_000, 0, 1_125_000],
        ]
    );
}

#[test]
fn tectonic_shell_stages_are_pinned() {
    let tectonic = Tectonic::new(SimConfig::default(), TectonicOptions::default());
    assert_eq!(
        script(&*tectonic),
        [
            [410_000, 0, 0],
            [410_000, 0, 205_000],
            [410_000, 0, 205_000],
            [410_000, 0, 815_000],
            [615_000, 0, 1_120_000],
        ]
    );
}

#[test]
fn infinifs_shell_stages_are_pinned() {
    let infinifs = InfiniFs::with_path_cache(
        SimConfig::default(),
        InfiniFsOptions::default(),
        PathLeaseConfig::default(),
    );
    assert_eq!(
        script(&*infinifs),
        [
            [210_000, 0, 0],
            [210_000, 0, 205_000],
            [210_000, 0, 205_000],
            [210_000, 0, 815_000],
            [210_000, 0, 1_325_000],
        ]
    );
}

#[test]
fn locofs_shell_stages_are_pinned() {
    let locofs = LocoFs::new(SimConfig::default(), LocoFsOptions::default());
    assert_eq!(
        script(&*locofs),
        [
            [209_000, 0, 0],
            [0, 0, 414_000],
            [0, 0, 414_000],
            [209_000, 0, 1_015_000],
            [0, 0, 509_000],
        ]
    );
}
