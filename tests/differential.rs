//! Differential testing: all four metadata services, fed the same
//! operation sequence, must agree with a simple reference model (and hence
//! with each other) on every outcome and on the final namespace state.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mantle::baselines::{infinifs::InfiniFs, locofs::LocoFs, tectonic::Tectonic};
use mantle::baselines::{
    infinifs::InfiniFsOptions, locofs::LocoFsOptions, tectonic::TectonicOptions,
};
use mantle::prelude::*;
use mantle::types::BulkLoad;

/// A trivially correct in-memory reference filesystem.
#[derive(Default)]
struct Model {
    /// Path -> is_dir (true) / object size (false).
    entries: BTreeMap<String, Option<u64>>,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Outcome {
    Ok,
    NotFound,
    Exists,
    NotEmpty,
    Loop,
    Kind,
    Invalid,
}

fn classify(r: &Result<(), MetaError>) -> Outcome {
    match r {
        Ok(()) => Outcome::Ok,
        Err(MetaError::NotFound(_)) => Outcome::NotFound,
        Err(MetaError::AlreadyExists(_)) => Outcome::Exists,
        Err(MetaError::NotEmpty(_)) => Outcome::NotEmpty,
        Err(MetaError::RenameLoop { .. }) => Outcome::Loop,
        Err(MetaError::IsADirectory(_) | MetaError::NotADirectory(_)) => Outcome::Kind,
        Err(_) => Outcome::Invalid,
    }
}

impl Model {
    fn new() -> Self {
        Model {
            entries: BTreeMap::new(),
        }
    }

    fn parent_exists(&self, path: &str) -> bool {
        match path.rfind('/') {
            Some(0) => true,
            Some(i) => self.entries.get(&path[..i]) == Some(&None),
            None => false,
        }
    }

    fn has_children(&self, path: &str) -> bool {
        let prefix = format!("{path}/");
        self.entries.keys().any(|k| k.starts_with(&prefix))
    }

    fn mkdir(&mut self, path: &str) -> Outcome {
        if !self.parent_exists(path) {
            return Outcome::NotFound;
        }
        if self.entries.contains_key(path) {
            return Outcome::Exists;
        }
        self.entries.insert(path.to_string(), None);
        Outcome::Ok
    }

    fn create(&mut self, path: &str, size: u64) -> Outcome {
        if !self.parent_exists(path) {
            return Outcome::NotFound;
        }
        if self.entries.contains_key(path) {
            return Outcome::Exists;
        }
        self.entries.insert(path.to_string(), Some(size));
        Outcome::Ok
    }

    fn delete(&mut self, path: &str) -> Outcome {
        if !self.parent_exists(path) {
            return Outcome::NotFound;
        }
        match self.entries.get(path) {
            None => Outcome::NotFound,
            Some(None) => Outcome::Kind,
            Some(Some(_)) => {
                self.entries.remove(path);
                Outcome::Ok
            }
        }
    }

    fn rmdir(&mut self, path: &str) -> Outcome {
        match self.entries.get(path) {
            None => Outcome::NotFound,
            Some(Some(_)) => Outcome::NotFound, // Object: resolution fails.
            Some(None) => {
                if self.has_children(path) {
                    return Outcome::NotEmpty;
                }
                self.entries.remove(path);
                Outcome::Ok
            }
        }
    }

    fn rename(&mut self, src: &str, dst: &str) -> Outcome {
        // `MetaPath::rename_precheck`, on strings.
        if src == dst {
            return Outcome::Invalid;
        }
        if dst.starts_with(&format!("{src}/")) {
            return Outcome::Loop;
        }
        match self.entries.get(src) {
            None => Outcome::NotFound,
            Some(Some(_)) => Outcome::NotFound, // rename_dir resolves dirs only.
            Some(None) => {
                if !self.parent_exists(dst) {
                    return Outcome::NotFound;
                }
                if self.entries.contains_key(dst) {
                    return Outcome::Exists;
                }
                // Move the subtree.
                let prefix = format!("{src}/");
                let moved: Vec<(String, Option<u64>)> = self
                    .entries
                    .range(src.to_string()..)
                    .take_while(|(k, _)| k.as_str() == src || k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                for (k, _) in &moved {
                    self.entries.remove(k);
                }
                for (k, v) in moved {
                    let new_key = format!("{dst}{}", &k[src.len()..]);
                    self.entries.insert(new_key, v);
                }
                Outcome::Ok
            }
        }
    }

    fn objstat(&self, path: &str) -> Outcome {
        if !self.parent_exists(path) {
            return Outcome::NotFound;
        }
        match self.entries.get(path) {
            Some(Some(_)) => Outcome::Ok,
            Some(None) => Outcome::Kind,
            None => Outcome::NotFound,
        }
    }
}

fn random_path(rng: &mut StdRng, depth_max: usize) -> String {
    let depth = rng.gen_range(1..=depth_max);
    let mut parts = Vec::new();
    for _ in 0..depth {
        parts.push(format!("n{}", rng.gen_range(0..4)));
    }
    format!("/{}", parts.join("/"))
}

fn run_differential<S: MetadataService + BulkLoad>(svc: &S, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new();
    let mut stats = RequestCtx::new();

    for step in 0..600 {
        let path = random_path(&mut rng, 4);
        let mp = MetaPath::parse(&path).unwrap();
        let op = rng.gen_range(0..7);
        let (got, want) = match op {
            0 => (
                classify(&svc.mkdir(&mp, &mut stats).map(|_| ())),
                model.mkdir(&path),
            ),
            1 => (
                classify(&svc.create(&mp, 7, &mut stats).map(|_| ())),
                model.create(&path, 7),
            ),
            2 => (classify(&svc.delete(&mp, &mut stats)), model.delete(&path)),
            3 => (classify(&svc.rmdir(&mp, &mut stats)), model.rmdir(&path)),
            4 => (
                classify(&svc.objstat(&mp, &mut stats).map(|_| ())),
                model.objstat(&path),
            ),
            5 => (
                classify(&svc.lookup(&mp, &mut stats).map(|r| {
                    assert!(r.id.raw() > 0);
                })),
                // lookup succeeds only for directories.
                match model.entries.get(&path) {
                    Some(None) => Outcome::Ok,
                    Some(Some(_)) => Outcome::Kind,
                    None => Outcome::NotFound,
                },
            ),
            _ => {
                let dst = random_path(&mut rng, 4);
                let dmp = MetaPath::parse(&dst).unwrap();
                (
                    classify(&svc.rename_dir(&mp, &dmp, &mut stats)),
                    model.rename(&path, &dst),
                )
            }
        };
        // An object where a directory is wanted: Mantle's IndexNode and
        // LocoFS's directory server hold directories only, so to them the
        // name is missing (telling would cost a TafDB RPC); the DBtable
        // systems read the row and report its kind. Accept either.
        let ambiguous = matches!(
            (got, want),
            (Outcome::NotFound, Outcome::Kind) | (Outcome::Kind, Outcome::NotFound)
        );
        assert!(
            got == want || ambiguous,
            "{}: step {step}: op {op} on {path}: system {got:?} vs model {want:?}",
            svc.name()
        );
    }

    // Final state: every model entry is visible in the system with the
    // right kind, and dirstat entry counts match the model's direct-child
    // counts.
    for (path, kind) in &model.entries {
        let mp = MetaPath::parse(path).unwrap();
        match kind {
            None => {
                assert!(
                    svc.lookup(&mp, &mut stats).is_ok(),
                    "{}: missing dir {path}",
                    svc.name()
                );
                let children = model
                    .entries
                    .keys()
                    .filter(|k| {
                        k.starts_with(&format!("{path}/")) && !k[path.len() + 1..].contains('/')
                    })
                    .count() as i64;
                let st = svc.dirstat(&mp, &mut stats).unwrap();
                assert_eq!(
                    st.attrs.entries,
                    children,
                    "{}: entries of {path}",
                    svc.name()
                );
                assert_eq!(
                    svc.readdir(&mp, &mut stats).unwrap().len() as i64,
                    children,
                    "{}: readdir of {path}",
                    svc.name()
                );
            }
            Some(size) => {
                assert_eq!(
                    svc.objstat(&mp, &mut stats).unwrap().size,
                    *size,
                    "{}: object {path}",
                    svc.name()
                );
            }
        }
    }
}

#[test]
fn mantle_matches_model() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    run_differential(&*cluster, 99);
}

#[test]
fn tectonic_matches_model() {
    let svc = Tectonic::new(SimConfig::instant(), TectonicOptions::default());
    run_differential(&*svc, 99);
}

#[test]
fn tectonic_transactional_matches_model() {
    let svc = Tectonic::new(
        SimConfig::instant(),
        TectonicOptions {
            transactional: true,
            ..TectonicOptions::default()
        },
    );
    run_differential(&*svc, 99);
}

#[test]
fn infinifs_matches_model() {
    let svc = InfiniFs::new(SimConfig::instant(), InfiniFsOptions::default());
    run_differential(&*svc, 99);
}

#[test]
fn infinifs_with_path_cache_matches_model() {
    let svc = InfiniFs::with_path_cache(
        SimConfig::instant(),
        InfiniFsOptions::default(),
        mantle::core::PathLeaseConfig::enabled(),
    );
    run_differential(&*svc, 107);
}

#[test]
fn locofs_matches_model() {
    let svc = LocoFs::new(SimConfig::instant(), LocoFsOptions::default());
    run_differential(&*svc, 99);
}

#[test]
fn different_seeds_hold_for_mantle() {
    for seed in [3, 17, 23] {
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        run_differential(&*cluster, seed);
    }
}
