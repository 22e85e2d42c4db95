//! Synthetic namespaces shaped like the paper's production traces.
//!
//! Figure 3 characterizes five internal namespaces: > 2 B entries each,
//! 82–92 % objects, average *access* depth 10.6–11.9 (max depth up to 95).
//! Table 3 adds Cluster-C's five namespaces (C1–C5) with their small-object
//! ratios. The generator reproduces those distributions at a laptop scale
//! (default 10⁻⁴ of the paper's entry counts — DESIGN.md §1 explains why
//! scaling is sound: every operation is O(depth), not O(namespace)).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mantle_types::{BulkLoad, MetaPath};

/// Shape parameters of a synthetic namespace.
#[derive(Clone, Debug)]
pub struct NamespaceSpec {
    /// Display name ("ns1", "C3", …).
    pub name: &'static str,
    /// Total entries to create (objects + directories).
    pub entries: usize,
    /// Fraction of entries that are objects (Figure 3a: 0.82–0.917).
    pub object_fraction: f64,
    /// Mean directory depth (Figure 3b: ≈ 10–12).
    pub mean_depth: f64,
    /// Standard deviation of depth.
    pub depth_stddev: f64,
    /// Maximum depth (paper: up to 95).
    pub max_depth: usize,
    /// Fraction of objects ≤ 512 KB (Table 3).
    pub small_object_fraction: f64,
    /// Paper-reported entry count, for side-by-side reporting.
    pub paper_entries: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NamespaceSpec {
    /// A small namespace for tests.
    pub fn tiny() -> Self {
        NamespaceSpec {
            name: "tiny",
            entries: 2_000,
            object_fraction: 0.9,
            mean_depth: 10.0,
            depth_stddev: 2.5,
            max_depth: 20,
            small_object_fraction: 0.5,
            paper_entries: 0.0,
            seed: 42,
        }
    }

    /// The five §3 namespaces (ns1–ns5), scaled by `scale` (1.0 = 10⁻⁴ of
    /// the paper's entry counts).
    pub fn figure3(scale: f64) -> Vec<NamespaceSpec> {
        let base = |name, billions: f64, obj_frac, depth| NamespaceSpec {
            name,
            entries: (billions * 1e9 * 1e-4 * scale) as usize,
            object_fraction: obj_frac,
            mean_depth: depth,
            depth_stddev: 3.0,
            max_depth: 95,
            small_object_fraction: 0.5,
            paper_entries: billions * 1e9,
            seed: 1,
        };
        vec![
            base("ns1", 3.0, 0.917, 11.6),
            base("ns2", 2.6, 0.88, 11.5),
            base("ns3", 2.4, 0.86, 10.8),
            base("ns4", 4.0, 0.82, 10.6),
            base("ns5", 2.2, 0.90, 11.9),
        ]
    }

    /// The five Table 3 Cluster-C namespaces.
    pub fn table3(scale: f64) -> Vec<NamespaceSpec> {
        let c = |name, objects_b: f64, dirs_m: f64, small| {
            let entries_paper = objects_b * 1e9 + dirs_m * 1e6;
            NamespaceSpec {
                name,
                entries: (entries_paper * 1e-4 * scale) as usize,
                object_fraction: objects_b * 1e9 / entries_paper,
                mean_depth: 10.5,
                depth_stddev: 3.0,
                max_depth: 60,
                small_object_fraction: small,
                paper_entries: entries_paper,
                seed: 2,
            }
        };
        vec![
            c("C1", 3.2, 27.0, 0.62),
            c("C2", 2.1, 194.0, 0.292),
            c("C3", 1.2, 145.0, 0.337),
            c("C4", 0.8, 88.0, 0.288),
            c("C5", 0.075, 9.0, 0.281),
        ]
    }
}

/// Measured statistics of a generated namespace (the Figure 3 / Table 3
/// columns).
#[derive(Clone, Debug)]
pub struct NamespaceStats {
    /// Total entries created.
    pub entries: usize,
    /// Objects created.
    pub objects: usize,
    /// Directories created.
    pub dirs: usize,
    /// Mean depth over object paths (≈ access depth under uniform access).
    pub mean_object_depth: f64,
    /// Maximum object depth.
    pub max_object_depth: usize,
    /// Histogram of object depths (index = depth).
    pub depth_histogram: Vec<usize>,
    /// Fraction of objects ≤ 512 KB.
    pub small_object_fraction: f64,
}

/// A populated namespace: the paths the workloads sample from.
pub struct NamespaceHandle {
    /// Shape used to build it.
    pub spec: NamespaceSpec,
    /// All object paths.
    pub objects: Vec<MetaPath>,
    /// All directory paths (deepest-chain representatives).
    pub dirs: Vec<MetaPath>,
}

impl NamespaceHandle {
    /// Builds the namespace into `svc` via its bulk loader.
    pub fn populate<S: BulkLoad + ?Sized>(svc: &S, spec: NamespaceSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let n_objects = (spec.entries as f64 * spec.object_fraction) as usize;
        let n_dirs = spec.entries.saturating_sub(n_objects).max(1);

        // Directory tree: walk down from the root, descending into an
        // existing child with high probability and branching a new one
        // otherwise. Shallow levels end up heavily shared (a few hot
        // prefixes) while leaves fan out — the shape that makes truncated
        // prefixes (Figure 18) collapse onto far fewer cache entries than
        // full paths.
        use std::collections::HashMap;
        let mut child_index: HashMap<MetaPath, Vec<MetaPath>> = HashMap::new();
        let mut dirs_by_depth: Vec<Vec<MetaPath>> = vec![vec![MetaPath::root()]];
        let mut dirs: Vec<MetaPath> = Vec::with_capacity(n_dirs);
        while dirs.len() < n_dirs {
            let depth = sample_depth(&mut rng, &spec);
            let mut current = MetaPath::root();
            for level in 1..=depth {
                if dirs.len() >= n_dirs && level > 1 {
                    break;
                }
                let kids = child_index.get(&current);
                let descend = kids.is_some_and(|k| !k.is_empty()) && rng.gen_bool(0.9);
                current = if descend {
                    let kids = child_index.get(&current).expect("checked above");
                    kids[rng.gen_range(0..kids.len())].clone()
                } else {
                    // Branch as a *burst* of siblings: production trees
                    // cluster many leaf directories under one parent (a
                    // dataset's per-task or per-batch directories), which
                    // is what makes truncated prefixes collapse onto few
                    // cache entries (Figure 18).
                    let burst = rng.gen_range(8..40usize).min(n_dirs - dirs.len()).max(1);
                    let mut picked = None;
                    for b in 0..burst {
                        let child = current.child(&format!("d{}", dirs.len()));
                        svc.bulk_dir(&child);
                        child_index
                            .entry(current.clone())
                            .or_default()
                            .push(child.clone());
                        if dirs_by_depth.len() <= level {
                            dirs_by_depth.resize(level + 1, Vec::new());
                        }
                        dirs_by_depth[level].push(child.clone());
                        dirs.push(child.clone());
                        if b == 0 {
                            picked = Some(child);
                        }
                    }
                    picked.expect("burst >= 1")
                };
            }
        }

        // Objects: attach to directories, sampling the parent's depth from
        // the same distribution so access depth matches Figure 3b.
        let mut objects = Vec::with_capacity(n_objects);
        for i in 0..n_objects {
            let parent = loop {
                let want = sample_depth(&mut rng, &spec).max(1);
                let depth = want.min(dirs_by_depth.len() - 1).max(1);
                let level = &dirs_by_depth[depth];
                if !level.is_empty() {
                    break &level[rng.gen_range(0..level.len())];
                }
            };
            let size = if rng.gen_bool(spec.small_object_fraction) {
                rng.gen_range(1_024..512 * 1_024)
            } else {
                rng.gen_range(512 * 1_024..64 * 1_024 * 1_024)
            };
            let path = parent.child(&format!("o{i}"));
            svc.bulk_object(&path, size);
            objects.push(path);
        }

        NamespaceHandle {
            spec,
            objects,
            dirs,
        }
    }

    /// Computes the Figure 3 / Table 3 statistics from the generated paths.
    pub fn stats(&self) -> NamespaceStats {
        let mut histogram = Vec::new();
        let mut sum = 0usize;
        let mut max = 0usize;
        for o in &self.objects {
            let d = o.depth();
            if histogram.len() <= d {
                histogram.resize(d + 1, 0);
            }
            histogram[d] += 1;
            sum += d;
            max = max.max(d);
        }
        NamespaceStats {
            entries: self.objects.len() + self.dirs.len(),
            objects: self.objects.len(),
            dirs: self.dirs.len(),
            mean_object_depth: if self.objects.is_empty() {
                0.0
            } else {
                sum as f64 / self.objects.len() as f64
            },
            max_object_depth: max,
            depth_histogram: histogram,
            small_object_fraction: self.spec.small_object_fraction,
        }
    }
}

fn sample_depth(rng: &mut StdRng, spec: &NamespaceSpec) -> usize {
    // Box-Muller normal around the mean depth, clamped to [2, max_depth].
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let d = spec.mean_depth + z * spec.depth_stddev;
    (d.round().max(2.0) as usize).min(spec.max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_core::{MantleCluster, MetadataService};
    use mantle_types::{RequestCtx, SimConfig};

    #[test]
    fn generated_shape_matches_spec() {
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        let mut spec = NamespaceSpec::tiny();
        spec.entries = 5_000;
        spec.mean_depth = 10.0;
        let ns = NamespaceHandle::populate(&cluster, spec);
        let stats = ns.stats();
        assert!(stats.objects > 4_000, "object fraction ~0.9: {stats:?}");
        assert!(
            (8.0..=12.5).contains(&stats.mean_object_depth),
            "mean depth ≈ 10–11: {}",
            stats.mean_object_depth
        );
        assert!(stats.max_object_depth <= 21);

        // Every generated object is actually resolvable through the service.
        let mut op = RequestCtx::new();
        for path in ns.objects.iter().step_by(500) {
            cluster.objstat(path, &mut op).unwrap();
        }
        for dir in ns.dirs.iter().step_by(200) {
            cluster.lookup(dir, &mut op).unwrap();
        }
    }

    #[test]
    fn figure3_and_table3_presets_scale() {
        for spec in NamespaceSpec::figure3(0.05) {
            assert!(spec.entries > 1_000, "{spec:?}");
            assert!(spec.paper_entries > 1e9);
        }
        let t3 = NamespaceSpec::table3(0.05);
        assert_eq!(t3.len(), 5);
        assert!(t3[0].small_object_fraction > t3[1].small_object_fraction);
    }
}
