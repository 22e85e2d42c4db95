//! The benchmark's own input generator: everything the program under test
//! is given is a pure function of `--seed`.

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: a cheap, well-mixed hash of one word.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of two words.
pub fn mix2(a: u64, b: u64) -> u64 {
    mix(mix(a) ^ b)
}

/// splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A stream for one purpose (`lane`) under one seed, so that clients
    /// and set-up draw from streams that do not overlap.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        Rng(mix2(seed, lane))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }

    /// Uniform in `0..n` (`n > 0`).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf(`n`, `s`) over ranks `0..n` by inverse CDF, with the ranks
/// scattered over `0..n` by a seeded permutation so that the hot items
/// are not neighbours in the namespace.
pub struct Zipf {
    cdf: Vec<f64>,
    scatter: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0 && n <= u32::MAX as usize);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        let mut scatter: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::for_lane(seed, 0x5ca7);
        for i in (1..n).rev() {
            scatter.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, scatter }
    }

    #[inline]
    fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draws an item in `0..n`; item `scatter[0]` is the most likely.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.scatter[self.rank(rng)] as usize
    }

    /// Draws like [`Zipf::sample`], then moves the rank within its group
    /// of `lanes` neighbouring ranks to the one that is `lane` modulo
    /// `lanes`: the items are split between `lanes` drawers, no item has
    /// two, and every drawer has its share of hot and of cold ones.
    #[inline]
    pub fn sample_lane(&self, rng: &mut Rng, lane: usize, lanes: usize) -> usize {
        debug_assert!(lane < lanes && lanes <= self.cdf.len());
        let rank = self.rank(rng);
        let mut rank = rank - rank % lanes + lane;
        if rank >= self.cdf.len() {
            rank -= lanes;
        }
        self.scatter[rank] as usize
    }

    /// The items in order of decreasing probability.
    pub fn hottest(&self) -> &[u32] {
        &self.scatter
    }
}

/// Children per directory at each level of the read namespace: 4^6 =
/// 4,096 distinct depth-6 prefixes (so the IndexNode's TopDirPathCache,
/// which keys on the path minus its last three levels, holds thousands
/// of entries), then 2·2·4 = 16 leaf directories under each.
pub const FANOUT: [usize; 9] = [4, 4, 4, 4, 4, 4, 2, 2, 4];
/// Objects bulk-loaded into every leaf directory.
pub const OBJECTS_PER_DIR: usize = 4;

/// The read namespace N1: 65,536 leaf directories at depth 9, four
/// objects in each.
pub struct Namespace {
    pub seed: u64,
    /// Leaf directory paths, `/a../b../…` with nine components.
    pub dirs: Vec<String>,
}

impl Namespace {
    pub fn generate(seed: u64) -> Self {
        let mut level: Vec<String> = vec![String::new()];
        for (depth, &fanout) in FANOUT.iter().enumerate() {
            let letter = (b'a' + depth as u8) as char;
            let mut next = Vec::with_capacity(level.len() * fanout);
            for (p, parent) in level.iter().enumerate() {
                for i in 0..fanout {
                    // The sibling index keeps names unique; the seeded
                    // suffix makes every seed a different set of strings.
                    let tag = mix2(seed, ((depth as u64) << 40) | ((p * fanout + i) as u64));
                    next.push(format!("{parent}/{letter}{i}{:03x}", tag & 0xfff));
                }
            }
            level = next;
        }
        Namespace { seed, dirs: level }
    }

    /// Size the object `k` of leaf directory `dir` is loaded with, and
    /// must still report when it is read back.
    pub fn object_size(&self, dir: usize, k: usize) -> u64 {
        object_size(self.seed, dir as u64, k as u64)
    }

    /// Writes the path of object `k` of leaf directory `dir` into `buf`
    /// without allocating once `buf` has grown.
    #[inline]
    pub fn object_path(&self, dir: usize, k: usize, buf: &mut String) {
        buf.clear();
        buf.push_str(&self.dirs[dir]);
        buf.push_str("/o");
        buf.push((b'0' + k as u8) as char);
    }
}

/// Size of the object a workload names by `(a, b)`: 1 B ..= 1 MiB.
pub fn object_size(seed: u64, a: u64, b: u64) -> u64 {
    (mix2(mix2(seed, a), b) & 0xf_ffff) + 1
}

/// A directory path of `depth` components for the write workloads,
/// `/w<seed tag>/<purpose>/…/<leaf>`, disjoint from N1 (whose first
/// component starts with `a`).
pub fn work_dir(seed: u64, purpose: &str, depth: usize, leaf: &str) -> String {
    assert!(depth >= 3);
    let mut path = format!("/w{:04x}/{purpose}", mix2(seed, 0xd1) & 0xffff);
    for level in 0..depth - 3 {
        path.push_str("/l");
        path.push((b'0' + level as u8) as char);
    }
    path.push('/');
    path.push_str(leaf);
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_has_the_stated_shape() {
        let ns = Namespace::generate(1);
        assert_eq!(ns.dirs.len(), 65_536);
        let mut prefixes: Vec<&str> = ns
            .dirs
            .iter()
            .map(|d| {
                let cut = d.match_indices('/').nth(6).expect("depth 9").0;
                &d[..cut]
            })
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 4_096);
        assert!(ns.dirs.iter().all(|d| d.matches('/').count() == 9));
        let mut all = ns.dirs.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 65_536, "leaf paths are distinct");
    }

    #[test]
    fn namespace_is_a_function_of_the_seed() {
        assert_eq!(Namespace::generate(7).dirs, Namespace::generate(7).dirs);
        assert_ne!(
            Namespace::generate(7).dirs[0],
            Namespace::generate(8).dirs[0]
        );
    }

    #[test]
    fn zipf_is_skewed_and_covers_the_tail() {
        let z = Zipf::new(1_000, 0.99, 3);
        let mut rng = Rng::new(5);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let hot = z.hottest();
        assert!(counts[hot[0] as usize] > 5 * counts[hot[99] as usize]);
        assert!(hot[500..].iter().any(|&i| counts[i as usize] > 0));
    }

    #[test]
    fn zipf_lanes_share_no_item() {
        // 1,001 items: the last group of ranks is short of a lane.
        let z = Zipf::new(1_001, 0.99, 3);
        let mut rng = Rng::new(5);
        let mut drawn_by = vec![[false; 3]; 1_001];
        for i in 0..300_000 {
            drawn_by[z.sample_lane(&mut rng, i % 3, 3)][i % 3] = true;
        }
        assert!(drawn_by
            .iter()
            .all(|lanes| lanes.iter().filter(|&&l| l).count() <= 1));
        let hot = z.hottest();
        for lane in 0..3 {
            assert!(drawn_by[hot[lane] as usize][lane], "hot item of {lane}");
            assert!(hot[900..].iter().any(|&i| drawn_by[i as usize][lane]));
        }
    }

    #[test]
    fn work_dirs_have_the_requested_depth() {
        let p = work_dir(1, "churn", 9, "p3");
        assert_eq!(p.matches('/').count(), 9, "{p}");
        assert!(p.ends_with("/p3") && p.starts_with("/w"));
        assert_eq!(work_dir(1, "mut", 3, "P").matches('/').count(), 3);
    }
}
