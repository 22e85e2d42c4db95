//! The five workloads. Each builds its own cluster and namespace from the
//! seed, hands out closed-loop clients that keep a shadow model of what
//! they changed, and checks the cluster against that model at the end.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mantle::prelude::{MetaError, MetaPath, MetadataService, RequestCtx};

use crate::driver::Recorder;
use crate::gen::{object_size, work_dir, Namespace, Rng, Zipf, OBJECTS_PER_DIR};
use crate::ops::{self, Op, Reply};
use crate::world::{self, World};

/// Names, in the order reports list them.
pub const NAMES: [&str; 5] = [
    "read_deep",
    "read_leased",
    "obj_churn",
    "dir_mutate",
    "mixed_objects",
];

/// Paths of each kind a client's final check samples.
const VERIFY_SAMPLE: usize = 1_000;

/// Outcome of the final check against the shadow model.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub checks: u64,
    pub failures: u64,
    pub first_failure: Option<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// One closed-loop client: its next request goes out when the previous
/// reply is in.
pub trait Client<W>: Send {
    /// Issues the next op or ops of this client's stream.
    fn step(&mut self, workload: &W, rec: &mut Recorder);
}

pub trait Workload: Sized + Sync {
    type Client: Client<Self>;
    const NAME: &'static str;
    /// Cluster construction, bulk load and path generation: `setup_s`.
    fn setup(seed: u64) -> Self;
    fn world(&self) -> &World;
    fn clients(&self, seed: u64) -> Vec<Self::Client>;
    /// Checks the cluster against the clients' shadow models.
    fn verify(&self, clients: &mut [Self::Client]) -> Verdict;
}

/// `min(2, nproc)` client threads, as the protocol states.
fn two_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn untimed(world: &World, op: &Op<'_>) -> ops::OpResult {
    ops::direct(world, op, &mut RequestCtx::new())
}

/// Runs `objstat path` timed and books a reply whose size is not `want`.
fn objstat_expecting(rec: &mut Recorder, world: &World, path: &str, want: u64) {
    if let Ok(reply) = rec.run(world, &Op::Objstat(path)) {
        if !matches!(&reply, Reply::Object(o) if o.size == want) {
            rec.wrong(|| format!("objstat {path}: {reply:?}, want size {want}"));
        }
    }
}

/// Keeps the last `VERIFY_SAMPLE` deleted objects for the final check.
fn remember_deleted<T>(ring: &mut VecDeque<T>, gone: T) {
    if ring.len() == VERIFY_SAMPLE {
        ring.pop_front();
    }
    ring.push_back(gone);
}

fn is_not_found(r: &ops::OpResult) -> bool {
    matches!(r, Err(MetaError::NotFound(_)))
}

/// Pages through `dir` with `limit`-entry pages and checks that the pages
/// are sorted, duplicate-free and together exactly `expected`.
fn check_listing(
    world: &World,
    dir: &str,
    limit: usize,
    expected: &BTreeSet<String>,
    verdict: &mut Verdict,
) {
    let path = MetaPath::parse(dir).expect("generated path");
    let mut names: Vec<String> = Vec::with_capacity(expected.len());
    let mut after: Option<String> = None;
    loop {
        let page = world
            .cluster
            .list(&path, after.as_deref(), limit, &mut RequestCtx::new());
        let Ok((page, more)) = page else {
            verdict.check(false, || format!("list {dir} failed: {page:?}"));
            return;
        };
        verdict.check(page.len() <= limit, || format!("list {dir}: page too long"));
        names.extend(page.into_iter().map(|e| e.name));
        if !more || names.is_empty() {
            break;
        }
        after = names.last().cloned();
    }
    verdict.check(names.windows(2).all(|w| w[0] < w[1]), || {
        format!("list {dir}: pages not strictly ascending")
    });
    verdict.check(names.iter().eq(expected.iter()), || {
        format!(
            "list {dir}: {} names listed, {} expected",
            names.len(),
            expected.len()
        )
    });
}

// --- read_deep / read_leased ----------------------------------------------

/// `read_deep` (`LEASED = false`: path cache off, directories drawn
/// uniformly) and `read_leased` (path-lease cache on, directories drawn
/// Zipf(0.99) over four times the cache's capacity).
pub struct Reads<const LEASED: bool> {
    world: World,
    ns: Namespace,
    zipf: Option<Zipf>,
}

pub struct ReadClient {
    rng: Rng,
    buf: String,
}

fn base_names() -> BTreeSet<String> {
    (0..OBJECTS_PER_DIR).map(|k| format!("o{k}")).collect()
}

/// Builds a cluster holding N1.
fn load_namespace(seed: u64, path_cache: bool) -> (World, Namespace) {
    let world = World::build(world::config(path_cache));
    let ns = Namespace::generate(seed);
    let mut buf = String::new();
    for dir in 0..ns.dirs.len() {
        for k in 0..OBJECTS_PER_DIR {
            ns.object_path(dir, k, &mut buf);
            world.load_object(&buf, ns.object_size(dir, k));
        }
    }
    (world, ns)
}

impl<const LEASED: bool> Reads<LEASED> {
    #[inline]
    fn pick_dir(&self, rng: &mut Rng) -> usize {
        match &self.zipf {
            Some(zipf) => zipf.sample(rng),
            None => rng.below(self.ns.dirs.len()),
        }
    }
}

impl<const LEASED: bool> Workload for Reads<LEASED> {
    type Client = ReadClient;
    const NAME: &'static str = if LEASED { "read_leased" } else { "read_deep" };

    fn setup(seed: u64) -> Self {
        let (world, ns) = load_namespace(seed, LEASED);
        let zipf = LEASED.then(|| Zipf::new(ns.dirs.len(), 0.99, seed));
        if let Some(zipf) = &zipf {
            // Resolve the directories the cache will come to hold, the
            // hottest last. An LRU under a Zipf tail takes millions of
            // draws to settle; left to the warm-up pass, the hit rate
            // (and with it `rpcs_per_op` and `modeled_mean_us`) would
            // still be climbing through the measured passes, faster on a
            // faster machine.
            let capacity = world.cluster.config().pcache.capacity;
            for &dir in zipf.hottest()[..capacity].iter().rev() {
                let warmed = untimed(&world, &Op::Lookup(&ns.dirs[dir as usize]));
                assert!(warmed.is_ok(), "{warmed:?}");
            }
        }
        Reads { world, ns, zipf }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self, seed: u64) -> Vec<ReadClient> {
        // `read_leased` runs one client. A lease's expiry is stamped on the
        // virtual clock of the thread that filled it, and a thread's clock
        // runs as fast as the thread does, so with two clients the hit rate
        // follows how far the scheduler lets the two clocks drift apart:
        // `rpcs_per_op` then varied by 2 % from run to run, and it is the
        // metric a real-cost change must leave exactly where it was.
        (0..if LEASED { 1 } else { two_clients() })
            .map(|i| ReadClient {
                rng: Rng::for_lane(seed, 0x100 + i as u64),
                buf: String::with_capacity(128),
            })
            .collect()
    }

    fn verify(&self, clients: &mut [ReadClient]) -> Verdict {
        let mut verdict = Verdict::default();
        let expected = base_names();
        for client in clients {
            for i in 0..VERIFY_SAMPLE {
                let dir = self.pick_dir(&mut client.rng);
                let k = client.rng.below(OBJECTS_PER_DIR);
                self.ns.object_path(dir, k, &mut client.buf);
                let got = untimed(&self.world, &Op::Objstat(&client.buf));
                let want = self.ns.object_size(dir, k);
                verdict.check(
                    matches!(&got, Ok(Reply::Object(o)) if o.size == want),
                    || format!("objstat {}: {got:?}, want size {want}", client.buf),
                );
                if i % 20 == 0 {
                    check_listing(&self.world, &self.ns.dirs[dir], 3, &expected, &mut verdict);
                }
            }
        }
        verdict
    }
}

impl<const LEASED: bool> Client<Reads<LEASED>> for ReadClient {
    #[inline]
    fn step(&mut self, w: &Reads<LEASED>, rec: &mut Recorder) {
        let dir = w.pick_dir(&mut self.rng);
        match self.rng.below(100) {
            0..=69 => {
                let k = self.rng.below(OBJECTS_PER_DIR);
                w.ns.object_path(dir, k, &mut self.buf);
                objstat_expecting(rec, &w.world, &self.buf, w.ns.object_size(dir, k));
            }
            70..=89 => {
                let _ = rec.run(&w.world, &Op::Lookup(&w.ns.dirs[dir]));
            }
            _ => {
                if let Ok(reply) = rec.run(&w.world, &Op::Dirstat(&w.ns.dirs[dir])) {
                    let full = matches!(&reply, Reply::Dir(d) if d.attrs.entries == OBJECTS_PER_DIR as i64);
                    if !full {
                        rec.wrong(|| format!("dirstat {}: {reply:?}", w.ns.dirs[dir]));
                    }
                }
            }
        }
    }
}

pub type ReadDeep = Reads<false>;
pub type ReadLeased = Reads<true>;

// --- obj_churn --------------------------------------------------------------

/// Exclusive parents per client.
const CHURN_PARENTS: usize = 64;
/// Objects bulk-loaded into every parent, so directories hold ~1k entries.
const CHURN_RESIDENT: usize = 1_024;
/// An object is deleted this many iterations after its creation.
const CHURN_LAG: usize = 1_024;

pub struct ObjChurn {
    world: World,
    seed: u64,
    /// `parents[client][j]`.
    parents: Vec<Vec<String>>,
}

struct Created {
    parent: u32,
    serial: u64,
    size: u64,
}

pub struct ChurnClient {
    id: usize,
    iter: u64,
    live: VecDeque<Created>,
    /// The most recently deleted objects.
    deleted: VecDeque<(u32, u64)>,
    buf: String,
}

impl ObjChurn {
    fn path(&self, client: usize, parent: u32, serial: u64, buf: &mut String) {
        use std::fmt::Write as _;
        buf.clear();
        let _ = write!(buf, "{}/n{serial}", self.parents[client][parent as usize]);
    }

    fn size(&self, client: usize, parent: u32, serial: u64) -> u64 {
        object_size(
            self.seed,
            (client * CHURN_PARENTS + parent as usize) as u64,
            serial,
        )
    }
}

impl Workload for ObjChurn {
    type Client = ChurnClient;
    const NAME: &'static str = "obj_churn";

    fn setup(seed: u64) -> Self {
        let world = World::build(world::config(false));
        let parents: Vec<Vec<String>> = (0..two_clients())
            .map(|c| {
                (0..CHURN_PARENTS)
                    .map(|j| work_dir(seed, "churn", 9, &format!("c{c}p{j}")))
                    .collect()
            })
            .collect();
        for (c, mine) in parents.iter().enumerate() {
            for (j, parent) in mine.iter().enumerate() {
                for n in 0..CHURN_RESIDENT {
                    let size =
                        object_size(seed, (c * CHURN_PARENTS + j) as u64, (1 << 40) + n as u64);
                    world.load_object(&format!("{parent}/b{n:04}"), size);
                }
            }
        }
        ObjChurn {
            world,
            seed,
            parents,
        }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self, _seed: u64) -> Vec<ChurnClient> {
        (0..self.parents.len())
            .map(|id| ChurnClient {
                id,
                iter: 0,
                live: VecDeque::with_capacity(CHURN_LAG + 1),
                deleted: VecDeque::with_capacity(VERIFY_SAMPLE),
                buf: String::with_capacity(128),
            })
            .collect()
    }

    fn verify(&self, clients: &mut [ChurnClient]) -> Verdict {
        let mut verdict = Verdict::default();
        let mut buf = String::new();
        for client in clients.iter() {
            let stride = (client.live.len() / VERIFY_SAMPLE).max(1);
            for made in client.live.iter().step_by(stride) {
                self.path(client.id, made.parent, made.serial, &mut buf);
                let got = untimed(&self.world, &Op::Objstat(&buf));
                verdict.check(
                    matches!(&got, Ok(Reply::Object(o)) if o.size == made.size),
                    || format!("objstat {buf}: {got:?}, want size {}", made.size),
                );
            }
            for &(parent, serial) in &client.deleted {
                self.path(client.id, parent, serial, &mut buf);
                let got = untimed(&self.world, &Op::Objstat(&buf));
                verdict.check(is_not_found(&got), || {
                    format!("objstat of deleted {buf}: {got:?}")
                });
            }
            let mut names: Vec<BTreeSet<String>> = (0..CHURN_PARENTS)
                .map(|_| (0..CHURN_RESIDENT).map(|n| format!("b{n:04}")).collect())
                .collect();
            for made in &client.live {
                names[made.parent as usize].insert(format!("n{}", made.serial));
            }
            for (j, expected) in names.iter().enumerate() {
                let dir = &self.parents[client.id][j];
                let got = untimed(&self.world, &Op::Dirstat(dir));
                verdict.check(
                    matches!(&got, Ok(Reply::Dir(d)) if d.attrs.entries == expected.len() as i64),
                    || format!("dirstat {dir}: {got:?}, want {} entries", expected.len()),
                );
                if j % 16 == 0 {
                    check_listing(&self.world, dir, 100, expected, &mut verdict);
                }
            }
        }
        verdict
    }
}

impl Client<ObjChurn> for ChurnClient {
    fn step(&mut self, w: &ObjChurn, rec: &mut Recorder) {
        let parent = (self.iter % CHURN_PARENTS as u64) as u32;
        let serial = self.iter;
        self.iter += 1;
        let size = w.size(self.id, parent, serial);
        w.path(self.id, parent, serial, &mut self.buf);
        if rec.run(&w.world, &Op::Create(&self.buf, size)).is_ok() {
            self.live.push_back(Created {
                parent,
                serial,
                size,
            });
        }
        objstat_expecting(rec, &w.world, &self.buf, size);
        if self.live.len() > CHURN_LAG {
            let old = self.live.pop_front().expect("non-empty");
            w.path(self.id, old.parent, old.serial, &mut self.buf);
            if rec.run(&w.world, &Op::Delete(&self.buf)).is_ok() {
                remember_deleted(&mut self.deleted, (old.parent, old.serial));
            }
        }
    }
}

// --- dir_mutate ---------------------------------------------------------------

/// One client: inode-allocation order decides which shards a `mkdir`'s
/// two-phase commit spans, so a second client would make the RPC count
/// depend on thread interleaving.
pub struct DirMutate {
    world: World,
    p: String,
    q: String,
}

pub struct MutateClient {
    iter: u64,
    a: String,
    b: String,
}

impl DirMutate {
    fn paths(&self, i: u64, a: &mut String, b: &mut String) {
        use std::fmt::Write as _;
        a.clear();
        b.clear();
        let _ = write!(a, "{}/a{i}", self.p);
        let _ = write!(b, "{}/b{i}", self.q);
    }
}

impl Workload for DirMutate {
    type Client = MutateClient;
    const NAME: &'static str = "dir_mutate";

    fn setup(seed: u64) -> Self {
        let world = World::build(world::config(false));
        // N1's 95,572 directories without their objects, so that the
        // IndexTable the mutations go into is a populated one.
        for dir in &Namespace::generate(seed).dirs {
            world.load_dir(dir);
        }
        let p = work_dir(seed, "mut", 8, "P");
        let q = work_dir(seed, "mut", 8, "Q");
        world.load_dir(&p);
        world.load_dir(&q);
        DirMutate { world, p, q }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self, _seed: u64) -> Vec<MutateClient> {
        vec![MutateClient {
            iter: 0,
            a: String::with_capacity(128),
            b: String::with_capacity(128),
        }]
    }

    fn verify(&self, clients: &mut [MutateClient]) -> Verdict {
        let mut verdict = Verdict::default();
        let done = clients[0].iter;
        let (mut a, mut b) = (String::new(), String::new());
        let stride = (done as usize / VERIFY_SAMPLE).max(1);
        for i in (0..done).step_by(stride) {
            self.paths(i, &mut a, &mut b);
            for gone in [&a, &b] {
                let got = untimed(&self.world, &Op::Lookup(gone));
                verdict.check(is_not_found(&got), || {
                    format!("lookup of removed {gone}: {got:?}")
                });
            }
        }
        for dir in [&self.p, &self.q] {
            let got = untimed(&self.world, &Op::Dirstat(dir));
            verdict.check(
                matches!(&got, Ok(Reply::Dir(d)) if d.attrs.entries == 0),
                || format!("dirstat {dir}: {got:?}, want 0 entries"),
            );
        }
        // One more directory, renamed and left in place: it must resolve
        // at the new path, to the same id, and nowhere else.
        self.paths(done, &mut a, &mut b);
        let made = untimed(&self.world, &Op::Mkdir(&a));
        let moved = untimed(&self.world, &Op::RenameDir(&a, &b));
        let at_new = untimed(&self.world, &Op::Lookup(&b));
        let at_old = untimed(&self.world, &Op::Lookup(&a));
        let same_id = match (&made, &at_new) {
            (Ok(Reply::Id(id)), Ok(Reply::Resolved(r))) => r.id == *id,
            _ => false,
        };
        verdict.check(moved.is_ok() && same_id, || {
            format!("rename {a} -> {b}: mkdir {made:?}, rename {moved:?}, lookup {at_new:?}")
        });
        verdict.check(is_not_found(&at_old), || {
            format!("lookup of renamed-away {a}: {at_old:?}")
        });
        check_listing(
            &self.world,
            &self.q,
            100,
            &BTreeSet::from([format!("b{done}")]),
            &mut verdict,
        );
        verdict
    }
}

impl Client<DirMutate> for MutateClient {
    fn step(&mut self, w: &DirMutate, rec: &mut Recorder) {
        w.paths(self.iter, &mut self.a, &mut self.b);
        self.iter += 1;
        let made = rec.run(&w.world, &Op::Mkdir(&self.a));
        if let Ok(found) = rec.run(&w.world, &Op::Lookup(&self.a)) {
            let same = match (&made, &found) {
                (Ok(Reply::Id(id)), Reply::Resolved(r)) => r.id == *id,
                _ => false,
            };
            if !same {
                rec.wrong(|| format!("lookup {}: {found:?} after mkdir {made:?}", self.a));
            }
        }
        let _ = rec.run(&w.world, &Op::RenameDir(&self.a, &self.b));
        if let Ok(reply) = rec.run(&w.world, &Op::Dirstat(&w.q)) {
            if !matches!(&reply, Reply::Dir(d) if d.attrs.entries == 1) {
                rec.wrong(|| format!("dirstat {}: {reply:?}, want 1 entry", w.q));
            }
        }
        let _ = rec.run(&w.world, &Op::Rmdir(&self.b));
    }
}

// --- mixed_objects ------------------------------------------------------------

/// A client creates only in the directories of its own lane (the Zipf
/// ranks that are its number modulo the number of clients; it reads, lists
/// and stats all of them). Two creates in one directory contend for its
/// attribute row, and the loser of a TafDB row lock does not wait: it
/// retries, up to 10,000 times, on a backoff that is virtual time and so
/// costs none. A conflict took 100 to 1,000 retries when both clients ran
/// freely, so a host that keeps the holder's CPU for a few milliseconds
/// makes the other client run out of retries and its `create` fail with
/// `TxnConflict` (one run in some 45 had a failed op), and each such storm
/// also put seconds of modeled backoff into `modeled_mean_us`. How long a
/// thread is off its CPU is the host's doing, not the program's, so the
/// workload keeps row-lock conflicts between its clients out.
///
/// Objects each client keeps alive. Below it a client creates 15 % and
/// deletes 10 % of its ops, as the mix states; at or above it the two
/// shares swap. Hot directories therefore grow to a size and stay there,
/// so every pass measures the same workload; left to grow for the whole
/// run, `readdir` of the hottest directory would double `allocs_per_op`
/// between the first pass and the last. Set-up loads each client's
/// objects, so the warm-up pass does not have to get there.
///
/// The level puts each client's hottest directory at 380 ± 18 entries,
/// seven deviations from 256 and from 512. `readdir` collects a
/// directory into vectors that double as they grow, so a directory that
/// hovers around a power of two (at 4,096 live objects the hottest held
/// 505 ± 21) costs 160 KB more on one side of it than on the other, and
/// how long it spends on either side is a different draw for every seed:
/// `alloc_bytes_per_op` spread by 1.6 % over ten seeds, by 0.26 % now.
const MIXED_LIVE: usize = 3_072;

pub struct MixedObjects {
    world: World,
    ns: Namespace,
    zipf: Zipf,
    /// `preloaded[client]`: the `(dir, serial)` pairs set-up created.
    preloaded: Vec<Vec<(u32, u64)>>,
}

pub struct MixedClient {
    id: usize,
    rng: Rng,
    serial: u64,
    /// Objects this client created and has not deleted: `(dir, serial)`.
    live: Vec<(u32, u64)>,
    deleted: VecDeque<(u32, u64)>,
    buf: String,
}

impl MixedObjects {
    fn created_path(&self, client: usize, dir: u32, serial: u64, buf: &mut String) {
        use std::fmt::Write as _;
        buf.clear();
        let _ = write!(buf, "{}/c{client}_{serial}", self.ns.dirs[dir as usize]);
    }

    /// A directory `client` may create in.
    fn own_dir(&self, rng: &mut Rng, client: usize) -> usize {
        self.zipf.sample_lane(rng, client, two_clients())
    }

    fn created_size(&self, client: usize, dir: u32, serial: u64) -> u64 {
        object_size(
            self.ns.seed ^ 0xc0de,
            ((client as u64) << 32) | dir as u64,
            serial,
        )
    }
}

impl Workload for MixedObjects {
    type Client = MixedClient;
    const NAME: &'static str = "mixed_objects";

    fn setup(seed: u64) -> Self {
        let (world, ns) = load_namespace(seed, false);
        let zipf = Zipf::new(ns.dirs.len(), 0.99, seed);
        let mut mixed = MixedObjects {
            world,
            ns,
            zipf,
            preloaded: Vec::new(),
        };
        let mut buf = String::new();
        for client in 0..two_clients() {
            let mut rng = Rng::for_lane(seed, 0x300 + client as u64);
            let mine: Vec<(u32, u64)> = (0..MIXED_LIVE as u64)
                .map(|serial| (mixed.own_dir(&mut rng, client) as u32, serial))
                .collect();
            for &(dir, serial) in &mine {
                mixed.created_path(client, dir, serial, &mut buf);
                let size = mixed.created_size(client, dir, serial);
                mixed.world.load_object(&buf, size);
            }
            mixed.preloaded.push(mine);
        }
        mixed
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self, seed: u64) -> Vec<MixedClient> {
        (0..self.preloaded.len())
            .map(|id| MixedClient {
                id,
                rng: Rng::for_lane(seed, 0x200 + id as u64),
                serial: MIXED_LIVE as u64,
                live: self.preloaded[id].clone(),
                deleted: VecDeque::with_capacity(VERIFY_SAMPLE),
                buf: String::with_capacity(128),
            })
            .collect()
    }

    fn verify(&self, clients: &mut [MixedClient]) -> Verdict {
        // No directory went into delta mode (that takes aborted
        // transactions, and there were none), so `list` pages are exact:
        // see README, "Found while building".
        let mut verdict = Verdict::default();
        let mut buf = String::new();
        let mut created: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for client in clients.iter() {
            for &(dir, serial) in &client.live {
                created
                    .entry(dir)
                    .or_default()
                    .insert(format!("c{}_{serial}", client.id));
            }
            let stride = (client.live.len() / VERIFY_SAMPLE).max(1);
            for &(dir, serial) in client.live.iter().step_by(stride) {
                self.created_path(client.id, dir, serial, &mut buf);
                let got = untimed(&self.world, &Op::Objstat(&buf));
                let want = self.created_size(client.id, dir, serial);
                verdict.check(
                    matches!(&got, Ok(Reply::Object(o)) if o.size == want),
                    || format!("objstat {buf}: {got:?}, want size {want}"),
                );
            }
            for &(dir, serial) in &client.deleted {
                self.created_path(client.id, dir, serial, &mut buf);
                let got = untimed(&self.world, &Op::Objstat(&buf));
                verdict.check(is_not_found(&got), || {
                    format!("objstat of deleted {buf}: {got:?}")
                });
            }
        }
        // The hottest directories (most creates) and a stretch of cold ones.
        let hot = self.zipf.hottest();
        let sample = hot[..150].iter().chain(&hot[hot.len() - 50..]);
        for (i, &dir) in sample.enumerate() {
            let mut expected = base_names();
            if let Some(names) = created.get(&dir) {
                expected.extend(names.iter().cloned());
            }
            let path = &self.ns.dirs[dir as usize];
            let got = untimed(&self.world, &Op::Dirstat(path));
            verdict.check(
                matches!(&got, Ok(Reply::Dir(d)) if d.attrs.entries == expected.len() as i64),
                || format!("dirstat {path}: {got:?}, want {} entries", expected.len()),
            );
            if i % 10 == 0 {
                check_listing(&self.world, path, 100, &expected, &mut verdict);
            }
        }
        verdict
    }
}

impl Client<MixedObjects> for MixedClient {
    fn step(&mut self, w: &MixedObjects, rec: &mut Recorder) {
        let roll = self.rng.below(100);
        // Rolls 75..100 are the writes: the larger share (15) goes to
        // whichever of create and delete moves `live` towards its level.
        let first_delete = if self.live.len() < MIXED_LIVE { 90 } else { 85 };
        if roll >= first_delete {
            let at = self.rng.below(self.live.len());
            let (dir, serial) = self.live.swap_remove(at);
            w.created_path(self.id, dir, serial, &mut self.buf);
            if rec.run(&w.world, &Op::Delete(&self.buf)).is_ok() {
                remember_deleted(&mut self.deleted, (dir, serial));
            }
            return;
        }
        let dir = if roll >= 75 {
            w.own_dir(&mut self.rng, self.id)
        } else {
            w.zipf.sample(&mut self.rng)
        };
        let path = &w.ns.dirs[dir];
        match roll {
            0..=49 => {
                let k = self.rng.below(OBJECTS_PER_DIR);
                w.ns.object_path(dir, k, &mut self.buf);
                objstat_expecting(rec, &w.world, &self.buf, w.ns.object_size(dir, k));
            }
            50..=59 => {
                let _ = rec.run(&w.world, &Op::Lookup(path));
            }
            60..=64 => {
                if let Ok(reply) = rec.run(&w.world, &Op::Dirstat(path)) {
                    // The other client creates here too, so only a floor
                    // is certain while the run is going.
                    let plausible = matches!(&reply, Reply::Dir(d) if d.attrs.entries >= OBJECTS_PER_DIR as i64);
                    if !plausible {
                        rec.wrong(|| format!("dirstat {path}: {reply:?}"));
                    }
                }
            }
            65..=74 => {
                let op = if roll <= 72 {
                    Op::List(path, 100)
                } else {
                    Op::Readdir(path)
                };
                if let Ok(reply) = rec.run(&w.world, &op) {
                    // Sorted and duplicate-free. Completeness is checked at
                    // the end, not here: see `verify`.
                    let sound = matches!(&reply, Reply::Entries(page, _)
                        if page.windows(2).all(|e| e[0].name < e[1].name));
                    if !sound {
                        rec.wrong(|| format!("{op:?}: listing not strictly ascending"));
                    }
                }
            }
            _ => {
                let serial = self.serial;
                self.serial += 1;
                let size = w.created_size(self.id, dir as u32, serial);
                w.created_path(self.id, dir as u32, serial, &mut self.buf);
                if rec.run(&w.world, &Op::Create(&self.buf, size)).is_ok() {
                    self.live.push((dir as u32, serial));
                }
            }
        }
    }
}
