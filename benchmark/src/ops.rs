//! The operations a workload issues and what one timed op is.

use std::time::Instant;

use mantle::prelude::{MetaError, MetaPath, MetadataService, RequestCtx};
use mantle::types::{clock, DirEntry, DirStat, InodeId, ObjectMeta, ResolvedPath};

use crate::alloc;
use crate::mirror::{self, Tracer};
use crate::world::World;

/// One request, by path string: the program under test parses it itself.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a> {
    Objstat(&'a str),
    Lookup(&'a str),
    Dirstat(&'a str),
    Create(&'a str, u64),
    Delete(&'a str),
    Mkdir(&'a str),
    Rmdir(&'a str),
    RenameDir(&'a str, &'a str),
    /// First page of at most this many entries.
    List(&'a str, usize),
    Readdir(&'a str),
}

/// Index of an op kind in per-kind tables.
pub const N_KINDS: usize = 10;
pub const KIND_NAMES: [&str; N_KINDS] = [
    "objstat",
    "lookup",
    "dirstat",
    "create",
    "delete",
    "mkdir",
    "rmdir",
    "rename_dir",
    "list",
    "readdir",
];

impl Op<'_> {
    pub fn kind(&self) -> usize {
        match self {
            Op::Objstat(_) => 0,
            Op::Lookup(_) => 1,
            Op::Dirstat(_) => 2,
            Op::Create(..) => 3,
            Op::Delete(_) => 4,
            Op::Mkdir(_) => 5,
            Op::Rmdir(_) => 6,
            Op::RenameDir(..) => 7,
            Op::List(..) => 8,
            Op::Readdir(_) => 9,
        }
    }
}

/// What an op returned, kept so the caller can check it after the clock
/// has stopped.
#[derive(Debug, PartialEq)]
pub enum Reply {
    Object(ObjectMeta),
    Resolved(ResolvedPath),
    Dir(DirStat),
    Id(InodeId),
    Unit,
    Entries(Vec<DirEntry>, bool),
}

pub type OpResult = Result<Reply, MetaError>;

/// Runs `op` through the public service traits.
pub fn direct(world: &World, op: &Op<'_>, ctx: &mut RequestCtx) -> OpResult {
    let svc = &world.cluster;
    Ok(match *op {
        Op::Objstat(p) => Reply::Object(svc.objstat(&MetaPath::parse(p)?, ctx)?),
        Op::Lookup(p) => Reply::Resolved(svc.lookup(&MetaPath::parse(p)?, ctx)?),
        Op::Dirstat(p) => Reply::Dir(svc.dirstat(&MetaPath::parse(p)?, ctx)?),
        Op::Create(p, size) => Reply::Id(svc.create(&MetaPath::parse(p)?, size, ctx)?),
        Op::Delete(p) => {
            svc.delete(&MetaPath::parse(p)?, ctx)?;
            Reply::Unit
        }
        Op::Mkdir(p) => Reply::Id(svc.mkdir(&MetaPath::parse(p)?, ctx)?),
        Op::Rmdir(p) => {
            svc.rmdir(&MetaPath::parse(p)?, ctx)?;
            Reply::Unit
        }
        Op::RenameDir(src, dst) => {
            svc.rename_dir(&MetaPath::parse(src)?, &MetaPath::parse(dst)?, ctx)?;
            Reply::Unit
        }
        Op::List(p, limit) => {
            let (page, more) = svc.list(&MetaPath::parse(p)?, None, limit, ctx)?;
            Reply::Entries(page, more)
        }
        Op::Readdir(p) => Reply::Entries(svc.readdir(&MetaPath::parse(p)?, ctx)?, false),
    })
}

/// What the stopwatch and the ledgers read around one op.
pub struct Timed {
    pub result: OpResult,
    /// Real nanoseconds (`std::time::Instant`).
    pub real_nanos: u64,
    /// Virtual-clock nanoseconds: the modeled latency.
    pub modeled_nanos: u64,
    pub rpcs: u32,
}

/// One timed op: path parse + `RequestCtx::new` + the call + `ctx.end()`,
/// with this thread's allocations counted over exactly that window. With
/// a tracer the op runs through the benchmark-side mirror instead.
#[inline]
pub fn timed(world: &World, op: &Op<'_>, tracer: Option<&mut Tracer>) -> Timed {
    alloc::start();
    let v0 = clock::now();
    let t0 = Instant::now();
    let mut ctx = RequestCtx::new();
    let result = match tracer {
        None => direct(world, op, &mut ctx),
        Some(tracer) => mirror::traced(world, op, &mut ctx, tracer),
    };
    ctx.end();
    let real_nanos = t0.elapsed().as_nanos() as u64;
    let modeled_nanos = (clock::now() - v0).as_nanos() as u64;
    alloc::stop();
    Timed {
        result,
        real_nanos,
        modeled_nanos,
        rpcs: ctx.rpcs,
    }
}
