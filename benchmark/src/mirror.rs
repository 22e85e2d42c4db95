//! Benchmark-side mirror of six `MantleCluster` ops, with a span around
//! each call into a layer.
//!
//! The program has no spans of its own that read real time, and this
//! change may not add any, so in a traced run `objstat`, `lookup`,
//! `dirstat`, `create`, `delete` and `mkdir` are replaced by the same
//! sequence of public layer calls `MantleCluster` makes (`MetaPath::parse`
//! → `IndexNode::lookup` → `TafDb::get_object` / `dir_stat` / `execute` →
//! `IndexNode::insert_dir`). `tests/mirror_guard.rs` holds the two
//! together: same result, same RPC count, same modeled latency. The other
//! ops keep a root span only.

use std::time::Instant;

use mantle::prelude::{
    MetaError, MetaPath, MetadataService, Permission, Phase, RequestCtx, Result,
};
use mantle::rpc::{classify_failover, RetryPolicy};
use mantle::tafdb::{attr_key, entry_key, Row, TxnOp};
use mantle::types::{AttrDelta, DirAttrMeta, DirStat, ObjectMeta, ResolvedPath};

use crate::ops::{self, Op, OpResult, Reply};
use crate::world::World;

/// Span names. `Op` is the root; the rest are the layers it calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Op = 0,
    /// Path parse, `parent()`, leaf name.
    Types = 1,
    /// `IndexNode::lookup` (resolution RPC, ReadIndex on followers).
    Index = 2,
    /// `IndexNode::insert_dir` (Raft propose).
    IndexPropose = 3,
    /// `TafDb::get_object` / `dir_stat`.
    TafdbRead = 4,
    /// `TafDb::execute`.
    TafdbTxn = 5,
    /// Resolution through `MetadataService::lookup` when the path-lease
    /// cache is on: the cache protocol is `core`'s, so the span covers the
    /// probe and, on a miss, the IndexNode call beneath it.
    CoreResolve = 6,
}

pub const N_LAYERS: usize = 7;
pub const LAYER_NAMES: [&str; N_LAYERS] = [
    "op",
    "types",
    "index",
    "index_propose",
    "tafdb_read",
    "tafdb_txn",
    "core_resolve",
];

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Identifier shared by the spans of one op.
    pub op: u32,
    /// A `Layer::Op` span is the op's root; every other span was caused
    /// by the root of the same op.
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

/// Spans retained per client for the trace file; past that only the
/// running sums grow, so a long run cannot exhaust memory.
const RETAIN: usize = 50_000;

/// Per-client span recorder: spans stay in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    next_op: u32,
    pub spans: Vec<Span>,
    /// Total duration of spans, by layer (root included).
    pub span_nanos: [u64; N_LAYERS],
    /// Ops that ran through the mirror's layer decomposition.
    pub mirrored_ops: u64,
}

impl Tracer {
    pub fn new(client: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            // Op ids are unique across clients: the client in the top bits.
            next_op: (client as u32) << 28,
            spans: Vec::with_capacity(RETAIN),
            span_nanos: [0; N_LAYERS],
            mirrored_ops: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ends a span begun at `start`.
    #[inline]
    fn record(&mut self, layer: Layer, start: u64) {
        let end = self.now();
        self.span_nanos[layer as usize] += end - start;
        if self.spans.len() < RETAIN {
            self.spans.push(Span {
                op: self.next_op,
                layer,
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a `layer` span.
    #[inline]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.record(layer, start);
        out
    }
}

/// `MantleCluster::with_failover`, minus its flight-recorder annotation
/// (the recorder is not armed in benchmark runs).
fn with_failover<R>(
    world: &World,
    ctx: &mut RequestCtx,
    f: impl FnMut(&mut RequestCtx) -> Result<R>,
) -> Result<R> {
    RetryPolicy::failover(world.cluster.config().unavailable_retries).run(
        ctx,
        classify_failover,
        |_, _| {},
        f,
    )
}

/// Resolves a directory path as `MantleCluster::cached_lookup` does.
fn resolve(
    world: &World,
    path: &MetaPath,
    ctx: &mut RequestCtx,
    tracer: &mut Tracer,
) -> Result<ResolvedPath> {
    if world.cluster.config().pcache.enabled {
        return tracer.span(Layer::CoreResolve, || world.cluster.lookup(path, ctx));
    }
    tracer.span(Layer::Index, || {
        with_failover(world, ctx, |ctx| world.cluster.index().lookup(path, ctx))
    })
}

/// Parse + split into `(path, parent, leaf name)`, the `types` span.
fn split(s: &str, tracer: &mut Tracer) -> Result<(MetaPath, MetaPath, String)> {
    tracer.span(Layer::Types, || {
        let path = MetaPath::parse(s)?;
        let parent = path
            .parent()
            .ok_or_else(|| MetaError::InvalidPath("operation on root".into()))?;
        let name = path.name().expect("non-root path").to_string();
        Ok((path, parent, name))
    })
}

fn objstat(world: &World, s: &str, ctx: &mut RequestCtx, tracer: &mut Tracer) -> OpResult {
    let (path, parent, name) = split(s, tracer)?;
    let parent = ctx.time(Phase::Lookup, |ctx| resolve(world, &parent, ctx, tracer))?;
    ctx.time(Phase::Execute, |ctx| {
        if !parent.permission.allows(Permission::READ) {
            return Err(MetaError::PermissionDenied(path.to_string()));
        }
        tracer
            .span(Layer::TafdbRead, || {
                world.cluster.db().get_object(parent.id, &name, ctx)
            })
            .map(Reply::Object)
    })
}

fn lookup(world: &World, s: &str, ctx: &mut RequestCtx, tracer: &mut Tracer) -> OpResult {
    let path = tracer.span(Layer::Types, || MetaPath::parse(s))?;
    ctx.time(Phase::Lookup, |ctx| resolve(world, &path, ctx, tracer))
        .map(Reply::Resolved)
}

fn dirstat(world: &World, s: &str, ctx: &mut RequestCtx, tracer: &mut Tracer) -> OpResult {
    let path = tracer.span(Layer::Types, || MetaPath::parse(s))?;
    let dir = ctx.time(Phase::Lookup, |ctx| resolve(world, &path, ctx, tracer))?;
    ctx.time(Phase::Execute, |ctx| {
        let attrs = tracer.span(Layer::TafdbRead, || {
            world.cluster.db().dir_stat(dir.id, ctx)
        })?;
        Ok(Reply::Dir(DirStat {
            id: dir.id,
            attrs,
            permission: dir.permission,
        }))
    })
}

fn create(
    world: &World,
    s: &str,
    size: u64,
    ctx: &mut RequestCtx,
    tracer: &mut Tracer,
) -> OpResult {
    let (path, parent, name) = split(s, tracer)?;
    let parent = ctx.time(Phase::Lookup, |ctx| resolve(world, &parent, ctx, tracer))?;
    ctx.time(Phase::Execute, |ctx| {
        if !parent.permission.allows(Permission::WRITE) {
            return Err(MetaError::PermissionDenied(path.to_string()));
        }
        let id = world.ids.alloc();
        let now = world.cluster.now();
        let txn = [
            TxnOp::InsertUnique {
                key: entry_key(parent.id, &name),
                row: Row::Object(ObjectMeta {
                    pid: parent.id,
                    name: name.clone(),
                    id,
                    size,
                    blob: 0,
                    ctime: now,
                    permission: Permission::ALL,
                }),
            },
            TxnOp::AttrUpdate {
                dir: parent.id,
                delta: AttrDelta {
                    nlink: 0,
                    entries: 1,
                    mtime: now,
                },
            },
        ];
        tracer.span(Layer::TafdbTxn, || world.cluster.db().execute(&txn, ctx))?;
        Ok(Reply::Id(id))
    })
}

fn delete(world: &World, s: &str, ctx: &mut RequestCtx, tracer: &mut Tracer) -> OpResult {
    let (_, parent, name) = split(s, tracer)?;
    let parent = ctx.time(Phase::Lookup, |ctx| resolve(world, &parent, ctx, tracer))?;
    ctx.time(Phase::Execute, |ctx| {
        tracer.span(Layer::TafdbRead, || {
            world.cluster.db().get_object(parent.id, &name, ctx)
        })?;
        let now = world.cluster.now();
        let txn = [
            TxnOp::Delete {
                key: entry_key(parent.id, &name),
            },
            TxnOp::AttrUpdate {
                dir: parent.id,
                delta: AttrDelta {
                    nlink: 0,
                    entries: -1,
                    mtime: now,
                },
            },
        ];
        tracer.span(Layer::TafdbTxn, || world.cluster.db().execute(&txn, ctx))?;
        Ok(Reply::Unit)
    })
}

fn mkdir(world: &World, s: &str, ctx: &mut RequestCtx, tracer: &mut Tracer) -> OpResult {
    let (path, parent, name) = split(s, tracer)?;
    let parent = ctx.time(Phase::Lookup, |ctx| resolve(world, &parent, ctx, tracer))?;
    ctx.time(Phase::Execute, |ctx| {
        if !parent.permission.allows(Permission::WRITE) {
            return Err(MetaError::PermissionDenied(path.to_string()));
        }
        let id = world.ids.alloc();
        let now = world.cluster.now();
        let txn = [
            TxnOp::InsertUnique {
                key: entry_key(parent.id, &name),
                row: Row::DirAccess {
                    id,
                    permission: Permission::ALL,
                },
            },
            TxnOp::Put {
                key: attr_key(id),
                row: Row::DirAttr(DirAttrMeta::new(now, 0)),
            },
            TxnOp::AttrUpdate {
                dir: parent.id,
                delta: AttrDelta {
                    nlink: 1,
                    entries: 1,
                    mtime: now,
                },
            },
        ];
        tracer.span(Layer::TafdbTxn, || world.cluster.db().execute(&txn, ctx))?;
        tracer.span(Layer::IndexPropose, || {
            with_failover(world, ctx, |ctx| {
                world
                    .cluster
                    .index()
                    .insert_dir(parent.id, &name, id, Permission::ALL, ctx)
            })
        })?;
        world.cluster.path_cache().invalidate_exact(&path);
        Ok(Reply::Id(id))
    })
}

/// Runs `op` with spans: through the mirror when it is one of the six
/// mirrored kinds, otherwise through the service with a root span only.
pub fn traced(world: &World, op: &Op<'_>, ctx: &mut RequestCtx, tracer: &mut Tracer) -> OpResult {
    let start = tracer.now();
    let mirrored = !matches!(
        op,
        Op::Rmdir(_) | Op::RenameDir(..) | Op::List(..) | Op::Readdir(_)
    );
    let result = match *op {
        Op::Objstat(p) => objstat(world, p, ctx, tracer),
        Op::Lookup(p) => lookup(world, p, ctx, tracer),
        Op::Dirstat(p) => dirstat(world, p, ctx, tracer),
        Op::Create(p, size) => create(world, p, size, ctx, tracer),
        Op::Delete(p) => delete(world, p, ctx, tracer),
        Op::Mkdir(p) => mkdir(world, p, ctx, tracer),
        _ => ops::direct(world, op, ctx),
    };
    tracer.record(Layer::Op, start);
    tracer.mirrored_ops += mirrored as u64;
    tracer.next_op = tracer.next_op.wrapping_add(1);
    result
}
