//! The mirror guard: for 1,000 ops of each mirrored kind, the
//! benchmark-side decomposition and the real `MantleCluster` op return the
//! same result, the same RPC count and the same modeled latency on twin
//! clusters. If this fails, a traced run no longer measures the program.

use mantle::prelude::RequestCtx;
use mantle::types::clock;
use mantle_benchmark::mirror::{self, Tracer};
use mantle_benchmark::ops::{self, Op, OpResult};
use mantle_benchmark::world::{self, World};

const OPS: usize = 1_000;
const DIRS: usize = 50;

/// What one op produced, as far as the two ledgers and the caller see.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: OpResult,
    rpcs: u32,
    modeled_nanos: u64,
}

fn dir(i: usize) -> String {
    format!("/g0/g1/g2/g3/g4/g5/g6/g7/d{}", i % DIRS)
}

fn build(path_cache: bool) -> World {
    let world = World::build(world::config(path_cache));
    for i in 0..DIRS {
        for k in 0..4 {
            world.load_object(&format!("{}/o{k}", dir(i)), 100 + k);
        }
    }
    world
}

/// Runs the whole script against a fresh cluster, through the service
/// traits or through the mirror, on a timeline that starts at zero.
fn script(path_cache: bool, mirrored: bool) -> Vec<Outcome> {
    let world = build(path_cache);
    let mut tracer = Tracer::new(0);
    clock::reset_thread_clock();
    let mut out = Vec::new();
    let mut run = |op: Op<'_>| {
        let mut ctx = RequestCtx::new();
        let t0 = clock::now();
        let result = if mirrored {
            mirror::traced(&world, &op, &mut ctx, &mut tracer)
        } else {
            ops::direct(&world, &op, &mut ctx)
        };
        ctx.end();
        out.push(Outcome {
            result,
            rpcs: ctx.rpcs,
            modeled_nanos: (clock::now() - t0).as_nanos() as u64,
        });
    };
    for i in 0..OPS {
        run(Op::Objstat(&format!("{}/o{}", dir(i), i % 4)));
    }
    for i in 0..OPS {
        run(Op::Lookup(&dir(i)));
    }
    for i in 0..OPS {
        run(Op::Dirstat(&dir(i)));
    }
    // Absent paths take the error branches.
    run(Op::Objstat(&format!("{}/missing", dir(0))));
    run(Op::Lookup("/g0/nowhere"));
    if path_cache {
        // The cached run mirrors resolution through the service itself;
        // the read kinds cover it.
        return out;
    }
    for i in 0..OPS {
        run(Op::Create(&format!("{}/new{i}", dir(i)), i as u64));
    }
    run(Op::Create(&format!("{}/new0", dir(0)), 1));
    for i in 0..OPS {
        run(Op::Delete(&format!("{}/new{i}", dir(i))));
    }
    run(Op::Delete(&format!("{}/new0", dir(0))));
    for i in 0..OPS {
        run(Op::Mkdir(&format!("{}/sub{i}", dir(i))));
    }
    run(Op::Mkdir(&format!("{}/sub0", dir(0))));
    // The directories the mirror made are real to both paths.
    for i in 0..DIRS {
        run(Op::Dirstat(&format!("{}/sub{i}", dir(i))));
    }
    out
}

fn assert_twins_agree(path_cache: bool) {
    let real = script(path_cache, false);
    let mirrored = script(path_cache, true);
    assert_eq!(real.len(), mirrored.len());
    for (i, (r, m)) in real.iter().zip(&mirrored).enumerate() {
        assert_eq!(r, m, "op #{i} differs (path cache {path_cache})");
    }
    assert!(real.iter().filter(|o| o.result.is_ok()).count() >= real.len() - 5);
    assert!(real.iter().all(|o| o.rpcs > 0 || path_cache));
}

#[test]
fn mirror_matches_the_cluster_with_the_path_cache_off() {
    assert_twins_agree(false);
}

#[test]
fn mirror_matches_the_cluster_with_the_path_cache_on() {
    assert_twins_agree(true);
}
