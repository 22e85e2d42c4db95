//! The measurement protocol: closed-loop client threads, one warm-up pass,
//! then time-boxed measured passes.

use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::alloc;
use crate::counters::Counters;
use crate::gen::mix2;
use crate::mirror::Tracer;
use crate::ops::{self, Op, OpResult, N_KINDS};
use crate::procfs;
use crate::stats::LogHist;
use crate::workloads::{Client, Verdict, Workload};
use crate::world::World;

/// What one client did in one pass, or all clients together.
pub struct PassOut {
    pub attempted: u64,
    /// Ops that returned `Err`.
    pub errored: u64,
    /// Ops whose `Ok` reply the client found wrong.
    pub wrong: u64,
    pub real: LogHist,
    pub modeled_nanos: u64,
    pub rpcs: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub by_kind: [u64; N_KINDS],
    /// Real nanoseconds spent in ops of each kind.
    pub nanos_by_kind: [u64; N_KINDS],
}

impl PassOut {
    pub fn completed(&self) -> u64 {
        self.attempted - self.errored
    }

    fn merge(&mut self, other: &PassOut) {
        self.attempted += other.attempted;
        self.errored += other.errored;
        self.wrong += other.wrong;
        self.real.merge(&other.real);
        self.modeled_nanos += other.modeled_nanos;
        self.rpcs += other.rpcs;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        for kind in 0..N_KINDS {
            self.by_kind[kind] += other.by_kind[kind];
            self.nanos_by_kind[kind] += other.nanos_by_kind[kind];
        }
    }

    fn new() -> Self {
        PassOut {
            attempted: 0,
            errored: 0,
            wrong: 0,
            real: LogHist::new(),
            modeled_nanos: 0,
            rpcs: 0,
            allocs: 0,
            alloc_bytes: 0,
            by_kind: [0; N_KINDS],
            nanos_by_kind: [0; N_KINDS],
        }
    }
}

/// A client's view of the run: it issues ops through [`Recorder::run`].
pub struct Recorder {
    pass: PassOut,
    /// Modeled latencies of every measured pass, pooled.
    modeled: LogHist,
    /// `Some` in a traced run; used in the passes the plan marks traced.
    tracer: Option<Tracer>,
    tracing: bool,
    measuring: bool,
    /// Running hash of the op stream (the generator-purity test).
    stream_hash: u64,
    first_error: Option<String>,
}

impl Recorder {
    pub fn new(tracer: Option<Tracer>) -> Self {
        Recorder {
            pass: PassOut::new(),
            modeled: LogHist::new(),
            tracer,
            tracing: false,
            measuring: false,
            stream_hash: 0,
            first_error: None,
        }
    }

    /// Runs one timed op and books it.
    #[inline]
    pub fn run(&mut self, world: &World, op: &Op<'_>) -> OpResult {
        self.stream_hash = fold_op(self.stream_hash, op);
        let tracer = if self.tracing {
            self.tracer.as_mut()
        } else {
            None
        };
        let timed = ops::timed(world, op, tracer);
        let pass = &mut self.pass;
        pass.attempted += 1;
        pass.by_kind[op.kind()] += 1;
        pass.nanos_by_kind[op.kind()] += timed.real_nanos;
        pass.real.record(timed.real_nanos);
        pass.modeled_nanos += timed.modeled_nanos;
        pass.rpcs += timed.rpcs as u64;
        if self.measuring {
            self.modeled.record(timed.modeled_nanos);
        }
        if let Err(e) = &timed.result {
            pass.errored += 1;
            if self.first_error.is_none() {
                self.first_error = Some(format!("{op:?}: {e}"));
            }
        }
        timed.result
    }

    /// Books a reply that came back `Ok` but wrong.
    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.pass.wrong += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what());
        }
    }

    /// Hash of every op issued so far, in order.
    pub fn stream_hash(&self) -> u64 {
        self.stream_hash
    }

    fn begin_pass(&mut self, tracing: bool, measured: bool) {
        self.pass = PassOut::new();
        self.tracing = tracing;
        self.measuring = measured;
    }

    fn end_pass(&mut self, allocs0: (u64, u64)) -> PassOut {
        let (allocs, bytes) = alloc::thread_totals();
        self.pass.allocs = allocs - allocs0.0;
        self.pass.alloc_bytes = bytes - allocs0.1;
        std::mem::replace(&mut self.pass, PassOut::new())
    }
}

fn fold_str(mut h: u64, s: &str) -> u64 {
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix2(h, u64::from_le_bytes(word));
    }
    mix2(h, s.len() as u64)
}

fn fold_op(h: u64, op: &Op<'_>) -> u64 {
    let h = mix2(h, op.kind() as u64);
    match *op {
        Op::Objstat(p)
        | Op::Lookup(p)
        | Op::Dirstat(p)
        | Op::Delete(p)
        | Op::Mkdir(p)
        | Op::Rmdir(p)
        | Op::Readdir(p) => fold_str(h, p),
        Op::Create(p, size) => mix2(fold_str(h, p), size),
        Op::List(p, limit) => mix2(fold_str(h, p), limit as u64),
        Op::RenameDir(src, dst) => fold_str(fold_str(h, src), dst),
    }
}

/// How a run is paced.
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    /// Times the workload is set up; `setup_s` is the median. The run is
    /// made on the first; the others follow it and are only timed.
    pub setups: usize,
    pub warmup: Duration,
    pub passes: usize,
    pub pass_len: Duration,
    /// Alternate untraced and traced passes (a `--trace 1` run).
    pub traced: bool,
}

impl Protocol {
    /// The protocol for a run that measures for `seconds`.
    pub fn for_seconds(seconds: f64, traced: bool, quick: bool) -> Self {
        if quick {
            // Smoke use: one short pass of each kind the run needs.
            return Protocol {
                setups: 1,
                warmup: Duration::from_millis(100),
                passes: if traced { 2 } else { 1 },
                pass_len: Duration::from_millis(300),
                traced,
            };
        }
        let passes = 8;
        let pass_len = Duration::from_secs_f64(seconds / passes as f64);
        Protocol {
            setups: 3,
            warmup: pass_len,
            passes,
            pass_len,
            traced,
        }
    }
}

/// One measured pass.
pub struct PassSummary {
    pub traced: bool,
    pub wall_secs: f64,
    pub cpu_secs: f64,
    /// All clients together.
    pub sum: PassOut,
}

/// Everything a run observed, before it is turned into metrics.
pub struct RunData {
    pub setup_secs: Vec<f64>,
    /// `VmHWM` after the final check and before any further set-up: one
    /// workload's memory, with nothing left over from an earlier one.
    pub peak_rss_mb: f64,
    pub passes: Vec<PassSummary>,
    pub modeled: LogHist,
    pub tracers: Vec<Tracer>,
    pub verdict: Verdict,
    pub first_error: Option<String>,
    /// Wall seconds of the measured passes together.
    pub measured_secs: f64,
    /// CPU seconds of the whole process over the measured passes, and of
    /// the client threads alone.
    pub process_cpu_secs: f64,
    pub client_cpu_secs: f64,
    pub bg_allocs: u64,
    pub n_clients: usize,
    /// The layers' counters right before the first measured pass and
    /// right after the last.
    pub counters: (Counters, Counters),
}

#[derive(Clone, Copy)]
struct Plan {
    deadline: Instant,
    tracing: bool,
    measured: bool,
    stop: bool,
}

/// Sets the workload up and times that.
fn timed_setup<W: Workload>(seed: u64) -> (W, f64) {
    let started = Instant::now();
    let workload = W::setup(seed);
    (workload, started.elapsed().as_secs_f64())
}

/// Sets the workload up, runs the passes, verifies, then sets it up again
/// `protocol.setups - 1` times to time that, and returns the raw
/// observations.
///
/// The contract wants `setup_s` as a median of several set-ups in one
/// run. Doing the others last, once the run's own instance is gone, keeps
/// them out of `peak_rss_mb` and out of the allocator state the passes
/// run on.
pub fn run<W: Workload>(seed: u64, protocol: Protocol) -> RunData {
    alloc::mark_client_thread();
    let (workload, setup_sec) = timed_setup::<W>(seed);

    let mut clients = workload.clients(seed);
    let n_clients = clients.len();
    let barrier = Barrier::new(n_clients + 1);
    let plan = Mutex::new(Plan {
        deadline: Instant::now(),
        tracing: false,
        measured: false,
        stop: false,
    });
    let (out_tx, out_rx) = mpsc::channel::<PassOut>();
    let (tid_tx, tid_rx) = mpsc::channel::<u64>();

    let mut passes: Vec<PassSummary> = Vec::new();
    let mut measured_secs = 0.0;
    let mut process_cpu_secs = 0.0;
    let mut client_cpu_secs = 0.0;
    let mut bg_allocs = 0;
    let mut counters = None;

    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (workload, barrier, plan) = (&workload, &barrier, &plan);
                let out_tx = out_tx.clone();
                let tid_tx = tid_tx.clone();
                let tracer = protocol.traced.then(|| Tracer::new(i));
                std::thread::Builder::new()
                    .name(format!("client-{i}"))
                    .spawn_scoped(scope, move || {
                        alloc::mark_client_thread();
                        let _ = tid_tx.send(procfs::current_tid().unwrap_or(0));
                        let mut rec = Recorder::new(tracer);
                        loop {
                            barrier.wait();
                            let now = *plan.lock().expect("plan lock");
                            if now.stop {
                                break;
                            }
                            rec.begin_pass(now.tracing, now.measured);
                            let allocs0 = alloc::thread_totals();
                            while Instant::now() < now.deadline {
                                client.step(workload, &mut rec);
                            }
                            let _ = out_tx.send(rec.end_pass(allocs0));
                            barrier.wait();
                        }
                        rec
                    })
                    .expect("spawn client")
            })
            .collect();
        let tids: Vec<u64> = (0..n_clients)
            .map(|_| tid_rx.recv().expect("client tid"))
            .collect();
        let clients_cpu = || -> f64 {
            tids.iter()
                .map(|&t| procfs::thread_cpu_seconds(t))
                .sum::<f64>()
        };

        let one_pass = |len: Duration, tracing: bool, measured: bool| -> PassSummary {
            {
                let mut p = plan.lock().expect("plan lock");
                p.deadline = Instant::now() + len;
                p.tracing = tracing;
                p.measured = measured;
            }
            let cpu0 = procfs::process_cpu_seconds();
            let started = Instant::now();
            barrier.wait();
            barrier.wait();
            let wall_secs = started.elapsed().as_secs_f64();
            let cpu_secs = procfs::process_cpu_seconds() - cpu0;
            let mut sum = PassOut::new();
            for out in out_rx.try_iter().take(n_clients) {
                sum.merge(&out);
            }
            PassSummary {
                traced: tracing,
                wall_secs,
                cpu_secs,
                sum,
            }
        };

        one_pass(protocol.warmup, false, false);
        let counters_before = Counters::read(workload.world());
        let cpu0 = (procfs::process_cpu_seconds(), clients_cpu());
        let bg0 = alloc::background_totals().0;
        let started = Instant::now();
        for i in 0..protocol.passes {
            // Untraced first, so a traced run's odd passes are the mirror.
            let tracing = protocol.traced && i % 2 == 1;
            passes.push(one_pass(protocol.pass_len, tracing, true));
        }
        measured_secs = started.elapsed().as_secs_f64();
        process_cpu_secs = procfs::process_cpu_seconds() - cpu0.0;
        client_cpu_secs = clients_cpu() - cpu0.1;
        bg_allocs = alloc::background_totals().0 - bg0;
        counters = Some((counters_before, Counters::read(workload.world())));

        plan.lock().expect("plan lock").stop = true;
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let verdict = workload.verify(&mut clients);
    let peak_rss_mb = procfs::peak_rss_mb();
    drop(clients);
    drop(workload);
    let mut setup_secs = vec![setup_sec];
    setup_secs.extend((1..protocol.setups).map(|_| timed_setup::<W>(seed).1));
    let mut modeled = LogHist::new();
    let mut tracers = Vec::new();
    let mut first_error = verdict.first_failure.clone();
    for rec in recorders {
        modeled.merge(&rec.modeled);
        tracers.extend(rec.tracer);
        first_error = first_error.or(rec.first_error);
    }
    RunData {
        setup_secs,
        peak_rss_mb,
        passes,
        modeled,
        tracers,
        verdict,
        first_error,
        measured_secs,
        process_cpu_secs,
        client_cpu_secs,
        bg_allocs,
        n_clients,
        counters: counters.expect("passes ran"),
    }
}

/// Drives one client of a freshly set-up workload for `steps` steps on
/// the calling thread and returns the hash of the ops it issued.
pub fn stream_hash<W: Workload>(seed: u64, steps: usize) -> u64 {
    let workload = W::setup(seed);
    let mut clients = workload.clients(seed);
    let mut rec = Recorder::new(None);
    for _ in 0..steps {
        clients[0].step(&workload, &mut rec);
    }
    rec.stream_hash()
}
