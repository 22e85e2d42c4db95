//! Interactive shell for exploring a simulated Mantle deployment.
//!
//! ```text
//! cargo run --release --bin mantle-cli
//! mantle> mkdir /data
//! mantle> create /data/obj 4096
//! mantle> ls /data
//! mantle> mv /data /archive
//! mantle> stats
//! ```

use std::io::{BufRead, Write};

use mantle::prelude::*;
use mantle::types::{EntryKind, EnvConfig};
use mantle::workloads::{NamespaceHandle, NamespaceSpec};

/// Commands the flight recorder wraps (metadata ops against the service);
/// introspection commands — notably `trace`, which needs the thread's
/// trace slot for its own forced trace — run outside a scope.
const RECORDED_COMMANDS: [&str; 8] = [
    "mkdir", "create", "ls", "stat", "rm", "rmdir", "mv", "lookup",
];

fn main() {
    // A rejected MANTLE_* variable ends the process here, before any work.
    EnvConfig::get();
    // Real datacenter-ish timings so latencies printed per command are
    // meaningful; population commands bypass them.
    let cluster = MantleCluster::build(SimConfig::default(), 8);
    // Always-on flight recorder; live scrape endpoint when MANTLE_OBS_ADDR
    // is set.
    mantle::obs::flight::global().arm();
    let _obs_server = mantle::obs::http::serve_if_configured();
    println!("mantle-cli — simulated Mantle deployment (8 TafDB shards, 3 IndexNode replicas)");
    println!("type `help` for commands");

    let stdin = std::io::stdin();
    loop {
        print!("mantle> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = parts.first() else { continue };
        if cmd == "quit" || cmd == "exit" {
            break;
        }
        let started = std::time::Instant::now();
        let mut stats = RequestCtx::new();
        let flight_scope = if RECORDED_COMMANDS.contains(&cmd) {
            let depth = parts
                .get(1)
                .and_then(|p| MetaPath::parse(p).ok())
                .map_or(0, |p| p.depth() as u32);
            mantle::obs::flight::op_scope("mantle", cmd, depth)
        } else {
            None
        };
        let outcome = run_command(&cluster, cmd, &parts[1..], &mut stats);
        drop(flight_scope);
        stats.end();
        match outcome {
            Ok(Some(output)) => {
                println!("{output}");
                println!(
                    "[{:?}, {} rpc, {} retries]",
                    started.elapsed(),
                    stats.rpcs,
                    stats.retry_count(RetryClass::Txn) + stats.retry_count(RetryClass::Rename)
                );
            }
            Ok(None) => {}
            Err(e) => println!("error: {e}"),
        }
    }
}

fn parse(path: &str) -> Result<MetaPath> {
    MetaPath::parse(path)
}

fn run_command(
    cluster: &std::sync::Arc<MantleCluster>,
    cmd: &str,
    args: &[&str],
    stats: &mut RequestCtx,
) -> Result<Option<String>> {
    let svc = cluster.service();
    let need = |n: usize| -> Result<()> {
        if args.len() < n {
            return Err(MetaError::InvalidPath(format!(
                "{cmd}: expected {n} argument(s)"
            )));
        }
        Ok(())
    };
    let out = match cmd {
        "help" => Some(
            "commands:\n  mkdir <path>              create a directory\n  create <path> [size]      create an object\n  ls <path> [after]         list (pages of 20)\n  stat <path>               object or directory status\n  rm <path>                 delete an object\n  rmdir <path>              remove an empty directory\n  mv <src> <dst>            rename a directory\n  lookup <path>             resolve a directory path\n  populate <entries>        bulk-load an ns4-shaped namespace\n  stats [--json]            service counters + metrics registry\n  slow [n]                  recent force-captured slow ops\n  explain <op>              critical-path breakdown for an op type\n  trace <path>              resolve a path with RPC-chain tracing\n  crash <replica> | recover <replica>\n  quit"
                .to_string(),
        ),
        "mkdir" => {
            need(1)?;
            let id = svc.mkdir(&parse(args[0])?, stats)?;
            Some(format!("created directory {} (id {id})", args[0]))
        }
        "create" => {
            need(1)?;
            let size = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4096);
            let id = svc.create(&parse(args[0])?, size, stats)?;
            Some(format!("created object {} ({size} bytes, id {id})", args[0]))
        }
        "ls" => {
            need(1)?;
            let (page, truncated) =
                svc.list(&parse(args[0])?, args.get(1).copied(), 20, stats)?;
            let mut lines: Vec<String> = page
                .iter()
                .map(|e| {
                    format!(
                        "{}  {}",
                        if e.kind == EntryKind::Dir { "d" } else { "-" },
                        e.name
                    )
                })
                .collect();
            if truncated {
                let last = page.last().expect("truncated page is full").name.clone();
                lines.push(format!("... more (continue with: ls {} {last})", args[0]));
            }
            if lines.is_empty() {
                lines.push("(empty)".into());
            }
            Some(lines.join("\n"))
        }
        "stat" => {
            need(1)?;
            let path = parse(args[0])?;
            match svc.objstat(&path, stats) {
                Ok(meta) => Some(format!(
                    "object id {} size {} ctime {} perm {:?}",
                    meta.id, meta.size, meta.ctime, meta.permission
                )),
                Err(MetaError::IsADirectory(_)) => {
                    let st = svc.dirstat(&path, stats)?;
                    Some(format!(
                        "directory id {} entries {} nlink {} mtime {}",
                        st.id, st.attrs.entries, st.attrs.nlink, st.attrs.mtime
                    ))
                }
                Err(e) => return Err(e),
            }
        }
        "rm" => {
            need(1)?;
            svc.delete(&parse(args[0])?, stats)?;
            Some(format!("deleted {}", args[0]))
        }
        "rmdir" => {
            need(1)?;
            svc.rmdir(&parse(args[0])?, stats)?;
            Some(format!("removed {}", args[0]))
        }
        "mv" => {
            need(2)?;
            svc.rename_dir(&parse(args[0])?, &parse(args[1])?, stats)?;
            Some(format!("renamed {} -> {}", args[0], args[1]))
        }
        "lookup" => {
            need(1)?;
            let resolved = svc.lookup(&parse(args[0])?, stats)?;
            Some(format!(
                "id {} aggregated permission {:?}",
                resolved.id, resolved.permission
            ))
        }
        "populate" => {
            need(1)?;
            let entries: usize = args[0]
                .parse()
                .map_err(|_| MetaError::InvalidPath("populate: bad count".into()))?;
            let mut spec = NamespaceSpec::figure3(1.0)
                .into_iter()
                .find(|s| s.name == "ns4")
                .expect("ns4 preset");
            spec.entries = entries;
            let ns = NamespaceHandle::populate(&**cluster, spec);
            let shape = ns.stats();
            Some(format!(
                "populated {} objects + {} dirs (mean depth {:.1})",
                shape.objects, shape.dirs, shape.mean_object_depth
            ))
        }
        "stats" if args.first() == Some(&"--json") => {
            let snap = mantle::obs::snapshot();
            let json = serde_json::to_string_pretty(&snap)
                .map_err(|e| MetaError::Internal(format!("snapshot: {e}")))?;
            Some(json)
        }
        "stats" => {
            let db = cluster.db().counters();
            let caches = cluster.index().cache_stats();
            let mut out = format!(
                "tafdb: {} rows, {} txns committed, {} aborted, {} delta appends, {} compactions\nindex: {} dirs, caches {:?}\n",
                cluster.db().total_rows(),
                db.txns_committed,
                db.txns_aborted,
                db.delta_appends,
                db.compactions,
                cluster.index().table_len(),
                caches
            );
            // Per-shard row/version counts make MVCC garbage visible:
            // versions > rows means uncollected history on that shard.
            out.push_str(&format!(
                "engine: {} ({} lock waits, {} us blocked)\n",
                cluster.db().engine_name(),
                cluster.db().engine_lock_waits(),
                cluster.db().engine_lock_wait_nanos() / 1_000
            ));
            for shard in 0..cluster.db().n_shards() {
                out.push_str(&format!(
                    "  shard {shard}: {} rows, {} versions\n",
                    cluster.db().shard_rows(shard),
                    cluster.db().shard_versions(shard)
                ));
            }
            // Per-node admission plane: queue cap, sheds, deadline aborts
            // (DESIGN.md §4.14).
            out.push_str("admission:\n");
            for r in cluster.index().group().replicas() {
                let s = r.node().snapshot();
                out.push_str(&format!(
                    "  {}: queue_cap={} shed={} deadline_aborts={}\n",
                    s.name, s.queue_cap, s.shed, s.deadline_aborts
                ));
            }
            for i in 0..cluster.db().n_shards() {
                let s = cluster.db().shard_node(i).snapshot();
                out.push_str(&format!(
                    "  {}: queue_cap={} shed={} deadline_aborts={}\n",
                    s.name, s.queue_cap, s.shed, s.deadline_aborts
                ));
            }
            out.push_str("environment (effective):\n");
            for line in EnvConfig::get().to_string().lines() {
                out.push_str(&format!("  {line}\n"));
            }
            out.push_str("--- metrics registry (Prometheus text) ---\n");
            out.push_str(&mantle::obs::snapshot().to_prometheus_text());
            Some(out.trim_end().to_string())
        }
        "slow" => {
            let n = args.first().and_then(|s| s.parse().ok()).unwrap_or(16);
            let recorder = mantle::obs::flight::global();
            let events = recorder.slow_recent(n);
            let mut lines: Vec<String> =
                events.iter().map(|e| e.log_line()).collect();
            if lines.is_empty() {
                lines.push("(no slow ops captured)".into());
            }
            lines.push(format!(
                "captured {} total, {} dropped from ring",
                recorder.slow_captured_total(),
                recorder.slow_dropped_total()
            ));
            Some(lines.join("\n"))
        }
        "explain" => {
            need(1)?;
            let reports = mantle::obs::flight::global().explain(args[0]);
            if reports.is_empty() {
                Some(format!("no observations for op {:?}", args[0]))
            } else {
                Some(
                    reports
                        .iter()
                        .map(|r| r.render())
                        .collect::<Vec<_>>()
                        .join("\n"),
                )
            }
        }
        "trace" => {
            need(1)?;
            let guard = mantle::obs::trace::start_forced(cmd)
                .expect("no trace active on the CLI thread");
            let resolved = svc.lookup(&parse(args[0])?, stats)?;
            let trace = guard.finish();
            let per_node = trace.per_node();
            let mut out = format!(
                "id {} aggregated permission {:?}\n{} rpc span(s):\n{}",
                resolved.id,
                resolved.permission,
                trace.rpc_count(),
                trace.render().trim_end()
            );
            if !per_node.is_empty() {
                out.push_str("\nper-node attribution:");
                for (node, phases) in &per_node {
                    out.push_str(&format!("\n  {node}: {}", phases.render()));
                }
            }
            Some(out)
        }
        "crash" => {
            need(1)?;
            let id: usize = args[0]
                .parse()
                .map_err(|_| MetaError::InvalidPath("crash: bad replica id".into()))?;
            cluster.index().group().crash(id);
            Some(format!("crashed IndexNode replica {id}"))
        }
        "recover" => {
            need(1)?;
            let id: usize = args[0]
                .parse()
                .map_err(|_| MetaError::InvalidPath("recover: bad replica id".into()))?;
            cluster.index().group().recover(id);
            Some(format!("recovered IndexNode replica {id}"))
        }
        other => Some(format!("unknown command {other:?}; try `help`")),
    };
    Ok(out)
}
