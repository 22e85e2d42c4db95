//! Command line of the benchmark. `run.sh` builds this binary and passes
//! its arguments through.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — the contract form:
//!   one workload in this process; the last line of standard output is
//!   the result object.
//! * no `--trace` — the suite: every workload (or those named) in a child
//!   process each, `--runs K` times over, results collected in
//!   `<out-dir>/run-….json`.
//! * `compare A B` (suite files, or directories of them), `manifest`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use mantle_benchmark::driver::{self, Protocol};
use mantle_benchmark::mirror::{Layer, Tracer, LAYER_NAMES};
use mantle_benchmark::workloads::{
    DirMutate, MixedObjects, ObjChurn, ReadDeep, ReadLeased, Workload, NAMES,
};
use mantle_benchmark::{compare, isolated, report, spec};
use serde_json::Value;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `Some` in the contract form.
    trace: Option<bool>,
    /// Suite: also make a traced run of every workload.
    traced: bool,
    /// Suite: how many times every workload is run.
    runs: usize,
    /// Traced contract run: also run the isolated loops. The suite turns
    /// it off in its children and runs them once itself.
    isolated: bool,
    quick: bool,
    out_dir: PathBuf,
    detail: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: run.sh [--workload NAME]... [--seed N] [--seconds S] [--runs K] [--traced] [--quick]\n\
         \x20      run.sh --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      run.sh compare A B      (suite files, or directories holding them)\n\
         \x20      run.sh manifest\n\
         workloads: {}",
        NAMES.join(" ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        traced: false,
        runs: 1,
        isolated: true,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}\n{}", usage()));
                }
                o.workloads.push(name.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => o.traced = true,
            "--runs" => {
                o.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if o.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--isolated" => o.isolated = value()? != "0",
            "--quick" => o.quick = true,
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--detail" => o.detail = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(o)
}

/// Writes the retained spans of a traced run, one JSON object per span.
fn write_trace(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"unit\": \"ns since the client's tracer was made\", \"spans\": ["
    )?;
    let mut first = true;
    for (client, tracer) in tracers.iter().enumerate() {
        for s in &tracer.spans {
            let comma = if first { "" } else { ",\n" };
            first = false;
            write!(
                w,
                "{comma}{{\"op\":{},\"client\":{client},\"name\":\"{}\",\"parent\":{},\"start\":{},\"end\":{}}}",
                s.op,
                LAYER_NAMES[s.layer as usize],
                if s.layer == Layer::Op {
                    "null"
                } else {
                    "\"op\""
                },
                s.start,
                s.end
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

/// One workload in this process: the contract form.
fn single<W: Workload>(o: &Options) -> Result<(), String> {
    let traced = o.trace == Some(true);
    let protocol = Protocol::for_seconds(o.seconds, traced, o.quick);
    let data = driver::run::<W>(o.seed, protocol);
    let attempted = report::attempted_with_checks(&data);
    let failed = report::failed(&data);
    let (metrics, extra) = if traced {
        let mut metrics = report::per_layer(&data);
        if o.isolated {
            metrics.extend(report::isolated(isolated::run_all(o.quick)));
        }
        (metrics, Vec::new())
    } else {
        report::end_to_end(&data)
    };
    let metrics = report::in_spec_order(metrics, traced, !traced || o.isolated)?;
    println!(
        "# {} seed {} {} s, {} clients on {} cores, {} measured passes{}",
        W::NAME,
        o.seed,
        o.seconds,
        data.n_clients,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        data.passes.len(),
        if traced {
            " (odd ones through the mirror)"
        } else {
            ""
        }
    );
    report::print_table(W::NAME, &metrics, &extra);
    if let Some(e) = &data.first_error {
        println!("# first failure: {e}");
        eprintln!("{} seed {}: first failure: {e}", W::NAME, o.seed);
    }
    println!(
        "# verify: {} checks, {} failed; ops: {} attempted, {} failed",
        data.verdict.checks,
        data.verdict.failures,
        attempted - data.verdict.checks,
        failed - data.verdict.failures
    );
    if traced {
        std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
        let path = o.out_dir.join(format!("trace-{}.json", W::NAME));
        write_trace(&path, &data.tracers).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    if let Some(path) = &o.detail {
        let doc = report::detail(W::NAME, o.seed, traced, &data, &metrics, &extra);
        let text = serde_json::to_string(&doc).expect("serializable");
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::contract_line(attempted, failed, &metrics));
    Ok(())
}

fn dispatch(o: &Options) -> Result<(), String> {
    match o.workloads.first().map(String::as_str) {
        Some("read_deep") => single::<ReadDeep>(o),
        Some("read_leased") => single::<ReadLeased>(o),
        Some("obj_churn") => single::<ObjChurn>(o),
        Some("dir_mutate") => single::<DirMutate>(o),
        Some("mixed_objects") => single::<MixedObjects>(o),
        _ => Err(format!("--trace needs one --workload\n{}", usage())),
    }
}

/// Every requested workload in a child process of its own, `runs` times
/// over; returns whether all of them were correct.
fn suite(o: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<String> = if o.workloads.is_empty() {
        NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        o.workloads.clone()
    };
    let mut results = Vec::new();
    let mut all_correct = true;
    // Runs outermost: the runs of one workload are then minutes apart and
    // see the host's drift, which is what `compare` judges spread by.
    for run in 0..o.runs {
        for name in &names {
            for trace in [false, true] {
                if trace && !o.traced {
                    continue;
                }
                let detail = o
                    .out_dir
                    .join(format!("detail-{name}-trace{}.json", trace as u8));
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
                    .args(["--seconds", &o.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(["--isolated", "0", "--out-dir"])
                    .arg(&o.out_dir)
                    .arg("--detail")
                    .arg(&detail);
                if o.quick {
                    cmd.arg("--quick");
                }
                let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
                if !status.success() {
                    return Err(format!(
                        "{name} (trace {}) exited with {status}",
                        trace as u8
                    ));
                }
                let text = std::fs::read_to_string(&detail)
                    .map_err(|e| format!("{}: {e}", detail.display()))?;
                let mut doc: Value = serde_json::from_str(&text)
                    .map_err(|e| format!("{}: {e}", detail.display()))?;
                let _ = std::fs::remove_file(&detail);
                all_correct &= compare::field(&doc, "failed") == Some(&Value::U64(0));
                if let Value::Object(fields) = &mut doc {
                    fields.push(("run".to_string(), Value::U64(run as u64)));
                }
                results.push(doc);
            }
        }
    }
    let mut doc = vec![
        ("seed".to_string(), Value::U64(o.seed)),
        ("seconds".to_string(), Value::F64(o.seconds)),
        ("quick".to_string(), Value::Bool(o.quick)),
        ("runs".to_string(), Value::U64(o.runs as u64)),
    ];
    if o.traced {
        // The isolated loops do not depend on the workload: once per suite.
        let loops =
            report::in_spec_order(report::isolated(isolated::run_all(o.quick)), true, false)?;
        println!("# isolated timing loops (the same whichever workload runs)");
        report::print_table("isolated", &loops, &[]);
        doc.push((
            "isolated".to_string(),
            report::metrics_object(&loops, false),
        ));
    }
    doc.push(("results".to_string(), Value::Array(results)));
    let file = o.out_dir.join(format!(
        "run-seed{}{}{}.json",
        o.seed,
        if o.traced { "-traced" } else { "" },
        if o.quick { "-quick" } else { "" }
    ));
    let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("serializable");
    std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "# results written to {}; {}",
        file.display(),
        if all_correct {
            "every workload correct"
        } else {
            "FAILED: some ops or checks failed"
        }
    );
    Ok(all_correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(usage());
            };
            let side = |p: &String| compare::Side::read(Path::new(p));
            let (report, bad) = compare::compare(&side(a)?, &side(b)?)?;
            print!("{report}");
            Ok(!bad)
        }
        Some("-h" | "--help") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => {
            let o = parse(args)?;
            if o.trace.is_some() {
                // The contract form exits 0 and says `"correct": false`.
                dispatch(&o).map(|()| true)
            } else {
                suite(&o)
            }
        }
    }
}

fn main() -> ExitCode {
    // The program reads two dozen MANTLE_* settings; none may leak in.
    // Nothing else runs yet, so changing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MANTLE_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
