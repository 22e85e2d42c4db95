//! The process-level half of the `EnvConfig` contract: a binary consults
//! the parsed environment before it does any work. The parse itself is
//! unit-tested through `EnvConfig::from_vars` in
//! `crates/types/src/config.rs`.

use std::io::Write;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mantle-cli"))
}

#[test]
fn a_mistyped_value_stops_the_cli_before_it_builds_a_cluster() {
    let out = cli()
        .env("MANTLE_ENGINE", "mvc")
        .stdin(Stdio::null())
        .output()
        .expect("run mantle-cli");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"MANTLE_ENGINE="mvc": expected btree|mvcc"#),
        "{stderr}"
    );
    // The banner is printed right after the cluster is up.
    assert!(out.stdout.is_empty(), "the CLI got as far as its banner");
}

#[test]
fn stats_prints_the_environment_the_cli_runs_under() {
    let mut child = cli()
        .env("MANTLE_ENGINE", "MVCC")
        .env("MANTLE_TRACE_SAMPLE", "0.25")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("run mantle-cli");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"stats\n").expect("send stats");
    drop(stdin);
    let out = child.wait_with_output().expect("mantle-cli exits at EOF");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in [
        "  MANTLE_ENGINE=mvcc",
        "  MANTLE_TRACE_SAMPLE=0.25",
        "engine: mvcc",
    ] {
        assert!(stdout.contains(line), "no {line:?} in:\n{stdout}");
    }
}
