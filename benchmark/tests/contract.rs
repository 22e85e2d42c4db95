//! The binary keeps the contract: for either `--trace` value the last
//! line of standard output is one JSON object whose metrics are exactly
//! the ones `BENCHMARK.json` lists, with their units.

use std::process::Command;

use mantle_benchmark::spec;
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn run(trace: &str) -> Value {
    // Inside the build directory: the benchmark writes nowhere else.
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_mantle-benchmark"))
        .args(["--workload", "obj_churn", "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--quick", "--out-dir"])
        .arg(&out_dir)
        // A setting that must not reach the program under test.
        .env("MANTLE_WALL_CLOCK", "1")
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace == "1" {
        let spans =
            std::fs::read_to_string(out_dir.join("trace-obj_churn.json")).expect("span file");
        let doc: Value = serde_json::from_str(&spans).expect("span file is JSON");
        assert!(matches!(field(&doc, "spans"), Value::Array(s) if !s.is_empty()));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output");
    serde_json::from_str(last).expect("last line is JSON")
}

fn check(doc: &Value, wanted: &[(&str, &str)]) {
    let Value::Object(top) = doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(doc, "correct"), &Value::Bool(true));
    assert_eq!(field(doc, "failed"), &Value::U64(0));
    assert!(matches!(field(doc, "attempted"), Value::U64(n) if *n >= 1));
    let Value::Object(metrics) = field(doc, "metrics") else {
        panic!("metrics is not an object")
    };
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(
                field(m, "value"),
                Value::F64(_) | Value::U64(_) | Value::I64(_)
            ));
            let Value::Str(unit) = field(m, "unit") else {
                panic!("unit of {name}")
            };
            (name.as_str(), unit.as_str())
        })
        .collect();
    assert_eq!(got, wanted);
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let wanted: Vec<(&str, &str)> = spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    check(&run("0"), &wanted);
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let wanted: Vec<(&str, &str)> = spec::PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    check(&run("1"), &wanted);
}
