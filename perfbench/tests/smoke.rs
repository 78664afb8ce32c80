//! Smoke test of the benchmark: each workload once at `--size tiny`.
//!
//! Checks that every metric `BENCHMARK.json` names is reported, finite
//! and in its unit; that the same seed reproduces the result digests and
//! the exact counts; and that another seed changes the digests.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(bench: &Value, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Run one tiny traced invocation; returns (report, result).
fn run(workload: &str, seed: u64) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--trace", "1", "--size", "tiny"])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "report and result lines: {text}");
    let result: Value = serde_json::from_str(lines[lines.len() - 1]).expect("result line");
    let report: Value = serde_json::from_str(lines[lines.len() - 2]).expect("report line");
    (report.get("report").expect("report").clone(), result)
}

fn assert_metrics(workload: &str, metrics: &Value, expected: &[(String, String)]) {
    let Value::Object(entries) = metrics else {
        panic!("{workload}: metrics is not an object: {metrics:?}");
    };
    let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for (name, unit) in expected {
        let m = metrics.get(name).expect("metric present");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a finite number: {m:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
    }
}

/// Counts that must repeat bit for bit across runs of one commit.
const EXACT: [&str; 6] = [
    "core.sim_events_per_visit",
    "core.session.assign.calls_per_visit",
    "trace.records_per_visit",
    "trace.jsonl_bytes_per_visit",
    "trace.dropped",
    "sweep.store_bytes_per_cell",
];

fn digests(report: &Value) -> Value {
    report
        .get("digests")
        .and_then(|d| d.get("untraced"))
        .cloned()
        .expect("untraced digests")
}

fn smoke(workload: &str) {
    let bench = benchmark_json();
    let (report, result) = run(workload, 1);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{report:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    let per_layer = declared(&bench, "per_layer");
    assert_metrics(
        workload,
        result.get("metrics").expect("metrics"),
        &per_layer,
    );
    assert_metrics(
        workload,
        report.get("end_to_end").expect("end_to_end"),
        &declared(&bench, "end_to_end"),
    );
    let dropped = report
        .get("per_layer")
        .and_then(|p| p.get("trace.dropped"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    assert_eq!(dropped, Some(0.0), "{workload}: trace.dropped");

    let (again, _) = run(workload, 1);
    assert_eq!(
        digests(&report),
        digests(&again),
        "{workload}: same seed, same digests"
    );
    for name in EXACT {
        let value = |r: &Value| {
            r.get("per_layer")
                .and_then(|p| p.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .map(f64::to_bits)
        };
        assert_eq!(
            value(&report),
            value(&again),
            "{workload}: exact count {name}"
        );
    }
    let (other, _) = run(workload, 2);
    assert_ne!(
        digests(&report),
        digests(&other),
        "{workload}: other seed, other digests"
    );
}

#[test]
fn table1_3g() {
    smoke("table1_3g");
}

#[test]
fn causal_3g() {
    smoke("causal_3g");
}

#[test]
fn population_wifi() {
    smoke("population_wifi");
}
