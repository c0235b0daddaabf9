//! End-to-end checks of the benchmark command: a short run prints every
//! metric `BENCHMARK.json` names, with its unit, and fails nothing; and
//! `BENCHMARK.json` agrees with the benchmark's own metric and workload
//! lists.

use std::path::PathBuf;
use std::process::Command;

use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::setup::Workload;

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn assert_result(stdout: &str, metrics: &[Metric]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{stdout}");
    assert!(
        last.contains("\"failed\": 0, "),
        "error_rate must be 0: {stdout}"
    );
    assert_eq!(last.matches("\"value\": ").count(), metrics.len(), "{last}");
    for m in metrics {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{} missing: {last}", m.name))
            + key.len();
        let rest = &last[at..];
        let (value, tail) = rest.split_once(", ").expect("value then unit");
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{} is not a number: {value}", m.name));
        assert!(v.is_finite(), "{}", m.name);
        assert!(
            tail.starts_with(&format!("\"unit\": \"{}\"}}", m.unit)),
            "{} unit: {tail}",
            m.name
        );
    }
}

#[test]
fn a_short_untraced_run_prints_every_end_to_end_metric() {
    let out = run("service-open", 0);
    assert!(out
        .lines()
        .next()
        .unwrap()
        .starts_with("# perfbench workload=service-open seed=7"));
    assert!(out.contains(" digest=") && out.contains(" nproc=") && out.contains(" rustc="));
    assert_result(&out, END_TO_END);
}

#[test]
fn a_short_traced_run_prints_every_per_layer_metric() {
    let out = run("matmul-read", 1);
    assert_result(&out, PER_LAYER);
    assert!(out.contains("# trace written to "), "{out}");
}

#[test]
fn the_same_seed_reproduces_the_input_digest() {
    let digest = |out: &str| {
        let header = out.lines().next().expect("header").to_string();
        header
            .split_whitespace()
            .find(|w| w.starts_with("digest="))
            .expect("digest")
            .to_string()
    };
    assert_eq!(digest(&run("fib-spawn", 0)), digest(&run("fib-spawn", 0)));
}

#[test]
fn usage_errors_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_matches_the_metric_and_workload_lists() {
    let json = benchmark_json();
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    for m in END_TO_END {
        assert!(
            json.contains(&format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", ",
                m.name, m.unit
            )),
            "{}",
            m.name
        );
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": ",
            m.name, m.unit
        );
        assert!(json.contains(&entry), "{}", m.name);
    }
    let names = json.matches("{\"name\": ").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
