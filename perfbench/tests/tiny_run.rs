//! A tiny run of every workload through the real binary: each must answer
//! every op correctly (oracle agreement) and print every metric named in
//! `BENCHMARK.json`, with its unit, as its last line.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["sdf-text", "grammar-edit", "doc-keystroke"];

fn declared(list: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..start + json[start..].find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let tag = format!("\"{key}\": \"");
                let at = entry.find(&tag).expect("field present") + tag.len();
                entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

fn check(workload: &str, trace: &str, list: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.contains("\"failed\": 0,"),
        "{workload}: {line}"
    );
    let metrics = &line[line.find("\"metrics\"").expect("metrics present")..];
    let printed: Vec<(String, String)> = metrics
        .split("}, \"")
        .map(|entry| {
            let name = entry.trim_start_matches("\"metrics\": {\"");
            let name = &name[..name.find('"').expect("name closes")];
            let unit = &entry[entry.find("\"unit\": \"").expect("unit present") + 9..];
            (
                name.to_owned(),
                unit[..unit.find('"').expect("unit closes")].to_owned(),
            )
        })
        .collect();
    assert_eq!(printed, declared(list), "{workload} --trace {trace}");
}

#[test]
fn every_workload_answers_correctly_and_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        check(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        check(workload, "1", "per_layer");
    }
}

#[test]
fn unknown_workloads_and_missing_flags_fail() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "sdf-text", "--seconds", "1", "--trace", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("perfbench runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
