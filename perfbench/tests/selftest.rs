//! Self-test of the benchmark: tiny runs of every workload print every
//! named metric with a unit and pass their checks, and `BENCHMARK.json`
//! names exactly the metrics the binary emits.

use std::path::Path;
use std::process::Command;

fn run(workload: &str, n: usize, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.5", "--n"])
        .arg(n.to_string())
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Checks the result line: correct, and every expected metric present
/// with a unit; and the human-readable line of each metric.
fn check_output(workload: &str, stdout: &str, expected: &[(String, String)]) {
    let last = stdout.lines().last().expect("output has a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
    for (name, unit) in expected {
        let entry = format!("\"{name}\":{{\"value\":");
        let at =
            last.find(&entry).unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let rest = &last[at..];
        assert!(
            rest[..rest.find('}').expect("closed entry")]
                .ends_with(&format!("\"unit\":\"{unit}\"")),
            "{workload}: {name} lacks unit {unit}"
        );
        assert!(
            stdout.lines().any(|l| l.starts_with("metric ")
                && l.split_whitespace().nth(2) == Some(name.as_str())
                && l.contains(" (samples ")),
            "{workload}: no human-readable line for {name}"
        );
    }
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root")
}

/// `(name, unit)` of every metric listed in one section of BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = benchmark_json();
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let u = entry.find("\"unit\": \"").expect("unit present") + "\"unit\": \"".len();
            let unit = entry[u..u + entry[u..].find('"').expect("unit closes")].to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics() {
    let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, perfbench::END_TO_END.to_vec());
    let layers: Vec<(String, String)> =
        perfbench::per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<String> = benchmark_json()
        .split("{\"name\": \"")
        .skip(1)
        .filter(|e| e.contains("\"why\""))
        .map(|e| e[..e.find('"').expect("name closes")].to_string())
        .collect();
    assert_eq!(workloads, perfbench::GATED_WORKLOADS.to_vec());
}

fn tiny_n(workload: &str) -> usize {
    if workload == "serve-mixed" {
        2_000
    } else {
        24
    }
}

#[test]
fn tiny_runs_print_every_end_to_end_metric() {
    let expected = listed("end_to_end");
    for w in perfbench::WORKLOADS {
        check_output(w, &run(w, tiny_n(w), false), &expected);
    }
}

#[test]
fn tiny_traced_runs_print_every_per_layer_metric() {
    let expected = listed("per_layer");
    for w in perfbench::WORKLOADS {
        check_output(w, &run(w, tiny_n(w), true), &expected);
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
