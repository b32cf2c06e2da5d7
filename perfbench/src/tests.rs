//! Self-test: every workload at a tiny size prints every metric
//! `BENCHMARK.json` declares, with its unit, and a wrong reference answer
//! is counted as a failure rather than passing silently.

use super::*;
use ecrpq_bench::harness::json;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn tiny(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        corrupt_reference: false,
    }
}

/// `(name, unit)` of every metric in the manifest's `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let manifest = json::parse(MANIFEST).expect("BENCHMARK.json parses");
    let metrics = manifest.get(section).and_then(Json::as_arr).expect(section);
    metrics
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn manifest_names_the_workloads() {
    let manifest = json::parse(MANIFEST).expect("BENCHMARK.json parses");
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, workload::NAMES);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for name in workload::NAMES {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&tiny(name, trace)).expect("tiny run");
            assert_eq!(report.failed, 0, "{name} trace={trace}");
            assert!(report.attempted >= MIN_REQUESTS, "{name} trace={trace}");
            assert_eq!(printed(&report), declared(section), "{name} trace={trace}");
            let line = report.result_line();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn a_wrong_reference_is_counted_as_failed() {
    for name in workload::NAMES {
        let mut config = tiny(name, false);
        config.corrupt_reference = true;
        let report = run(&config).expect("tiny run");
        assert_eq!(report.failed, 1, "{name}");
        let line = report.result_line();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)), "{name}");
        let share = report
            .shape
            .iter()
            .find(|(k, _)| *k == "failed_share")
            .and_then(|(_, v)| v.as_f64())
            .expect("failed_share");
        assert!(share > 0.0, "{name}");
    }
}
