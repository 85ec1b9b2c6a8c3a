//! The traced run at test scale: every workload passes its output
//! checks, reports every metric `BENCHMARK.json` declares, attributes
//! its whole wall to layers, and repeats its deterministic work counts
//! exactly.

mod common;

use std::collections::BTreeMap;

use helios_perfbench::span::DETERMINISTIC_COUNTS;
use helios_perfbench::workloads::{self, NAMES};
use helios_perfbench::{Metric, Outcome};

fn declared(section: &str) -> Vec<String> {
    let path = common::ctx("declared", 0).root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(serde_json::Value::as_array)
        .expect("the section is a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a metric name").to_owned())
        .collect()
}

fn by_name(metrics: &[Metric]) -> BTreeMap<&str, f64> {
    metrics.iter().map(|m| (m.name.as_str(), m.value)).collect()
}

fn traced(name: &str, seed: u64) -> Outcome {
    let ctx = common::ctx(&format!("traced-{name}-{seed}"), seed);
    let out = workloads::traced(name, &ctx).expect("traced run");
    assert_eq!(out.checks.failed, 0, "{name}: {:?}", out.checks.notes);
    out
}

#[test]
fn deterministic_counts_repeat_exactly() {
    for name in NAMES {
        let a = traced(name, 7);
        let b = traced(name, 7);
        let (a, b) = (by_name(&a.metrics), by_name(&b.metrics));
        for count in DETERMINISTIC_COUNTS {
            assert_eq!(a[count], b[count], "{name}: {count}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_account_for_the_wall() {
    let per_layer = declared("per_layer");
    for name in NAMES {
        let out = traced(name, 0);
        let m = by_name(&out.metrics);
        let got: Vec<&str> = m.keys().copied().collect();
        let mut want: Vec<&str> = per_layer.iter().map(String::as_str).collect();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "{name}: traced metrics differ from BENCHMARK.json"
        );

        let layers: f64 = out
            .metrics
            .iter()
            .filter(|x| {
                x.unit == "s"
                    && x.name.ends_with("_s")
                    && !x.name.starts_with("trace.")
                    && !x.name.starts_with("sched.plan_s.")
            })
            .map(|x| x.value)
            .sum();
        let wall = m["trace.wall_s"];
        assert!(m["campaign.driver_other_s"] >= 0.0, "{name}");
        assert!(
            (layers - wall).abs() < 1e-6 * wall.max(1.0),
            "{name}: {layers} vs {wall}"
        );
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let end_to_end = declared("end_to_end");
    for name in NAMES {
        let ctx = common::ctx(&format!("untraced-{name}"), 3);
        let out = workloads::untraced(name, &ctx).expect("untraced run");
        assert_eq!(out.checks.failed, 0, "{name}: {:?}", out.checks.notes);
        assert!(out.attempted > 0);
        let m = by_name(&out.metrics);
        for metric in &end_to_end {
            let v = m.get(metric.as_str()).copied();
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {metric} = {v:?}");
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let a = by_name(&traced("large_run", 1).metrics)["exec.transfer_bytes"];
    let b = by_name(&traced("large_run", 2).metrics)["exec.transfer_bytes"];
    assert_ne!(a, b);
}
