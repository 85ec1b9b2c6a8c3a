//! The committed `BENCH_<PR>.json` must exist and carry every pinned
//! series. A PR that drops a series (or commits an empty/garbled file)
//! silently breaks the perf trajectory; this test makes that loud.

use std::path::PathBuf;

use helios_bench::TRAJECTORY_PR as PR;

/// Every series the trajectory file must carry, by stable name.
const REQUIRED_SERIES: [&str; 4] = [
    "paper_grid_cells_per_sec",
    "paper_grid_journal_cells_per_sec",
    "merge_rows_per_sec",
    "synthetic_dag_steps_per_sec",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("bench crate lives two levels below the repo root")
}

#[test]
fn bench_json_is_committed_with_every_series() {
    let path = repo_root().join(format!("BENCH_{PR}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} is missing ({e}); regenerate with \
             `cargo run --release --bin perf_trajectory`",
            path.display()
        )
    });
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCH json parses");

    assert_eq!(doc["pr"].as_u64(), Some(PR as u64), "pr field must match");
    let series = doc["series"].as_array().expect("series array");
    for name in REQUIRED_SERIES {
        let entry = series
            .iter()
            .find(|s| s["name"] == name)
            .unwrap_or_else(|| panic!("BENCH_{PR}.json is missing the {name:?} series"));
        let value = entry["value"].as_f64().expect("series value is a number");
        assert!(
            value.is_finite() && value > 0.0,
            "{name} must be a positive rate, got {value}"
        );
    }
}
