//! Golden-report regression tests for the execution core, one pinned
//! cell per execution mode.
//!
//! The hook-driven core promises that every mode (plain, noisy,
//! contended, cached, legacy faults, resilient, online) is the same
//! simulated machine with different hooks engaged. Each fixture entry
//! pins an FNV-1a digest over the realized schedule (per-task device
//! and start/finish bit patterns), the makespan and energy bit
//! patterns, and the transfer/fault tallies — so any drift in the step
//! loop, the staging math, RNG stream forking, or report assembly
//! shows up as a diff against `tests/fixtures/exec_golden.json`.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test exec_golden
//! ```
//!
//! then commit the rewritten fixture alongside the change. A refactor
//! that claims byte-identity must NOT need a regeneration.

use std::fmt::Write as _;
use std::path::PathBuf;

use helios::core::{
    ElasticEvent, ElasticEventKind, ElasticityConfig, Engine, EngineConfig, ExecutionReport,
    FailureModel, OnlinePolicy, OnlineRunner, RecoveryPolicy, ResilienceConfig, ResilientRunner,
};
use helios::platform::presets;
use helios::sched::{HeftScheduler, Scheduler};
use helios::workflow::generators::montage;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/exec_golden.json")
}

/// FNV-1a (64-bit) over the report's full realized trace: per placement
/// the task id, device id and start/finish bit patterns, then the
/// makespan, energy, transfer and fault tallies. Byte-exact, so even a
/// 1-ulp drift in the shared staging/occupancy math changes the digest.
fn report_digest(report: &ExecutionReport) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in report.schedule().placements() {
        feed(&(p.task.0 as u64).to_le_bytes());
        feed(&(p.device.0 as u64).to_le_bytes());
        feed(&p.start.as_secs().to_bits().to_le_bytes());
        feed(&p.finish.as_secs().to_bits().to_le_bytes());
    }
    feed(&report.makespan().as_secs().to_bits().to_le_bytes());
    feed(&report.energy().total_j().to_bits().to_le_bytes());
    feed(&(report.transfers().count as u64).to_le_bytes());
    feed(&report.transfers().bytes.to_bits().to_le_bytes());
    feed(&u64::from(report.failures()).to_le_bytes());
    feed(&u64::from(report.retries()).to_le_bytes());
    format!("{hash:016x}")
}

struct GoldenEntry {
    mode: &'static str,
    makespan_bits: String,
    digest: String,
}

/// One pinned cell per execution mode: montage(40, seed 7) on the
/// hpc_node preset, planned by HEFT where a plan applies.
fn current_entries() -> Vec<GoldenEntry> {
    let platform = presets::hpc_node();
    let wf = montage(40, 7).expect("generator accepts these sizes");
    let plan = HeftScheduler::default()
        .schedule(&wf, &platform)
        .expect("HEFT plans the pinned cell");

    let resilience = ResilienceConfig::new(
        FailureModel {
            mttf_secs: 0.02,
            weibull_shape: None,
            degraded_prob: 0.1,
            permanent_prob: 0.0,
            degraded_slowdown: 2.0,
            degraded_repair_secs: 0.01,
            restart_overhead_secs: 0.0005,
        },
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.0005,
            factor: 2.0,
            cap_secs: 0.005,
            max_retries: 10_000,
        },
    );
    let elastic_resilience = resilience.clone();

    let modes: Vec<(&'static str, ExecutionReport)> = vec![
        (
            "plain",
            Engine::default()
                .execute_plan(&platform, &wf, &plan)
                .expect("plain"),
        ),
        (
            "noise",
            Engine::new(EngineConfig {
                noise_cv: 0.2,
                seed: 11,
                ..Default::default()
            })
            .execute_plan(&platform, &wf, &plan)
            .expect("noise"),
        ),
        (
            "contention_caching",
            Engine::new(EngineConfig {
                link_contention: true,
                data_caching: true,
                ..Default::default()
            })
            .execute_plan(&platform, &wf, &plan)
            .expect("contention_caching"),
        ),
        (
            "legacy_faults",
            Engine::new(EngineConfig {
                seed: 3,
                resilience: Some(ResilienceConfig::flat_retry(0.05, 0.0005, 100)),
                ..Default::default()
            })
            .execute_plan(&platform, &wf, &plan)
            .expect("legacy_faults"),
        ),
        (
            "resilient",
            ResilientRunner::new(EngineConfig {
                seed: 5,
                noise_cv: 0.1,
                resilience: Some(resilience),
                ..Default::default()
            })
            .execute_plan(&platform, &wf, &plan)
            .expect("resilient"),
        ),
        (
            "online_jit",
            OnlineRunner::new(EngineConfig::default(), OnlinePolicy::Jit)
                .run(&platform, &wf)
                .expect("online_jit"),
        ),
        (
            "online_ranked",
            OnlineRunner::new(EngineConfig::default(), OnlinePolicy::RankedJit)
                .run(&platform, &wf)
                .expect("online_ranked"),
        ),
        (
            // Appended after the original seven modes so their fixture
            // rows stay byte-identical: capacity events must not
            // perturb any pre-existing digest.
            "elastic",
            ResilientRunner::new(EngineConfig {
                seed: 5,
                noise_cv: 0.1,
                resilience: Some(elastic_resilience),
                elasticity: Some(ElasticityConfig {
                    events: vec![
                        ElasticEvent {
                            device: "cpu1".into(),
                            at_secs: 0.002,
                            kind: ElasticEventKind::Preempt { notice_secs: 0.001 },
                        },
                        ElasticEvent {
                            device: "gpu0".into(),
                            at_secs: 0.004,
                            kind: ElasticEventKind::Drain {
                                deadline_secs: 0.006,
                            },
                        },
                        ElasticEvent {
                            device: "cpu1".into(),
                            at_secs: 0.02,
                            kind: ElasticEventKind::Join,
                        },
                    ],
                    churn: Vec::new(),
                }),
                ..Default::default()
            })
            .run(&platform, &wf, &HeftScheduler::default())
            .expect("elastic"),
        ),
        (
            // Flat retry plus checkpointing on the static engine: the
            // T8 experiment's shape, with the interval scaled to the
            // pinned cell's millisecond tasks so snapshots are taken.
            "legacy_faults_checkpoint",
            Engine::new(EngineConfig {
                seed: 3,
                resilience: Some(ResilienceConfig {
                    policy: RecoveryPolicy::CheckpointRestart {
                        interval_secs: 0.001,
                        overhead_secs: 5e-5,
                        max_retries: 10_000_000,
                    },
                    ..ResilienceConfig::flat_retry(0.01, 0.0005, 10_000_000)
                }),
                ..Default::default()
            })
            .execute_plan(&platform, &wf, &plan)
            .expect("legacy_faults_checkpoint"),
        ),
        (
            "online_legacy_faults",
            OnlineRunner::new(
                EngineConfig {
                    seed: 3,
                    resilience: Some(ResilienceConfig::flat_retry(0.05, 0.0005, 100)),
                    ..Default::default()
                },
                OnlinePolicy::RankedJit,
            )
            .run(&platform, &wf)
            .expect("online_legacy_faults"),
        ),
    ];

    modes
        .into_iter()
        .map(|(mode, report)| GoldenEntry {
            mode,
            makespan_bits: format!("{:016x}", report.makespan().as_secs().to_bits()),
            digest: report_digest(&report),
        })
        .collect()
}

fn render_fixture(entries: &[GoldenEntry]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(
            out,
            "  {{\"mode\": \"{}\", \"makespan_bits\": \"{}\", \"digest\": \"{}\"}}{comma}",
            e.mode, e.makespan_bits, e.digest
        )
        .expect("write to string");
    }
    out.push_str("]\n");
    out
}

#[test]
fn execution_modes_match_the_committed_golden_reports() {
    let entries = current_entries();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, render_fixture(&entries)).expect("write fixture");
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; run `UPDATE_GOLDEN=1 cargo test --test exec_golden` \
             to (re)create it",
            path.display()
        )
    });
    let golden: serde_json::Value = serde_json::from_str(&raw).expect("fixture parses");
    let golden = golden.as_array().expect("fixture is a JSON array");
    assert_eq!(
        golden.len(),
        entries.len(),
        "fixture covers a different mode set; regenerate with UPDATE_GOLDEN=1"
    );
    for (want, got) in golden.iter().zip(&entries) {
        assert_eq!(want["mode"].as_str(), Some(got.mode), "mode order drifted");
        assert_eq!(
            want["makespan_bits"].as_str(),
            Some(got.makespan_bits.as_str()),
            "{}: makespan bit pattern drifted",
            got.mode
        );
        assert_eq!(
            want["digest"].as_str(),
            Some(got.digest.as_str()),
            "{}: realized-schedule digest drifted",
            got.mode
        );
    }
}

#[test]
fn execution_modes_are_deterministic_per_seed() {
    let a = current_entries();
    let b = current_entries();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.digest, y.digest, "{}: same seed must reproduce", x.mode);
    }
}
