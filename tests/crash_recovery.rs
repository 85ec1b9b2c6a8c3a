//! Crash-consistency acceptance battery for the durable cell store.
//!
//! The contract under test: a sweep driven through
//! [`SweepDriver::run_store`] can be killed at *any* byte — between
//! records or mid-record — and a resume salvages the longest valid
//! prefix, truncates the torn tail, and completes with a merged report
//! **byte-identical** to the run that was never interrupted, in both
//! commit modes. Under per-cell commit (`--journal`) cells that
//! repeatedly kill the process get quarantined instead of crash-looping,
//! and a drain request stops cleanly at a resumable cut. Under group
//! commit (`--store`) the file is exactly what the plain `StoreWriter`
//! call sequence writes.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

use proptest::prelude::*;

use helios_core::store::{schema_names, TORN_WRITE_INJECTED};
use helios_core::{
    merge_shards, read_store, CampaignSpec, Commit, ShardSpec, StoreHeader, StoreOptions,
    StoreWriter, SweepDriver, SweepReport,
};

const SPEC_JSON: &str = r#"{
    "name": "crash-recovery",
    "families": ["montage", "sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft", "min-min"],
    "seeds": {"base": 7, "count": 2},
    "tasks": 20,
    "noise_cv": 0.05
}"#;

fn spec() -> CampaignSpec {
    CampaignSpec::from_json(SPEC_JSON).expect("test spec is valid")
}

fn bytes(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// A per-test scratch directory, unique per process so parallel test
/// binaries cannot collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-crashrec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Per-cell commit options (what `--journal` runs), with `edit` applied.
fn journal(edit: impl FnOnce(&mut StoreOptions<'static>)) -> StoreOptions<'static> {
    let mut opts = StoreOptions {
        commit: Commit::PerCell,
        ..StoreOptions::default()
    };
    edit(&mut opts);
    opts
}

fn run_to_completion(driver: &SweepDriver, spec: &CampaignSpec, path: &Path) -> String {
    let run = driver
        .run_store(spec, ShardSpec::full(), path, &journal(|_| {}))
        .expect("resume run");
    assert!(!run.drained && run.remaining == 0, "resume must finish");
    bytes(&merge_shards(&[run.report]).expect("merge"))
}

#[test]
fn torn_mid_record_write_salvages_and_resumes_byte_identically() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let dir = scratch("torn");
    let path = dir.join("sweep.store");

    // Tear the 4th append (the second cell's one-row group) halfway:
    // the write errors after persisting half its bytes, exactly like
    // power loss mid-write.
    let torn = driver.run_store(
        &spec,
        ShardSpec::full(),
        &path,
        &journal(|o| o.tear_after = Some(3)),
    );
    let err = torn.expect_err("armed tear must fire").to_string();
    assert!(err.contains(TORN_WRITE_INJECTED), "{err}");

    // Salvage must see the torn tail before recovery truncates it.
    let peek = read_store(&path).expect("salvage");
    assert!(
        peek.dropped_bytes > 0,
        "the half-written record must be dropped"
    );
    assert_eq!(peek.cells.len(), 1, "the record before the tear survives");

    // Resume: truncate the tail, re-run the lost cells, same bytes.
    let resumed = driver
        .run_store(&spec, ShardSpec::full(), &path, &journal(|_| {}))
        .expect("resumed run");
    assert_eq!(resumed.dropped_bytes, peek.dropped_bytes);
    assert_eq!(resumed.salvaged_rows, peek.cells.len());
    let merged = bytes(&merge_shards(&[resumed.report]).expect("merge"));
    assert_eq!(
        merged, reference,
        "torn-write resume must be byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_cell_boundaries_resumes_byte_identically_for_every_cut() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let total = spec.num_cells();
    let dir = scratch("boundary");

    for commit in [Commit::PerCell, Commit::Group] {
        for cut in [1usize, total / 2, total - 1] {
            let path = dir.join(format!("cut{cut}-{commit:?}.store"));
            let partial = driver
                .run_store(
                    &spec,
                    ShardSpec::full(),
                    &path,
                    &journal(|o| {
                        o.commit = commit;
                        o.limit = Some(cut);
                    }),
                )
                .expect("partial run");
            assert_eq!(partial.report.cells.len(), cut);
            assert_eq!(partial.remaining, total - cut);

            let resumed = driver
                .run_store(
                    &spec,
                    ShardSpec::full(),
                    &path,
                    &journal(|o| o.commit = commit),
                )
                .expect("resumed run");
            assert_eq!(resumed.salvaged_rows, cut, "{commit:?} cut at {cut}");
            assert_eq!(
                resumed.dropped_bytes, 0,
                "boundary kill leaves no torn tail"
            );
            let merged = bytes(&merge_shards(&[resumed.report]).expect("merge"));
            assert_eq!(
                merged, reference,
                "{commit:?} cut at {cut} must resume byte-identically"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeatedly_crashing_cell_is_quarantined_as_poisoned() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let dir = scratch("poison");
    let path = dir.join("sweep.store");
    let victim = 2usize;

    // Three runs in a row die right after recording the attempt on the
    // victim cell — the synthetic "this cell kills the process" loop.
    for round in 0..3 {
        let err = driver
            .run_store(
                &spec,
                ShardSpec::full(),
                &path,
                &journal(|o| o.crash_cell = Some(victim)),
            )
            .expect_err("armed crash must fire");
        assert!(
            err.to_string().contains("injected crash"),
            "round {round}: {err}"
        );
    }
    let pending = read_store(&path).expect("read").pending_attempts();
    assert_eq!(pending, vec![(victim, 3)]);

    // The fourth run sees three attempts with no row and quarantines
    // the cell — even with the crash hook still armed, because the
    // quarantined cell is never executed again.
    let run = driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &journal(|o| {
                o.crash_cell = Some(victim);
                o.poison_limit = Some(3);
            }),
        )
        .expect("quarantining run");
    assert_eq!(run.poisoned, vec![victim]);
    assert_eq!(run.remaining, 0);
    assert_eq!(run.report.cells.len(), spec.num_cells());
    let poisoned: Vec<usize> = run
        .report
        .cells
        .iter()
        .filter(|c| c.incomplete_reason.as_deref() == Some("poisoned"))
        .map(|c| c.cell)
        .collect();
    assert_eq!(poisoned, vec![victim], "exactly the victim is poisoned");
    assert!(!run.report.cells[victim].completed);

    // The quarantine itself is durable: a fresh resume re-reads it from
    // the store instead of re-poisoning.
    let again = driver
        .run_store(&spec, ShardSpec::full(), &path, &journal(|_| {}))
        .expect("post-quarantine resume");
    assert!(again.poisoned.is_empty(), "already quarantined, not again");
    assert_eq!(again.report, run.report);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attempt_records_never_surface_as_rows() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let dir = scratch("attempts");
    let path = dir.join("sweep.store");

    // One crash leaves an attempt with no row; a cut run adds an
    // attempt per finished cell.
    let _ = driver.run_store(
        &spec,
        ShardSpec::full(),
        &path,
        &journal(|o| o.crash_cell = Some(1)),
    );
    driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &journal(|o| o.limit = Some(3)),
        )
        .expect("partial run");
    let salvage = read_store(&path).expect("read");
    assert_eq!(salvage.attempts, vec![0, 1, 1, 2, 3]);
    assert_eq!(
        salvage.dropped_bytes, 0,
        "attempt records are not torn tail"
    );
    let cells: Vec<usize> = salvage.cells.iter().map(|c| c.cell).collect();
    assert_eq!(cells, vec![0, 1, 2, 3], "only completions are rows");
    assert_eq!(salvage.to_shard_report().cells.len(), 4);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_store_bytes_equal_the_store_writer_sequence() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let cells = driver
        .run_shard(&spec, ShardSpec::full())
        .expect("straight run")
        .cells;
    let header = StoreHeader {
        spec_name: spec.name.clone(),
        spec_digest: spec.digest(),
        total_cells: cells.len(),
        shard_index: 1,
        shard_count: 1,
        columns: schema_names(),
    };
    let dir = scratch("replica");
    let replica = dir.join("replica.store");
    let driven = dir.join("driven.store");

    for cut in [None, Some(1), Some(cells.len() / 2)] {
        let mut w = StoreWriter::create(&replica, &header).expect("create");
        for (i, cell) in cells.iter().enumerate() {
            if Some(i) == cut {
                w.flush().expect("flush");
                w = StoreWriter::open_append(&replica).expect("reopen");
            }
            w.append_cell(cell).expect("append");
        }
        w.flush().expect("flush");
        drop(w);

        let _ = std::fs::remove_file(&driven);
        if let Some(cut) = cut {
            let opts = StoreOptions {
                limit: Some(cut),
                ..Default::default()
            };
            driver
                .run_store(&spec, ShardSpec::full(), &driven, &opts)
                .expect("cut run");
        }
        let run = driver
            .run_store(&spec, ShardSpec::full(), &driven, &StoreOptions::default())
            .expect("run");
        assert_eq!(run.report.cells, cells);
        assert_eq!(
            std::fs::read(&driven).expect("driven bytes"),
            std::fs::read(&replica).expect("replica bytes"),
            "group-commit bytes, cut {cut:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_request_stops_at_a_resumable_cut() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let dir = scratch("drain");
    let path = dir.join("sweep.store");

    // A drain flag raised before the run claims any cell: nothing
    // executes, everything remains, and the store is still resumable.
    static RAISED: AtomicBool = AtomicBool::new(true);
    let drained = driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &journal(|o| o.cancel = Some(&RAISED)),
        )
        .expect("drained run");
    assert!(drained.drained);
    assert_eq!(drained.remaining, spec.num_cells());
    assert!(drained.report.cells.is_empty());

    // Partially complete, then drain, then finish: still the same bytes.
    let partial = driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &journal(|o| o.limit = Some(3)),
        )
        .expect("partial run");
    assert_eq!(partial.report.cells.len(), 3);
    let drained = driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &journal(|o| o.cancel = Some(&RAISED)),
        )
        .expect("drained resume");
    assert!(drained.drained);
    assert_eq!(drained.salvaged_rows, 3, "drain must not lose salvage");
    assert_eq!(run_to_completion(&driver, &spec, &path), reference);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_shards_merge_byte_identical_to_the_unsharded_run() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let dir = scratch("shards");

    let mut shards = Vec::new();
    for k in 1..=2usize {
        let path = dir.join(format!("shard{k}.store"));
        let shard = ShardSpec::new(k, 2).unwrap();
        // Interrupt each shard once mid-way before finishing it, so the
        // merged result also exercises salvage.
        let _ = driver
            .run_store(&spec, shard, &path, &journal(|o| o.limit = Some(1)))
            .expect("partial shard");
        let done = driver
            .run_store(&spec, shard, &path, &journal(|_| {}))
            .expect("finished shard");
        assert_eq!(done.remaining, 0);
        // Stores merge directly: the report is compiled from the store
        // bytes, not from a separately written JSON artifact.
        shards.push(read_store(&path).expect("read").to_shard_report());
    }
    let merged = bytes(&merge_shards(&shards).expect("merge"));
    assert_eq!(
        merged, reference,
        "per-cell-commit shards must merge byte-identically"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_resume_refuses_foreign_spec_and_geometry() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let dir = scratch("mismatch");
    let path = dir.join("sweep.store");
    let _ = driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &journal(|o| o.limit = Some(1)),
        )
        .expect("seed store");

    let foreign = CampaignSpec::from_json(&SPEC_JSON.replace("0.05", "0.25")).unwrap();
    let err = driver
        .run_store(&foreign, ShardSpec::full(), &path, &journal(|_| {}))
        .expect_err("foreign spec must be refused")
        .to_string();
    assert!(err.contains("different campaign"), "{err}");

    let err = driver
        .run_store(
            &spec,
            ShardSpec::new(2, 2).unwrap(),
            &path,
            &journal(|_| {}),
        )
        .expect_err("different geometry must be refused")
        .to_string();
    assert!(err.contains("shard"), "{err}");

    // A file in the retired journal format is refused by name.
    let old = dir.join("old.journal");
    std::fs::write(&old, b"HELIOSJ1\x10\x00\x00\x00").unwrap();
    let err = driver
        .run_store(&spec, ShardSpec::full(), &old, &journal(|_| {}))
        .expect_err("a HELIOSJ1 journal must be refused")
        .to_string();
    assert!(err.contains("HELIOSJ1"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Resume identity across worker counts, commit modes and shard
    /// partitions: for random seeds and cut points, interrupting at the
    /// cut and resuming yields the same merged bytes as the run that
    /// was never interrupted — with `--jobs 1` and `--jobs 4`, unsharded
    /// and as a 2-shard partition.
    #[test]
    fn interrupted_journal_runs_converge_to_the_uninterrupted_bytes(
        base in 0u64..500,
        cut in 1usize..7,
        four_jobs: bool,
        per_cell: bool,
    ) {
        let jobs = if four_jobs { 4usize } else { 1 };
        let commit = if per_cell { Commit::PerCell } else { Commit::Group };
        let json = SPEC_JSON.replace(r#""base": 7"#, &format!(r#""base": {base}"#));
        let spec = CampaignSpec::from_json(&json).expect("generated spec");
        let reference = bytes(&SweepDriver::new(1).run(&spec).expect("reference"));
        let driver = SweepDriver::new(jobs);
        let dir = scratch(&format!("prop-{base}-{cut}-{jobs}-{per_cell}"));
        let opts = |limit: Option<usize>| journal(|o| {
            o.commit = commit;
            o.limit = limit;
        });

        // Unsharded: interrupt after `cut` cells, then resume.
        let path = dir.join("full.store");
        let _ = driver.run_store(&spec, ShardSpec::full(), &path, &opts(Some(cut)))
            .expect("partial");
        let done = driver.run_store(&spec, ShardSpec::full(), &path, &opts(None))
            .expect("resumed");
        prop_assert_eq!(done.remaining, 0);
        prop_assert_eq!(&bytes(&merge_shards(&[done.report]).expect("merge")), &reference);

        // 2-shard partition, each shard interrupted once.
        let mut shards = Vec::new();
        for k in 1..=2usize {
            let path = dir.join(format!("s{k}.store"));
            let shard = ShardSpec::new(k, 2).unwrap();
            let _ = driver.run_store(&spec, shard, &path, &opts(Some(cut.min(2))))
                .expect("partial shard");
            let done = driver
                .run_store(&spec, shard, &path, &opts(None))
                .expect("finished shard");
            prop_assert_eq!(done.remaining, 0);
            shards.push(done.report);
        }
        let merged = bytes(&merge_shards(&shards).expect("merge"));
        prop_assert_eq!(&merged, &reference);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
