//! End-to-end crash tests of the compiled `helios` binary: SIGTERM
//! drain, torn-write injection + `campaign recover`, attempt records
//! staying out of merge and query, the `--out` clobber guard, and the
//! typed refusal of retired `HELIOSJ1` journals.

use std::process::Command;

fn helios() -> Command {
    Command::new(env!("CARGO_BIN_EXE_helios"))
}

const SPEC_JSON: &str = r#"{
    "name": "crash-cli",
    "families": ["sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft"],
    "seeds": {"base": 11, "count": 4},
    "tasks": 20
}"#;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-crashcli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sigterm_drains_to_a_resumable_journal() {
    let dir = fresh_dir("sigterm");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    // Enough cells that the run is still going ~0.3 s in (debug binary).
    std::fs::write(
        dir.join("spec.json"),
        SPEC_JSON.replace(r#""count": 4"#, r#""count": 2000"#),
    )
    .unwrap();

    let reference = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("ref.json"),
        ])
        .output()
        .unwrap();
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    let child = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
            "--out",
            &path("out.json"),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status();
    let out = child.wait_with_output().unwrap();

    match out.status.code() {
        // Drained: exit code 3, resumable message, store intact.
        Some(3) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("re-run with the same --journal"),
                "{stderr}"
            );
            let resume = helios()
                .args([
                    "campaign",
                    "run",
                    "--spec",
                    &path("spec.json"),
                    "--journal",
                    &path("sweep.journal"),
                    "--out",
                    &path("out.json"),
                ])
                .output()
                .unwrap();
            assert!(
                resume.status.success(),
                "{}",
                String::from_utf8_lossy(&resume.stderr)
            );
        }
        // The run beat the signal: fine, it must simply have finished.
        Some(0) => {}
        other => panic!(
            "expected drain (3) or completion (0), got {other:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        ),
    }
    assert_eq!(
        std::fs::read_to_string(path("out.json")).unwrap(),
        std::fs::read_to_string(path("ref.json")).unwrap(),
        "drained-and-resumed bytes must equal the uninterrupted run"
    );
}

#[test]
fn torn_write_is_salvaged_by_recover_and_resumes_byte_identically() {
    let dir = fresh_dir("torn");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();

    let reference = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("ref.json"),
        ])
        .output()
        .unwrap();
    assert!(reference.status.success());

    // Tear the 4th record append (the second cell's one-row group)
    // halfway through its bytes.
    let torn = helios()
        .env("HELIOS_JOURNAL_TORN_WRITE", "3")
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
        ])
        .output()
        .unwrap();
    assert_eq!(torn.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&torn.stderr);
    assert!(stderr.contains("injected torn store write"), "{stderr}");

    let recover = helios()
        .args(["campaign", "recover", &path("sweep.journal")])
        .output()
        .unwrap();
    assert!(
        recover.status.success(),
        "{}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let stdout = String::from_utf8_lossy(&recover.stdout);
    assert!(stdout.contains("torn byte(s)"), "{stdout}");
    assert!(stdout.contains("resume with"), "{stdout}");

    let resume = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
            "--out",
            &path("out.json"),
        ])
        .output()
        .unwrap();
    assert!(
        resume.status.success(),
        "{}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(path("out.json")).unwrap(),
        std::fs::read_to_string(path("ref.json")).unwrap()
    );

    // The per-cell-commit store merges directly, producing the same
    // bytes.
    let merge = helios()
        .args([
            "campaign",
            "merge",
            "--in",
            &path("sweep.journal"),
            "--out",
            &path("merged.json"),
        ])
        .output()
        .unwrap();
    assert!(
        merge.status.success(),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(path("merged.json")).unwrap(),
        std::fs::read_to_string(path("ref.json")).unwrap()
    );
}

#[test]
fn attempt_records_stay_out_of_merge_and_query() {
    let dir = fresh_dir("attempts");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    let run = |args: &[&str]| helios().args(args).output().unwrap();

    let reference = run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--out",
        &path("ref.json"),
    ]);
    assert!(reference.status.success());

    // Crash once on cell 1 after its attempt record, then finish: the
    // store holds five attempts but only four rows.
    let crashed = helios()
        .env("HELIOS_JOURNAL_CRASH_CELL", "1")
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.store"),
        ])
        .output()
        .unwrap();
    assert_eq!(crashed.status.code(), Some(1));
    let recover = run(&["campaign", "recover", &path("sweep.store")]);
    let stdout = String::from_utf8_lossy(&recover.stdout);
    assert!(
        stdout.contains("cell 1: 1 attempt(s) without a row"),
        "{stdout}"
    );
    let done = run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--journal",
        &path("sweep.store"),
    ]);
    assert!(done.status.success());

    let merge = run(&[
        "campaign",
        "merge",
        "--in",
        &path("sweep.store"),
        "--out",
        &path("merged.json"),
    ]);
    assert!(
        merge.status.success(),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    assert_eq!(
        std::fs::read(path("merged.json")).unwrap(),
        std::fs::read(path("ref.json")).unwrap()
    );
    let query = run(&[
        "query",
        "SELECT cell, count(*) GROUP BY cell",
        "--in",
        &path("sweep.store"),
        "--json",
    ]);
    assert!(
        query.status.success(),
        "{}",
        String::from_utf8_lossy(&query.stderr)
    );
    let stdout = String::from_utf8_lossy(&query.stdout);
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains('{')).collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    assert!(
        rows.iter().all(|l| l.contains("\"count(*)\": 1")),
        "{stdout}"
    );
}

#[test]
fn out_refuses_to_overwrite_durable_files() {
    let dir = fresh_dir("outguard");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    let run = |args: &[&str]| helios().args(args).output().unwrap();

    let stored = run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--store",
        &path("cells.store"),
    ]);
    assert!(stored.status.success());
    std::fs::write(path("old.journal"), b"HELIOSJ1 and then some bytes").unwrap();
    for target in ["cells.store", "old.journal"] {
        let before = std::fs::read(path(target)).unwrap();
        for args in [
            vec!["campaign", "run", "--spec", &path("spec.json")],
            vec!["campaign", "merge", "--in", &path("cells.store")],
        ] {
            let mut args = args.clone();
            let target = path(target);
            args.extend(["--out", &target]);
            let refused = run(&args);
            assert_eq!(refused.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&refused.stderr);
            assert!(stderr.contains("refusing to overwrite"), "{stderr}");
        }
        assert_eq!(std::fs::read(path(target)).unwrap(), before);
    }

    // A JSON view is overwritten, not resumed: a stale or foreign file
    // at --out is simply replaced.
    std::fs::write(path("view.json"), "{\"stale\": true}").unwrap();
    let out = run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--out",
        &path("view.json"),
    ]);
    assert!(out.status.success());
    assert!(std::fs::read_to_string(path("view.json"))
        .unwrap()
        .contains("\"spec_name\": \"crash-cli\""));
}

#[test]
fn retired_journal_files_get_a_typed_error_everywhere() {
    let dir = fresh_dir("retired");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    // A HELIOSJ1 magic followed by a (torn) header record.
    std::fs::write(path("old.journal"), b"HELIOSJ1\x20\x00\x00\x00\x01\x02").unwrap();
    let old = path("old.journal");
    let spec = path("spec.json");
    let cases: [&[&str]; 5] = [
        &["campaign", "run", "--spec", &spec, "--journal", &old],
        &["campaign", "run", "--spec", &spec, "--store", &old],
        &["campaign", "merge", "--in", &old],
        &["query", "SELECT count(*)", "--in", &old],
        &["campaign", "recover", &old],
    ];
    for args in cases {
        let out = helios().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("corrupt resume file"), "{args:?}: {stderr}");
        assert!(stderr.contains("HELIOSJ1"), "{args:?}: {stderr}");
    }
}
