//! Negative-validation property tests for the campaign spec surface the
//! fuzz harness generates over, and for the `helios query` expression
//! language: every malformed input must come back as a *typed*
//! [`CampaignError`] naming the offending field (or token) — never a
//! panic, and never a silent acceptance. This is the flip side of the
//! generator's valid-by-construction guarantee: `helios fuzz` only
//! explores legal specs, so this test patrols the illegal border.

use proptest::prelude::*;

use helios_core::{run_query, CampaignError, CampaignSpec, EngineError};

/// A minimal valid spec with a hole for extra top-level fields.
fn spec_with(extra: &str) -> String {
    format!(
        r#"{{
            "name": "negative",
            "families": ["montage"],
            "platforms": ["workstation"],
            "schedulers": ["heft"],
            "seeds": {{"base": 0, "count": 1}},
            "tasks": 16{extra}
        }}"#
    )
}

/// Garbage identifiers substituted for family / platform / scheduler /
/// kind names; indexed by the proptest-drawn `tag`.
const BAD_NAMES: [&str; 5] = ["", "frobnicate", "HEFT ", "montage2", "no-such-thing"];

/// One corruption class: a label, the corrupted spec JSON, and a
/// needle the error message must contain (the offending field).
struct Corruption {
    label: &'static str,
    json: String,
    needle: &'static str,
}

/// Every corruption class, parameterized on a garbage name and a
/// poison number so repeated cases probe different illegal values.
fn corruptions(bad: &str, poison: f64) -> Vec<Corruption> {
    let resilience_with = |policy: &str| {
        spec_with(&format!(
            r#", "resilience": {{"mttf_secs": 50.0, "policy": {policy}}}"#
        ))
    };
    vec![
        Corruption {
            label: "unknown family",
            json: spec_with("").replace("montage", bad),
            needle: "family",
        },
        Corruption {
            label: "unknown platform",
            json: spec_with("").replace("workstation", bad),
            needle: "platform",
        },
        Corruption {
            label: "unknown scheduler",
            json: spec_with("").replace("heft", bad),
            needle: "scheduler",
        },
        Corruption {
            label: "empty families axis",
            json: spec_with("").replace(r#"["montage"]"#, "[]"),
            needle: "families",
        },
        Corruption {
            label: "zero seed count",
            json: spec_with("").replace(r#""count": 1"#, r#""count": 0"#),
            needle: "seeds.count",
        },
        Corruption {
            label: "zero tasks",
            json: spec_with("").replace(r#""tasks": 16"#, r#""tasks": 0"#),
            needle: "tasks",
        },
        Corruption {
            label: "negative noise_cv",
            json: spec_with(&format!(r#", "noise_cv": -{poison}"#)),
            needle: "noise_cv",
        },
        Corruption {
            label: "unknown dvfs level",
            json: spec_with(&format!(r#", "dvfs": "{bad}""#)),
            needle: "dvfs",
        },
        Corruption {
            label: "zero cell_step_budget",
            json: spec_with(r#", "cell_step_budget": 0"#),
            needle: "cell_step_budget",
        },
        Corruption {
            label: "zero annealing iterations",
            json: spec_with(r#", "scheduler_params": {"annealing_iterations": 0}"#),
            needle: "annealing_iterations",
        },
        Corruption {
            label: "faults and resilience together",
            json: spec_with(
                r#", "faults": {"mtbf_secs": 100.0},
                   "resilience": {"mttf_secs": 50.0,
                                  "policy": {"kind": "retry-backoff", "base_secs": 0,
                                             "factor": 1, "cap_secs": 0, "max_retries": 3}}"#,
            ),
            needle: "mutually exclusive",
        },
        Corruption {
            label: "negative fault mtbf",
            json: spec_with(&format!(r#", "faults": {{"mtbf_secs": -{poison}}}"#)),
            needle: "mtbf_secs",
        },
        Corruption {
            label: "interconnect faults without resilience",
            json: spec_with(
                r#", "interconnect_faults": {"distribution": "exponential",
                                             "mttf_secs": 100.0}"#,
            ),
            needle: "resilience",
        },
        Corruption {
            label: "failure domains without resilience",
            json: spec_with(
                r#", "failure_domains": [{"kind": "rack", "name": "r0",
                                          "devices": ["cpu0"], "mttf_secs": 100.0}]"#,
            ),
            needle: "resilience",
        },
        Corruption {
            label: "unknown policy kind",
            json: resilience_with(&format!(r#"{{"kind": "{bad}"}}"#)),
            needle: "kind",
        },
        Corruption {
            label: "single-copy replication",
            json: resilience_with(r#"{"kind": "replicate-k", "replicas": 1, "max_retries": 3}"#),
            needle: "replicas",
        },
        Corruption {
            label: "non-positive checkpoint interval",
            json: resilience_with(
                r#"{"kind": "checkpoint-restart", "interval_secs": 0,
                    "overhead_secs": 1, "max_retries": 3}"#,
            ),
            needle: "interval_secs",
        },
        Corruption {
            label: "dangling domain device",
            json: spec_with(&format!(
                r#", "resilience": {{"mttf_secs": 50.0,
                                     "policy": {{"kind": "retry-backoff", "base_secs": 0,
                                                 "factor": 1, "cap_secs": 0, "max_retries": 3}}}},
                    "failure_domains": [{{"kind": "rack", "name": "r0",
                                          "devices": ["{bad}"], "mttf_secs": 100.0}}]"#
            )),
            needle: "unknown device",
        },
        Corruption {
            label: "unknown domain kind",
            json: spec_with(&format!(
                r#", "resilience": {{"mttf_secs": 50.0,
                                     "policy": {{"kind": "retry-backoff", "base_secs": 0,
                                                 "factor": 1, "cap_secs": 0, "max_retries": 3}}}},
                    "failure_domains": [{{"kind": "{bad}", "name": "r0",
                                          "devices": ["cpu0"], "mttf_secs": 100.0}}]"#
            )),
            needle: "kind",
        },
        Corruption {
            label: "duplicate domain names",
            json: spec_with(
                r#", "resilience": {"mttf_secs": 50.0,
                                    "policy": {"kind": "retry-backoff", "base_secs": 0,
                                               "factor": 1, "cap_secs": 0, "max_retries": 3}},
                    "failure_domains": [
                        {"kind": "rack", "name": "r0", "devices": ["cpu0"], "mttf_secs": 100.0},
                        {"kind": "rack", "name": "r0", "devices": ["cpu1"], "mttf_secs": 100.0}]"#,
            ),
            needle: "unique",
        },
        Corruption {
            label: "elasticity event names unknown device",
            json: spec_with(&format!(
                r#", "elasticity": {{"events": [{{"kind": "join", "device": "{bad}",
                                                 "at_secs": 0.5}}]}}"#
            )),
            // "" trips the engine's empty-name check, everything else
            // the per-platform resolution; both name the device field.
            needle: "device",
        },
        Corruption {
            label: "negative elasticity event time",
            json: spec_with(&format!(
                r#", "elasticity": {{"events": [{{"kind": "join", "device": "cpu0",
                                                 "at_secs": -{poison}}}]}}"#
            )),
            needle: "at_secs",
        },
        Corruption {
            label: "zero preempt notice",
            json: spec_with(
                r#", "elasticity": {"events": [{"kind": "preempt", "device": "cpu0",
                                                "at_secs": 0.5, "notice_secs": 0}]}"#,
            ),
            needle: "notice_secs",
        },
        Corruption {
            label: "unknown elasticity event kind",
            json: spec_with(&format!(
                r#", "elasticity": {{"events": [{{"kind": "{bad}", "device": "cpu0",
                                                 "at_secs": 0.5}}]}}"#
            )),
            needle: "kind",
        },
        Corruption {
            label: "drain deadline not after its notice",
            json: spec_with(
                r#", "elasticity": {"events": [{"kind": "drain", "device": "cpu0",
                                                "at_secs": 0.5, "deadline_secs": 0.5}]}"#,
            ),
            needle: "deadline_secs",
        },
        Corruption {
            label: "empty elasticity block",
            json: spec_with(r#", "elasticity": {"events": [], "churn": []}"#),
            needle: "at least one",
        },
        Corruption {
            label: "faults and elasticity together",
            json: spec_with(
                r#", "faults": {"mtbf_secs": 100.0},
                   "elasticity": {"events": [{"kind": "join", "device": "cpu0",
                                              "at_secs": 0.5}]}"#,
            ),
            needle: "mutually exclusive",
        },
        Corruption {
            label: "non-positive churn period",
            json: spec_with(&format!(
                r#", "elasticity": {{"churn": [{{"device": "cpu0", "mtbp_secs": 0,
                                                "notice_secs": {poison},
                                                "rejoin_secs": {poison}}}]}}"#
            )),
            needle: "mtbp_secs",
        },
        Corruption {
            label: "truncated JSON",
            json: spec_with("").split_at(40).0.to_owned(),
            needle: "malformed",
        },
    ]
}

/// One query corruption class: a label, the corrupted expression, and
/// the exact token the typed error must name.
fn query_corruptions(bad: &str, wide: &str) -> Vec<(&'static str, String, String)> {
    vec![
        (
            "unknown projected column",
            format!("SELECT {bad}"),
            bad.to_owned(),
        ),
        (
            "unknown aggregate function",
            format!("SELECT {bad}(makespan_secs)"),
            bad.to_owned(),
        ),
        (
            "unknown WHERE column",
            format!("SELECT * WHERE {bad} = 1"),
            bad.to_owned(),
        ),
        (
            "unknown GROUP BY column",
            format!("SELECT count(*) GROUP BY {bad}"),
            bad.to_owned(),
        ),
        (
            "string literal against a numeric column",
            format!("SELECT * WHERE makespan_secs = '{bad}'"),
            format!("'{bad}'"),
        ),
        (
            "ordering comparison on a string column",
            format!("SELECT cell WHERE family < '{bad}'"),
            format!("'{bad}'"),
        ),
        (
            "grouped SELECT *",
            "SELECT * GROUP BY scheduler".into(),
            "*".into(),
        ),
        (
            "bare column mixed with an aggregate",
            "SELECT cell, count(*)".into(),
            "cell".into(),
        ),
        (
            "selected column missing from GROUP BY",
            "SELECT cell GROUP BY scheduler".into(),
            "cell".into(),
        ),
        (
            "count with an argument",
            "SELECT count(cell)".into(),
            "cell".into(),
        ),
        (
            "aggregate over a string column",
            "SELECT avg(scheduler)".into(),
            "scheduler".into(),
        ),
        (
            "frac of a non-boolean column",
            "SELECT frac(makespan_secs)".into(),
            "makespan_secs".into(),
        ),
        (
            "trailing garbage",
            format!("SELECT cell {bad}"),
            bad.to_owned(),
        ),
        (
            "unterminated string literal",
            "SELECT cell WHERE scheduler = 'oops".into(),
            "'oops".into(),
        ),
        ("empty expression", String::new(), String::new()),
        ("unknown verb", format!("{bad} *"), bad.to_owned()),
        (
            "non-ASCII character as a projection",
            format!("SELECT {wide}"),
            wide.to_owned(),
        ),
        (
            "non-ASCII character as a literal",
            format!("SELECT cell WHERE family = {wide}"),
            wide.to_owned(),
        ),
        (
            "non-ASCII character after a numeric literal",
            format!("SELECT cell WHERE cell = 1{wide}"),
            wide.to_owned(),
        ),
    ]
}

/// Garbage identifiers substituted into query expressions; indexed by
/// the proptest-drawn tag. Curated to collide with nothing legal: not a
/// column, not an aggregate function, not a keyword.
const QUERY_BAD: [&str; 5] = ["frobnicate", "median", "makespanx", "cellz", "zz_quux"];

/// Multi-byte characters outside the query alphabet (2, 3, 4, 3 and 2
/// UTF-8 bytes); indexed by the same tag as [`QUERY_BAD`]. The error
/// must name the whole character.
const QUERY_WIDE: [&str; 5] = ["é", "€", "😀", "中", "ß"];

/// Fragments arbitrary query text is assembled from, `|`-separated:
/// grammar tokens (so cases get past the tokenizer), separators,
/// quotes, numeric prefixes and non-ASCII text.
const QUERY_PIECES: &str = "SELECT|select|WHERE|AND|GROUP|BY|AS|*|,|(|)|=|!=|<|<=|>|>=|'|'heft'|\
    count|avg_completed|frac|min|cell|makespan_secs|completed|incomplete_reason|null|true|\
    1|-0|1e|-| |é|\u{0}";

/// A few valid cells for arbitrary query text to run over, so accepted
/// queries are evaluated too.
fn query_cells() -> Vec<helios_core::CellResult> {
    use helios_core::store::{cell_from_row, Column, ColumnType, Value};
    (0..3u64)
        .map(|i| {
            let row: Vec<Value> = Column::ALL
                .iter()
                .map(|&col| match col.column_type() {
                    ColumnType::U64 => Value::U64(i),
                    ColumnType::U32 => Value::U32(1),
                    ColumnType::F64 => Value::F64(if i == 1 { f64::NAN } else { 0.5 }),
                    ColumnType::Bool => Value::Bool(i != 2),
                    ColumnType::Str => Value::Str("heft".into()),
                    ColumnType::OptStr => Value::Null,
                })
                .collect();
            cell_from_row(&row).expect("schema-shaped row")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(BAD_NAMES.len() as u32))]

    /// Every corruption class yields a typed campaign error whose
    /// message names the offending field — across a spread of garbage
    /// names and poison values, and never a panic.
    #[test]
    fn malformed_specs_fail_typed_and_named(
        tag in 0usize..BAD_NAMES.len(),
        poison in 0.5f64..1e6,
    ) {
        for c in corruptions(BAD_NAMES[tag], poison) {
            let err = match CampaignSpec::from_json(&c.json) {
                Err(e) => e,
                Ok(_) => panic!("{}: corrupted spec was accepted:\n{}", c.label, c.json),
            };
            prop_assert!(
                matches!(
                    err,
                    EngineError::Campaign(
                        CampaignError::MalformedSpec(_) | CampaignError::InvalidSpec { .. }
                    )
                ),
                "{}: wrong error type: {err:?}",
                c.label
            );
            let msg = err.to_string();
            prop_assert!(
                msg.contains(c.needle),
                "{}: error does not name {:?}: {msg}",
                c.label,
                c.needle
            );
        }
    }

    /// Every query corruption class yields a typed [`InvalidQuery`]
    /// error carrying exactly the offending token — across a spread of
    /// garbage identifiers, and never a panic.
    #[test]
    fn malformed_queries_fail_typed_and_name_the_token(tag in 0usize..QUERY_BAD.len()) {
        let bad = QUERY_BAD[tag];
        prop_assert!(helios_core::store::Column::by_name(bad).is_none());
        for (label, expr, want) in query_corruptions(bad, QUERY_WIDE[tag]) {
            let err = match run_query(&expr, &[]) {
                Err(e) => e,
                Ok(_) => panic!("{label}: corrupted query was accepted: {expr:?}"),
            };
            let token = match &err {
                EngineError::Campaign(CampaignError::InvalidQuery { token, .. }) => token.clone(),
                other => panic!("{label}: wrong error type: {other:?}"),
            };
            prop_assert_eq!(
                &token, &want,
                "{}: error names token {:?}, expected {:?} ({})",
                label, token, want, err
            );
            let msg = err.to_string();
            prop_assert!(
                msg.contains("invalid query at"),
                "{}: message is not the typed rendering: {msg}",
                label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary query text — grammar fragments and arbitrary Unicode
    /// scalar values in any order — is either answered or refused with
    /// a typed [`InvalidQuery`], never a panic.
    #[test]
    fn arbitrary_query_text_never_panics(
        items in prop::collection::vec(0u64..u64::MAX, 0..24),
    ) {
        let pieces: Vec<&str> = QUERY_PIECES.split('|').collect();
        let mut text = String::new();
        for item in items {
            if item % 3 == 0 {
                text.extend(char::from_u32(((item >> 2) % 0x11_0000) as u32));
            } else {
                text.push_str(pieces[((item >> 2) % pieces.len() as u64) as usize]);
            }
        }
        match run_query(&text, &query_cells()) {
            Ok(_) | Err(EngineError::Campaign(CampaignError::InvalidQuery { .. })) => {}
            Err(other) => panic!("query {text:?} failed with an untyped error: {other:?}"),
        }
    }
}
