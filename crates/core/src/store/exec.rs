//! The single-pass query evaluator over borrowed cells.
//!
//! A query is one pass over `&CellResult`s: keep the cells every
//! [`Predicate`] accepts, then either [`project`] them onto columns or
//! [`aggregate`] them into groups. Every column read goes through
//! [`cell_value`], which borrows strings from the cell, so the only
//! owned [`Value`]s ever built are the output rows. Three callers share
//! the pass: `summarize` (a fixed group-by, see [`summarize_cells`]),
//! `campaign merge` (which recomputes the summary through it), and
//! `helios query` (which compiles user expressions onto it). The
//! sweep's aggregation math — first-seen group order, completed-only
//! means, null means for groups with no completed cell — therefore
//! exists exactly once, here.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::campaign::sweep::{CellResult, SummaryRow};

use super::schema::{
    cell_value, summary_row_from_values, Column, Row, SummaryAgg, Value, ValueRef,
    SUMMARY_AGGREGATES, SUMMARY_KEYS,
};

/// A comparison operator in a filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A literal on the right-hand side of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A numeric literal, compared against any numeric column.
    Num(f64),
    /// A string literal.
    Str(String),
    /// A boolean literal.
    Bool(bool),
    /// The `null` literal (only `=`/`!=`, only nullable columns).
    Null,
}

/// One `column op literal` conjunct of a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The column under test.
    pub col: Column,
    /// The comparison.
    pub op: CmpOp,
    /// The right-hand literal.
    pub literal: Literal,
}

impl Predicate {
    /// Whether `cell` satisfies this predicate. Type agreement is the
    /// planner's job; a value/literal mismatch that slips through
    /// compares as not-equal, never panics.
    #[must_use]
    pub fn matches(&self, cell: &CellResult) -> bool {
        let value = cell_value(cell, self.col);
        let rhs = match &self.literal {
            Literal::Num(rhs) => {
                return match value.as_f64() {
                    Some(lhs) => match self.op {
                        CmpOp::Eq => lhs == *rhs,
                        CmpOp::Ne => lhs != *rhs,
                        CmpOp::Lt => lhs < *rhs,
                        CmpOp::Le => lhs <= *rhs,
                        CmpOp::Gt => lhs > *rhs,
                        CmpOp::Ge => lhs >= *rhs,
                    },
                    None => self.op == CmpOp::Ne,
                }
            }
            Literal::Str(rhs) => ValueRef::Str(rhs),
            Literal::Bool(rhs) => ValueRef::Bool(*rhs),
            Literal::Null => ValueRef::Null,
        };
        // Non-numeric columns only compare for (in)equality.
        (value == rhs) == (self.op == CmpOp::Eq)
    }
}

/// An aggregation over one column (or the whole row for
/// [`Agg::CountStar`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Row count of the group.
    CountStar,
    /// Sum of a numeric column; null over zero rows.
    Sum(Column),
    /// Mean of a numeric column; null over zero rows.
    Avg(Column),
    /// Minimum of a numeric column; null over zero rows.
    Min(Column),
    /// Maximum of a numeric column; null over zero rows.
    Max(Column),
    /// Mean of `metric` over rows where the boolean `completed`
    /// column is true; null when none are — the sweep's null-mean
    /// semantics.
    AvgCompleted {
        /// The numeric column being averaged.
        metric: Column,
        /// The boolean column gating contribution.
        completed: Column,
    },
    /// Fraction of the group's rows where the boolean column is true.
    CompletedFrac(Column),
}

/// A running accumulator for one [`Agg`] in one group. Sums are added
/// in input-row order, so float results are bit-identical to the
/// legacy sequential loop.
#[derive(Debug, Clone, Copy)]
struct Accum {
    sum: f64,
    n: u64,
    rows: u64,
    min: f64,
    max: f64,
}

impl Accum {
    const NEW: Accum = Accum {
        sum: 0.0,
        n: 0,
        rows: 0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn feed(&mut self, agg: Agg, cell: &CellResult) {
        self.rows += 1;
        match agg {
            Agg::CountStar => {}
            Agg::Sum(col) | Agg::Avg(col) | Agg::Min(col) | Agg::Max(col) => {
                if let Some(v) = cell_value(cell, col).as_f64() {
                    self.sum += v;
                    self.n += 1;
                    self.min = self.min.min(v);
                    self.max = self.max.max(v);
                }
            }
            Agg::AvgCompleted { metric, completed } => {
                if cell_value(cell, completed) == ValueRef::Bool(true) {
                    if let Some(v) = cell_value(cell, metric).as_f64() {
                        self.sum += v;
                        self.n += 1;
                    }
                }
            }
            Agg::CompletedFrac(col) => {
                if cell_value(cell, col) == ValueRef::Bool(true) {
                    self.n += 1;
                }
            }
        }
    }

    fn finish(&self, agg: Agg) -> Value {
        let some = |v: f64| {
            if self.n > 0 {
                Value::F64(v)
            } else {
                Value::Null
            }
        };
        match agg {
            Agg::CountStar => Value::U64(self.rows),
            Agg::Sum(_) => some(self.sum),
            Agg::Avg(_) | Agg::AvgCompleted { .. } => some(self.sum / self.n as f64),
            Agg::Min(_) => some(self.min),
            Agg::Max(_) => some(self.max),
            Agg::CompletedFrac(_) => {
                if self.rows > 0 {
                    Value::F64(self.n as f64 / self.rows as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Projects each cell onto `cols`, as owned rows in input order.
#[must_use]
pub fn project<'a>(cells: impl IntoIterator<Item = &'a CellResult>, cols: &[Column]) -> Vec<Row> {
    cells
        .into_iter()
        .map(|cell| {
            cols.iter()
                .map(|&c| cell_value(cell, c).to_value())
                .collect()
        })
        .collect()
}

/// One component of a group key in the hashed group index. Equality
/// is `Value ==`: ±0.0 are equal (and hash alike), NaN equals nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KeyPart<'a>(ValueRef<'a>);

impl KeyPart<'_> {
    fn is_nan(&self) -> bool {
        matches!(self.0, ValueRef::F64(v) if v.is_nan())
    }
}

/// `==` is reflexive on every key the index holds: a key with a NaN
/// component never enters it.
impl Eq for KeyPart<'_> {}

impl Hash for KeyPart<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.0 {
            ValueRef::U64(v) => v.hash(state),
            ValueRef::U32(v) => v.hash(state),
            ValueRef::F64(v) => (if v == 0.0 { 0 } else { v.to_bits() }).hash(state),
            ValueRef::Bool(v) => v.hash(state),
            ValueRef::Str(v) => v.hash(state),
            ValueRef::Null => {}
        }
    }
}

/// Groups `cells` by the `keys` columns and computes `aggs` in one
/// pass. Output rows are the group-key values followed by one value
/// per aggregate.
///
/// Groups appear in first-seen input order (the sweep's
/// spec-declaration order, since cells arrive sorted by index), and a
/// group prints the key values it was first seen with. Key equality is
/// `Value ==`: `-0.0` and `0.0` are one group, and a key holding a NaN
/// matches nothing, so each such row opens a group of its own. A row
/// tries the previous row's group first, then a hash index from key to
/// group slot. Accumulators are fed in input order, so float sums are
/// bit-identical to a sequential loop. With no keys the result is
/// exactly one global row, even over no cells.
#[must_use]
pub fn aggregate<'a>(
    cells: impl IntoIterator<Item = &'a CellResult>,
    keys: &[Column],
    aggs: &[Agg],
) -> Vec<Row> {
    // Group g's key is group_keys[g * keys.len()..][..keys.len()] and its
    // accumulators accums[g * aggs.len()..][..aggs.len()].
    let mut group_keys: Vec<KeyPart<'a>> = Vec::new();
    let mut accums: Vec<Accum> = Vec::new();
    let mut index: HashMap<Vec<KeyPart<'a>>, usize> = HashMap::new();
    let mut groups = 0;
    let mut last: Option<usize> = None;
    let mut key: Vec<KeyPart<'a>> = Vec::with_capacity(keys.len());
    for cell in cells {
        // Equal keys come in runs (cells arrive in expansion order), so
        // the previous row's group is tried before the index.
        let same_as = |g: usize| {
            let stored = &group_keys[g * keys.len()..][..keys.len()];
            keys.iter()
                .zip(stored)
                .all(|(&c, k)| cell_value(cell, c) == k.0)
        };
        let g = match last.filter(|&g| same_as(g)) {
            Some(g) => g,
            None => {
                key.clear();
                key.extend(keys.iter().map(|&c| KeyPart(cell_value(cell, c))));
                match index.get(&key) {
                    Some(&g) => g,
                    None => {
                        if !key.iter().any(KeyPart::is_nan) {
                            index.insert(key.clone(), groups);
                        }
                        group_keys.extend_from_slice(&key);
                        accums.extend(aggs.iter().map(|_| Accum::NEW));
                        groups += 1;
                        groups - 1
                    }
                }
            }
        };
        last = Some(g);
        for (accum, &agg) in accums[g * aggs.len()..][..aggs.len()].iter_mut().zip(aggs) {
            accum.feed(agg, cell);
        }
    }
    if groups == 0 && keys.is_empty() {
        // A global aggregate always has one row: count 0, null
        // everything else.
        groups = 1;
        accums.extend(aggs.iter().map(|_| Accum::NEW));
    }
    (0..groups)
        .map(|g| {
            let key = group_keys[g * keys.len()..][..keys.len()].iter();
            let accum = accums[g * aggs.len()..][..aggs.len()].iter();
            key.map(|k| k.0.to_value())
                .chain(accum.zip(aggs).map(|(a, &agg)| a.finish(agg)))
                .collect()
        })
        .collect()
}

fn summary_agg(agg: SummaryAgg) -> Agg {
    match agg {
        SummaryAgg::Count => Agg::CountStar,
        SummaryAgg::MeanCompleted(col) => Agg::AvgCompleted {
            metric: col,
            completed: Column::Completed,
        },
        SummaryAgg::CompletedFraction => Agg::CompletedFrac(Column::Completed),
    }
}

/// The sweep summary as one aggregation pass: group the cells by
/// `SUMMARY_KEYS`, compute `SUMMARY_AGGREGATES`. This *is* the
/// `summarize` every caller (merge, sweep reports, the CLI, `helios
/// query`) shares; its output is field-for-field the legacy
/// sequential loop.
#[must_use]
pub fn summarize_cells(cells: &[CellResult]) -> Vec<SummaryRow> {
    let keys = SUMMARY_KEYS.map(|(c, _)| c);
    let aggs = SUMMARY_AGGREGATES.map(|c| summary_agg(c.agg));
    aggregate(cells, &keys, &aggs)
        .iter()
        .map(|row| {
            summary_row_from_values(row).expect("the summary pass emits summary-shaped rows")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(i: usize, scheduler: &str, completed: bool, makespan: f64) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: scheduler.into(),
            seed: i as u64,
            makespan_secs: makespan,
            slr: makespan / 2.0,
            energy_j: makespan * 3.0,
            transfers: 1,
            transfer_bytes: 10.0,
            failures: 0,
            retries: 0,
            completed,
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            makespan_degradation: 0.0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            incomplete_reason: if completed {
                None
            } else {
                Some("lost_workload".into())
            },
            capacity_secs: 0.0,
            preemptions: 0,
            drain_migrated_tasks: 0,
            join_utilization: 0.0,
        }
    }

    #[test]
    fn filter_project_pipeline_selects_rows() {
        let cells = [
            cell(0, "heft", true, 4.0),
            cell(1, "olb", true, 9.0),
            cell(2, "heft", false, 5.0),
        ];
        let filter = Predicate {
            col: Column::Scheduler,
            op: CmpOp::Eq,
            literal: Literal::Str("heft".into()),
        };
        let plan = || {
            project(
                cells.iter().filter(|c| filter.matches(c)),
                &[Column::Cell, Column::MakespanSecs],
            )
        };
        let rows = plan();
        assert_eq!(
            rows,
            vec![
                vec![Value::U64(0), Value::F64(4.0)],
                vec![Value::U64(2), Value::F64(5.0)],
            ]
        );
        // The pass borrows its input, so running it again is a rewind.
        assert_eq!(plan().len(), 2);
    }

    #[test]
    fn predicates_cover_ordering_strings_bools_and_null() {
        let cells = [cell(0, "heft", true, 4.0), cell(1, "olb", false, 9.0)];
        let pred = |col: Column, op, literal| Predicate { col, op, literal };
        assert!(pred(Column::MakespanSecs, CmpOp::Lt, Literal::Num(5.0)).matches(&cells[0]));
        assert!(!pred(Column::MakespanSecs, CmpOp::Ge, Literal::Num(5.0)).matches(&cells[0]));
        assert!(pred(Column::Completed, CmpOp::Eq, Literal::Bool(true)).matches(&cells[0]));
        assert!(pred(Column::IncompleteReason, CmpOp::Eq, Literal::Null).matches(&cells[0]));
        assert!(!pred(Column::IncompleteReason, CmpOp::Eq, Literal::Null).matches(&cells[1]));
        assert!(pred(
            Column::IncompleteReason,
            CmpOp::Eq,
            Literal::Str("lost_workload".into())
        )
        .matches(&cells[1]));
        // A null value never equals a string literal, and != is true.
        assert!(!pred(
            Column::IncompleteReason,
            CmpOp::Eq,
            Literal::Str("lost_workload".into())
        )
        .matches(&cells[0]));
        assert!(pred(
            Column::IncompleteReason,
            CmpOp::Ne,
            Literal::Str("lost_workload".into())
        )
        .matches(&cells[0]));
    }

    #[test]
    fn aggregate_matches_the_legacy_summarize_loop() {
        let cells = vec![
            cell(0, "heft", true, 4.0),
            cell(1, "olb", false, 9.0),
            cell(2, "heft", true, 6.0),
            cell(3, "olb", false, 1.0),
        ];
        let rows = summarize_cells(&cells);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scheduler, "heft");
        assert_eq!(rows[0].cells, 2);
        assert_eq!(rows[0].mean_makespan_secs, Some(5.0));
        assert_eq!(rows[0].completion_probability, 1.0);
        // olb never completed: null means, zero completion.
        assert_eq!(rows[1].scheduler, "olb");
        assert_eq!(rows[1].mean_makespan_secs, None);
        assert_eq!(rows[1].mean_slr, None);
        assert_eq!(rows[1].mean_energy_j, None);
        assert_eq!(rows[1].completion_probability, 0.0);
    }

    #[test]
    fn summarize_over_no_cells_is_empty() {
        assert!(summarize_cells(&[]).is_empty());
    }

    #[test]
    fn global_aggregate_emits_one_row_even_when_empty() {
        let rows = aggregate(&[], &[], &[Agg::CountStar, Agg::Avg(Column::MakespanSecs)]);
        assert_eq!(rows, vec![vec![Value::U64(0), Value::Null]]);
    }

    #[test]
    fn min_max_sum_cover_numeric_columns() {
        let cells = [cell(0, "heft", true, 4.0), cell(1, "heft", true, 9.0)];
        let m = Column::MakespanSecs;
        let rows = aggregate(&cells, &[], &[Agg::Min(m), Agg::Max(m), Agg::Sum(m)]);
        assert_eq!(
            rows,
            vec![vec![Value::F64(4.0), Value::F64(9.0), Value::F64(13.0)]]
        );
    }

    #[test]
    fn group_keys_follow_value_equality() {
        // ±0.0 share one group printed as first seen; NaN keys never
        // match, so each NaN row is a group of its own.
        let cells: Vec<CellResult> = [0.0, 1.0, f64::NAN, -0.0, f64::NAN, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &m)| cell(i, "heft", true, m))
            .collect();
        let rows = aggregate(&cells, &[Column::MakespanSecs], &[Agg::CountStar]);
        let keys: Vec<u64> = rows
            .iter()
            .map(|r| match r[0] {
                Value::F64(v) => v.to_bits(),
                _ => unreachable!(),
            })
            .collect();
        let counts: Vec<&Value> = rows.iter().map(|r| &r[1]).collect();
        assert_eq!(
            keys,
            vec![
                0.0f64.to_bits(),
                1.0f64.to_bits(),
                f64::NAN.to_bits(),
                f64::NAN.to_bits()
            ]
        );
        assert_eq!(
            counts,
            vec![
                &Value::U64(2),
                &Value::U64(2),
                &Value::U64(1),
                &Value::U64(1)
            ]
        );
    }
}
