//! Differential oracle for the query evaluator.
//!
//! `run_query` is checked against a test-local reference that does
//! everything the slow, obvious way: clone the cells, stable-sort them
//! by index, turn each into a `row_from_cell` row, filter the rows,
//! group them by a linear `Value ==` scan in first-seen order, fold
//! every aggregate in row order, then project. Queries are generated
//! from the grammar as a small AST that is both rendered to text (for
//! `run_query`) and interpreted directly (by the reference), over cells
//! with shuffled and duplicated indices, NaN/±0.0/±inf floats and both
//! null and non-null `incomplete_reason`. Rows are compared with f64s
//! by bit pattern (every NaN alike), since `NaN != NaN` under
//! `PartialEq`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use helios_core::run_query;
use helios_core::store::{cell_from_row, row_from_cell, Column, ColumnType, Row, Value};
use helios_core::CellResult;

const FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    1.5,
    2.0,
    3.25,
    -1.0,
    1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];
const STRS: [&str; 3] = ["heft", "olb", "montage"];
const REASONS: [&str; 2] = ["timed_out", "infeasible"];
/// Numeric literals as query text; each parses to a value the cells
/// can hold (or sits between them).
const NUM_LITERALS: [&str; 8] = ["0", "-0", "1.5", "2", "3.25", "-1", "1e300", "0.5"];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Random cells: indices drawn from a range smaller than the cell
/// count (so indices repeat) in random order, every column drawn from a
/// small pool so predicates and group keys collide.
fn gen_cells(rng: &mut TestRng) -> Vec<CellResult> {
    let n = below(rng, 120);
    let span = n / 2 + 1;
    (0..n)
        .map(|_| {
            let row: Row = Column::ALL
                .iter()
                .map(|&col| match col.column_type() {
                    _ if col == Column::Cell => Value::U64(below(rng, span) as u64),
                    ColumnType::U64 => Value::U64(below(rng, 3) as u64),
                    ColumnType::U32 => Value::U32(below(rng, 3) as u32),
                    ColumnType::F64 => Value::F64(pick(rng, &FLOATS)),
                    ColumnType::Bool => Value::Bool(rng.next_u64() & 1 == 1),
                    ColumnType::Str => Value::Str(pick(rng, &STRS).to_owned()),
                    ColumnType::OptStr => match below(rng, 3) {
                        0 => Value::Null,
                        _ => Value::Str(pick(rng, &REASONS).to_owned()),
                    },
                })
                .collect();
            cell_from_row(&row).expect("generated rows are schema-shaped")
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Func {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    AvgCompleted,
    Frac,
}

impl Func {
    fn name(self) -> &'static str {
        match self {
            Func::Count => "count",
            Func::Sum => "sum",
            Func::Avg => "avg",
            Func::Min => "min",
            Func::Max => "max",
            Func::AvgCompleted => "avg_completed",
            Func::Frac => "frac",
        }
    }
}

#[derive(Debug, Clone)]
enum Proj {
    Star,
    Col(Column, Option<String>),
    Agg(Func, Option<Column>, Option<String>),
}

#[derive(Debug, Clone)]
enum Lit {
    Num(&'static str),
    Str(&'static str),
    Bool(bool),
    Null,
}

#[derive(Debug, Clone)]
struct Pred {
    col: Column,
    op: &'static str,
    lit: Lit,
}

#[derive(Debug, Clone)]
struct Query {
    projs: Vec<Proj>,
    preds: Vec<Pred>,
    group_by: Vec<Column>,
}

fn is_numeric(col: Column) -> bool {
    matches!(
        col.column_type(),
        ColumnType::U64 | ColumnType::U32 | ColumnType::F64
    )
}

fn numeric_columns() -> Vec<Column> {
    Column::ALL.into_iter().filter(|&c| is_numeric(c)).collect()
}

fn alias(rng: &mut TestRng, at: usize) -> Option<String> {
    (below(rng, 4) == 0).then(|| format!("a{at}"))
}

fn gen_agg(rng: &mut TestRng, at: usize) -> Proj {
    let func = pick(
        rng,
        &[
            Func::Count,
            Func::Sum,
            Func::Avg,
            Func::Min,
            Func::Max,
            Func::AvgCompleted,
            Func::Frac,
        ],
    );
    let arg = match func {
        Func::Count => None,
        Func::Frac => Some(Column::Completed),
        _ => Some(pick(rng, &numeric_columns())),
    };
    Proj::Agg(func, arg, alias(rng, at))
}

fn gen_pred(rng: &mut TestRng) -> Pred {
    let col = pick(rng, &Column::ALL);
    let eq_ops = ["=", "!="];
    let (op, lit) = match col.column_type() {
        ColumnType::U64 | ColumnType::U32 | ColumnType::F64 => (
            pick(rng, &["=", "!=", "<", "<=", ">", ">="]),
            Lit::Num(pick(rng, &NUM_LITERALS)),
        ),
        ColumnType::Bool => (pick(rng, &eq_ops), Lit::Bool(rng.next_u64() & 1 == 1)),
        ColumnType::Str => (pick(rng, &eq_ops), Lit::Str(pick(rng, &STRS))),
        ColumnType::OptStr => (
            pick(rng, &eq_ops),
            match below(rng, 3) {
                0 => Lit::Null,
                _ => Lit::Str(pick(rng, &REASONS)),
            },
        ),
    };
    Pred { col, op, lit }
}

/// A random valid query: `*`, a column list, global aggregates, or a
/// GROUP BY of 1–3 keys (biased toward `cell` and an f64 column) with
/// any mix of keys and aggregates; 0–3 predicates over any column.
fn gen_query(rng: &mut TestRng) -> Query {
    let preds = (0..below(rng, 4)).map(|_| gen_pred(rng)).collect();
    let mut group_by = Vec::new();
    let projs = match below(rng, 4) {
        0 => vec![Proj::Star],
        1 => (0..1 + below(rng, 4))
            .map(|at| Proj::Col(pick(rng, &Column::ALL), alias(rng, at)))
            .collect(),
        2 => (0..1 + below(rng, 4)).map(|at| gen_agg(rng, at)).collect(),
        _ => {
            let favoured = [Column::Cell, Column::MakespanSecs, Column::Slr];
            group_by = (0..1 + below(rng, 3))
                .map(|_| match below(rng, 2) {
                    0 => pick(rng, &favoured),
                    _ => pick(rng, &Column::ALL),
                })
                .collect();
            (0..1 + below(rng, 4))
                .map(|at| match below(rng, 3) {
                    0 => Proj::Col(pick(rng, &group_by), alias(rng, at)),
                    _ => gen_agg(rng, at),
                })
                .collect()
        }
    };
    Query {
        projs,
        preds,
        group_by,
    }
}

fn render(q: &Query) -> String {
    let with_alias = |text: String, alias: &Option<String>| match alias {
        Some(a) => format!("{text} AS {a}"),
        None => text,
    };
    let projs: Vec<String> = q
        .projs
        .iter()
        .map(|p| match p {
            Proj::Star => "*".to_owned(),
            Proj::Col(col, alias) => with_alias(col.name().to_owned(), alias),
            Proj::Agg(func, arg, alias) => with_alias(
                format!("{}({})", func.name(), arg.map_or("*", |c| c.name())),
                alias,
            ),
        })
        .collect();
    let mut text = format!("SELECT {}", projs.join(", "));
    for (i, p) in q.preds.iter().enumerate() {
        let lit = match &p.lit {
            Lit::Num(raw) => (*raw).to_owned(),
            Lit::Str(s) => format!("'{s}'"),
            Lit::Bool(b) => b.to_string(),
            Lit::Null => "null".to_owned(),
        };
        let joiner = if i == 0 { "WHERE" } else { "AND" };
        text += &format!(" {joiner} {} {} {lit}", p.col.name(), p.op);
    }
    if !q.group_by.is_empty() {
        let keys: Vec<&str> = q.group_by.iter().map(|c| c.name()).collect();
        text += &format!(" GROUP BY {}", keys.join(", "));
    }
    text
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(x) => Some(*x as f64),
        Value::U32(x) => Some(f64::from(*x)),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn reference_matches(p: &Pred, row: &Row) -> bool {
    let v = &row[p.col.index()];
    let eq = match &p.lit {
        Lit::Num(raw) => {
            let (lhs, rhs) = (num(v).expect("numeric column"), raw.parse::<f64>().unwrap());
            return match p.op {
                "=" => lhs == rhs,
                "!=" => lhs != rhs,
                "<" => lhs < rhs,
                "<=" => lhs <= rhs,
                ">" => lhs > rhs,
                _ => lhs >= rhs,
            };
        }
        Lit::Str(s) => *v == Value::Str((*s).to_owned()),
        Lit::Bool(b) => *v == Value::Bool(*b),
        Lit::Null => *v == Value::Null,
    };
    if p.op == "=" {
        eq
    } else {
        !eq
    }
}

fn reference_agg(func: Func, arg: Option<Column>, rows: &[&Row]) -> Value {
    let completed = |r: &Row| r[Column::Completed.index()] == Value::Bool(true);
    let values = |only_completed: bool| -> Vec<f64> {
        rows.iter()
            .filter(|r| !only_completed || completed(r))
            .map(|r| num(&r[arg.unwrap().index()]).unwrap())
            .collect()
    };
    let or_null = |n: usize, v: f64| if n == 0 { Value::Null } else { Value::F64(v) };
    match func {
        Func::Count => Value::U64(rows.len() as u64),
        Func::Sum => {
            let v = values(false);
            or_null(v.len(), v.iter().fold(0.0, |a, b| a + b))
        }
        Func::Avg | Func::AvgCompleted => {
            let v = values(func == Func::AvgCompleted);
            or_null(v.len(), v.iter().fold(0.0, |a, b| a + b) / v.len() as f64)
        }
        Func::Min => {
            let v = values(false);
            or_null(v.len(), v.iter().fold(f64::INFINITY, |a, &b| a.min(b)))
        }
        Func::Max => {
            let v = values(false);
            or_null(v.len(), v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
        }
        Func::Frac => {
            let done = rows.iter().filter(|r| completed(r)).count();
            or_null(rows.len(), done as f64 / rows.len() as f64)
        }
    }
}

/// The obvious evaluator: the semantics `run_query` must reproduce.
fn reference(q: &Query, cells: &[CellResult]) -> (Vec<String>, Vec<Row>) {
    let mut sorted = cells.to_vec();
    sorted.sort_by_key(|c| c.cell);
    let rows: Vec<Row> = sorted
        .iter()
        .map(row_from_cell)
        .filter(|row| q.preds.iter().all(|p| reference_matches(p, row)))
        .collect();

    let mut schema = Vec::new();
    for p in &q.projs {
        match p {
            Proj::Star => schema.extend(Column::ALL.iter().map(|c| c.name().to_owned())),
            Proj::Col(col, alias) => {
                schema.push(alias.clone().unwrap_or_else(|| col.name().to_owned()));
            }
            Proj::Agg(func, arg, alias) => {
                schema.push(alias.clone().unwrap_or_else(|| {
                    format!("{}({})", func.name(), arg.map_or("*", |c| c.name()))
                }))
            }
        }
    }

    let has_agg = q.projs.iter().any(|p| matches!(p, Proj::Agg(..)));
    if !has_agg {
        let out = rows
            .iter()
            .map(|row| {
                q.projs
                    .iter()
                    .flat_map(|p| match p {
                        Proj::Star => row.clone(),
                        Proj::Col(col, _) => vec![row[col.index()].clone()],
                        Proj::Agg(..) => unreachable!(),
                    })
                    .collect()
            })
            .collect();
        return (schema, out);
    }

    let mut groups: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
    for row in &rows {
        let key: Vec<Value> = q.group_by.iter().map(|c| row[c.index()].clone()).collect();
        match groups.iter().position(|(k, _)| *k == key) {
            Some(at) => groups[at].1.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    if groups.is_empty() && q.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let out = groups
        .iter()
        .map(|(key, members)| {
            q.projs
                .iter()
                .map(|p| match p {
                    Proj::Col(col, _) => {
                        key[q.group_by.iter().position(|g| g == col).unwrap()].clone()
                    }
                    Proj::Agg(func, arg, _) => reference_agg(*func, *arg, members),
                    Proj::Star => unreachable!(),
                })
                .collect()
        })
        .collect();
    (schema, out)
}

/// A value compared bit for bit: -0.0 differs from 0.0, and NaN equals
/// NaN. NaNs compare by class only, because Rust leaves the sign and
/// payload of a NaN produced by arithmetic unspecified.
#[derive(Debug, PartialEq)]
enum Exact {
    U64(u64),
    U32(u32),
    F64(u64),
    NaN,
    Bool(bool),
    Str(String),
    Null,
}

fn exact(rows: &[Row]) -> Vec<Vec<Exact>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::U64(x) => Exact::U64(*x),
                    Value::U32(x) => Exact::U32(*x),
                    Value::F64(x) if x.is_nan() => Exact::NaN,
                    Value::F64(x) => Exact::F64(x.to_bits()),
                    Value::Bool(x) => Exact::Bool(*x),
                    Value::Str(x) => Exact::Str(x.clone()),
                    Value::Null => Exact::Null,
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every generated query answers exactly as the reference: same
    /// schema, same rows in the same order, every float bit equal.
    #[test]
    fn run_query_matches_the_naive_reference(seed: u64) {
        let mut rng = TestRng::for_case("query_oracle", (seed % u64::from(u32::MAX)) as u32);
        let cells = gen_cells(&mut rng);
        for _ in 0..12 {
            let query = gen_query(&mut rng);
            let text = render(&query);
            let out = run_query(&text, &cells)
                .unwrap_or_else(|e| panic!("generated query {text:?} was refused: {e}"));
            let (schema, rows) = reference(&query, &cells);
            prop_assert_eq!(&out.schema, &schema, "schema of {}", text);
            prop_assert_eq!(exact(&out.rows), exact(&rows), "rows of {} over {} cells", text, cells.len());
        }
    }
}

#[test]
fn group_by_cell_over_50400_rows_is_one_group_per_cell_in_cell_order() {
    let template = cell_from_row(
        &Column::ALL
            .iter()
            .map(|&col| match col.column_type() {
                ColumnType::U64 => Value::U64(0),
                ColumnType::U32 => Value::U32(0),
                ColumnType::F64 => Value::F64(1.0),
                ColumnType::Bool => Value::Bool(true),
                ColumnType::Str => Value::Str("heft".into()),
                ColumnType::OptStr => Value::Null,
            })
            .collect::<Row>(),
    )
    .expect("template row");
    // Shuffled input: the evaluator must restore cell order itself.
    let rows = 50_400;
    let cells: Vec<CellResult> = (0..rows)
        .map(|i| CellResult {
            cell: (i * 7_919) % rows,
            ..template.clone()
        })
        .collect();
    let out = run_query("SELECT cell, count(*) GROUP BY cell", &cells).expect("query runs");
    assert_eq!(out.rows.len(), rows);
    for (i, row) in out.rows.iter().enumerate() {
        assert_eq!(row, &vec![Value::U64(i as u64), Value::U64(1)]);
    }
}
