//! The columnar cell-result store and its query pipeline.
//!
//! Three layers, each usable alone:
//!
//! * [`schema`] — the sweep row schema defined once: a [`Column`] enum
//!   mirroring every `CellResult` field, typed values, the borrowed
//!   column accessor [`cell_value`], and the summary aggregation plan
//!   (`SUMMARY_KEYS`/`SUMMARY_AGGREGATES`) that merge, summarize, and
//!   the CLI printer all derive from.
//! * [`segment`] — the `HELIOSC1` append-friendly segment file, the
//!   one durable cell format: checksummed columnar row groups plus
//!   attempt records, with longest-valid-prefix salvage, written
//!   incrementally by [`StoreWriter`] as cells finish.
//! * [`exec`] + [`query`] — a single-pass evaluator over borrowed
//!   cells (filter, then [`project`] or [`aggregate`] through a hashed
//!   group index) and the small `SELECT … [WHERE …] [GROUP BY …]`
//!   language `helios query` compiles onto it. The sweep summary is
//!   itself one aggregation pass ([`summarize_cells`]), so the
//!   aggregation math and the null-mean semantics exist exactly once.

pub mod exec;
pub mod query;
pub mod schema;
pub mod segment;

pub use exec::{aggregate, project, summarize_cells, Agg, CmpOp, Literal, Predicate};
pub use query::{parse_query, run_query, QueryOutput, QueryPlan};
pub use schema::{
    cell_from_row, cell_value, row_from_cell, schema_names, summary_row_from_values,
    summary_row_values, Column, ColumnType, Row, SummaryAgg, SummaryColumn, Value, ValueRef,
    SUMMARY_AGGREGATES, SUMMARY_KEYS,
};
pub use segment::{
    is_store_bytes, read_store, recover_store, StoreHeader, StoreSalvage, StoreWriter,
    DEFAULT_SEGMENT_ROWS, RETIRED_JOURNAL_MAGIC, STORE_MAGIC, TORN_WRITE_INJECTED,
};
