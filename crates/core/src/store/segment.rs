//! The columnar segment file: the one durable cell format.
//!
//! A store file is an append-only binary file holding sweep cell rows
//! in columnar row groups. The layout is
//!
//! ```text
//! magic   "HELIOSC1"                                    (8 bytes)
//! header  [len: u32][crc32: u32][StoreHeader JSON]      (checksummed)
//! group   [len: u32][crc32: u32][columnar payload]      (repeated)
//! attempt [8 | 1<<31: u32][crc32: u32][cell: u64]       (interleaved)
//! ```
//!
//! with little-endian integers and IEEE CRC-32 over each payload. A
//! group payload is `[rows: u32]` followed by one contiguous column of
//! values per [`Column`], in schema order: fixed-width columns are
//! packed little-endian arrays, string columns are a dictionary
//! (`[entries: u32]` then length-prefixed UTF-8) plus one `u32` code
//! per row, and nullable string columns reserve code 0 for null. The
//! header binds the file to one campaign (spec name, digest and grid
//! size), one shard geometry, and the writing schema, so resume, merge,
//! and query refuse foreign or stale files with typed errors.
//!
//! An *attempt* record says "this cell is about to execute"; per-cell
//! commit (`--journal`) writes one before every cell so a cell that
//! keeps killing the process is visible and can be quarantined. Its
//! length field carries bit 31, far above the 16 MiB record cap, so a
//! reader that predates attempt records sees it as torn tail — never
//! as rows.
//!
//! Recovery is longest-valid-prefix salvage: a record that fails
//! length/CRC/decode checks starts the torn tail, and [`recover_store`]
//! truncates that tail in place so the file can be appended to again.
//! Duplicated cells keep their first occurrence.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use super::schema::{cell_from_row, row_from_cell, schema_names, Column, ColumnType, Row, Value};
use crate::campaign::sweep::{CellResult, ShardReport};
use crate::campaign::CampaignError;
use crate::EngineError;

/// File magic: identifies a helios columnar cell store, version 1.
pub const STORE_MAGIC: [u8; 8] = *b"HELIOSC1";

/// Rows buffered per columnar group before the writer flushes a
/// checksummed record.
pub const DEFAULT_SEGMENT_ROWS: usize = 256;

/// Magic of the retired `HELIOSJ1` cell journal. Such files are
/// refused with an error that names the format, not read.
pub const RETIRED_JOURNAL_MAGIC: [u8; 8] = *b"HELIOSJ1";

/// Message prefix of the injected torn-write error, so harnesses can
/// tell the synthetic tear from a real I/O failure.
pub const TORN_WRITE_INJECTED: &str = "injected torn store write";

/// Upper bound on a single group payload; anything larger in the
/// length field is torn-tail garbage, not a record.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Length-field bit that marks an attempt record. It lies above
/// [`MAX_RECORD_LEN`], so an attempt reads as torn tail to a reader
/// that only knows row groups.
const ATTEMPT_BIT: u32 = 1 << 31;

/// IEEE CRC-32 lookup table, built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 of `bytes` (the checksum guarding every record).
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The checksummed first record: campaign identity, shard geometry,
/// and the column list the file was written with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Spec name, echoed for human consumption.
    pub spec_name: String,
    /// Digest of the canonical spec JSON (see `CampaignSpec::digest`).
    pub spec_digest: String,
    /// Cells in the full (unsharded) grid.
    pub total_cells: usize,
    /// This store's 1-based shard index.
    pub shard_index: usize,
    /// Shards in the partition.
    pub shard_count: usize,
    /// Column names in write order; must match the current schema.
    pub columns: Vec<String>,
}

/// Whether `bytes` begin with the store magic.
#[must_use]
pub fn is_store_bytes(bytes: &[u8]) -> bool {
    bytes.len() >= STORE_MAGIC.len() && bytes[..STORE_MAGIC.len()] == STORE_MAGIC
}

/// The salvageable state of a store file: header, the longest valid
/// record prefix decoded back to cells and attempts, and the torn tail
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSalvage {
    /// The validated header record.
    pub header: StoreHeader,
    /// Decoded rows in append order, first occurrence per cell.
    pub cells: Vec<CellResult>,
    /// Attempt records in append order (a cell may repeat).
    pub attempts: Vec<usize>,
    /// Bytes of valid prefix (magic + header + intact groups).
    pub valid_bytes: u64,
    /// Bytes of torn tail after the valid prefix.
    pub dropped_bytes: u64,
}

impl StoreSalvage {
    /// The salvaged cells as a [`ShardReport`] — the bridge that lets
    /// `merge_shards` and `query` consume store files directly.
    #[must_use]
    pub fn to_shard_report(&self) -> ShardReport {
        let mut cells = self.cells.clone();
        cells.sort_by_key(|c| c.cell);
        ShardReport {
            spec_name: self.header.spec_name.clone(),
            spec_digest: self.header.spec_digest.clone(),
            total_cells: self.header.total_cells,
            shard_index: self.header.shard_index,
            shard_count: self.header.shard_count,
            cells,
        }
    }

    /// Cells with attempt records but no row, with their attempt
    /// counts — the poisoned-cell candidates. Sorted by cell.
    #[must_use]
    pub fn pending_attempts(&self) -> Vec<(usize, u32)> {
        let done: std::collections::HashSet<usize> = self.cells.iter().map(|c| c.cell).collect();
        let mut counts = std::collections::BTreeMap::new();
        for cell in self.attempts.iter().filter(|c| !done.contains(c)) {
            *counts.entry(*cell).or_insert(0u32) += 1;
        }
        counts.into_iter().collect()
    }
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> EngineError {
    EngineError::Config(format!("store {}: {what}: {e}", path.display()))
}

fn corrupt(path: &Path, offset: u64, detail: String) -> EngineError {
    CampaignError::CorruptResume {
        file: path.display().to_string(),
        offset,
        detail,
    }
    .into()
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_wrong_type(col: Column, value: &Value) -> EngineError {
    EngineError::Config(format!(
        "store encode: column {:?} expected a {:?} value, got {value:?}",
        col.name(),
        col.column_type()
    ))
}

/// Encodes full-schema rows as one columnar group payload.
fn encode_group(rows: &[Row]) -> Result<Vec<u8>, EngineError> {
    let mut buf = Vec::new();
    push_u32(&mut buf, rows.len() as u32);
    for col in Column::ALL {
        let at = col.index();
        match col.column_type() {
            ColumnType::U64 => {
                for row in rows {
                    match &row[at] {
                        Value::U64(v) => buf.extend_from_slice(&v.to_le_bytes()),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::U32 => {
                for row in rows {
                    match &row[at] {
                        Value::U32(v) => buf.extend_from_slice(&v.to_le_bytes()),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::F64 => {
                for row in rows {
                    match &row[at] {
                        Value::F64(v) => buf.extend_from_slice(&v.to_bits().to_le_bytes()),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::Bool => {
                for row in rows {
                    match &row[at] {
                        Value::Bool(v) => buf.push(u8::from(*v)),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::Str | ColumnType::OptStr => {
                // Dictionary + per-row codes; OptStr reserves code 0
                // for null, so entry k lives at code k+1.
                let nullable = col.column_type() == ColumnType::OptStr;
                let mut dict: Vec<&str> = Vec::new();
                let mut codes: Vec<u32> = Vec::with_capacity(rows.len());
                for row in rows {
                    let code = match &row[at] {
                        Value::Str(s) => {
                            let entry = match dict.iter().position(|d| d == s) {
                                Some(at) => at,
                                None => {
                                    dict.push(s);
                                    dict.len() - 1
                                }
                            };
                            entry as u32 + u32::from(nullable)
                        }
                        Value::Null if nullable => 0,
                        other => return Err(encode_wrong_type(col, other)),
                    };
                    codes.push(code);
                }
                push_u32(&mut buf, dict.len() as u32);
                for entry in dict {
                    push_u32(&mut buf, entry.len() as u32);
                    buf.extend_from_slice(entry.as_bytes());
                }
                for code in codes {
                    push_u32(&mut buf, code);
                }
            }
        }
    }
    Ok(buf)
}

/// A forward-only cursor over a group payload; every take is
/// bounds-checked so torn or hostile bytes fail decode instead of
/// panicking.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.at..end];
        self.at = end;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
}

/// Decodes one columnar group payload back to full-schema rows.
/// `None` on any structural damage (the caller treats the record as
/// the start of the torn tail).
fn decode_group(payload: &[u8]) -> Option<Vec<Row>> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let rows = cur.u32()? as usize;
    if rows > MAX_RECORD_LEN as usize {
        return None;
    }
    // Not `vec![Vec::with_capacity(..); rows]`: cloning an empty Vec
    // drops its capacity, which would cost several reallocations per
    // row while the 25 columns push in.
    let mut out: Vec<Row> = (0..rows)
        .map(|_| Vec::with_capacity(Column::ALL.len()))
        .collect();
    for col in Column::ALL {
        match col.column_type() {
            ColumnType::U64 => {
                for row in out.iter_mut() {
                    let v = u64::from_le_bytes(cur.take(8)?.try_into().ok()?);
                    row.push(Value::U64(v));
                }
            }
            ColumnType::U32 => {
                for row in out.iter_mut() {
                    let v = u32::from_le_bytes(cur.take(4)?.try_into().ok()?);
                    row.push(Value::U32(v));
                }
            }
            ColumnType::F64 => {
                for row in out.iter_mut() {
                    let v = f64::from_bits(u64::from_le_bytes(cur.take(8)?.try_into().ok()?));
                    row.push(Value::F64(v));
                }
            }
            ColumnType::Bool => {
                for row in out.iter_mut() {
                    let v = match cur.take(1)? {
                        [0] => false,
                        [1] => true,
                        _ => return None,
                    };
                    row.push(Value::Bool(v));
                }
            }
            ColumnType::Str | ColumnType::OptStr => {
                let nullable = col.column_type() == ColumnType::OptStr;
                let entries = cur.u32()? as usize;
                if entries > payload.len() {
                    return None;
                }
                let mut dict: Vec<String> = Vec::with_capacity(entries);
                for _ in 0..entries {
                    let len = cur.u32()? as usize;
                    let text = std::str::from_utf8(cur.take(len)?).ok()?;
                    dict.push(text.to_owned());
                }
                for row in out.iter_mut() {
                    let code = cur.u32()? as usize;
                    let value = if nullable {
                        match code {
                            0 => Value::Null,
                            c => Value::Str(dict.get(c - 1)?.clone()),
                        }
                    } else {
                        Value::Str(dict.get(code)?.clone())
                    };
                    row.push(value);
                }
            }
        }
    }
    // A valid group consumes its payload exactly; trailing bytes mean
    // the record was not written by this codec.
    if cur.at != payload.len() {
        return None;
    }
    Some(out)
}

/// Reads and salvages a store file without modifying it: the longest
/// valid group prefix plus the size of the torn tail.
///
/// # Errors
///
/// Returns [`CampaignError::CorruptResume`] when the file is not a
/// store (bad magic), its header record is torn, or the header's
/// column list disagrees with the current schema — there is nothing to
/// salvage without a trusted header — and I/O errors as
/// [`EngineError::Config`].
pub fn read_store(path: &Path) -> Result<StoreSalvage, EngineError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", &e))?;
    salvage_store_bytes(path, &bytes)
}

/// Salvages a store file **in place**: scans like [`read_store`], then
/// truncates the torn tail (fsync'd) so the file ends on a group
/// boundary and can be appended to again.
///
/// # Errors
///
/// As [`read_store`], plus I/O errors from the truncation itself.
pub fn recover_store(path: &Path) -> Result<StoreSalvage, EngineError> {
    let salvage = read_store(path)?;
    if salvage.dropped_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open for truncate", &e))?;
        file.set_len(salvage.valid_bytes)
            .map_err(|e| io_err(path, "truncate torn tail", &e))?;
        file.sync_all()
            .map_err(|e| io_err(path, "fsync after truncate", &e))?;
    }
    Ok(salvage)
}

fn salvage_store_bytes(path: &Path, bytes: &[u8]) -> Result<StoreSalvage, EngineError> {
    if bytes.starts_with(&RETIRED_JOURNAL_MAGIC) {
        return Err(corrupt(
            path,
            0,
            "this is a HELIOSJ1 cell journal, a format helios no longer reads; \
             the HELIOSC1 store replaced it — re-run the sweep with --journal \
             into a fresh file"
                .into(),
        ));
    }
    if !is_store_bytes(bytes) {
        return Err(corrupt(
            path,
            0,
            "not a helios cell store (bad magic); point --store at a store \
             file, or delete the file to start fresh"
                .into(),
        ));
    }
    let mut at = STORE_MAGIC.len();

    // Header record: [len][crc][payload].
    let torn_header = |at: usize| {
        corrupt(
            path,
            at as u64,
            "store header record is torn or corrupt; the file cannot be \
             trusted — delete it to start fresh"
                .into(),
        )
    };
    if bytes.len() < at + 8 {
        return Err(torn_header(at));
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
    if len as u32 > MAX_RECORD_LEN || bytes.len() < at + 8 + len {
        return Err(torn_header(at));
    }
    let payload = &bytes[at + 8..at + 8 + len];
    if crc32(payload) != crc {
        return Err(torn_header(at));
    }
    let header: StoreHeader = match std::str::from_utf8(payload)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
    {
        Some(h) => h,
        None => return Err(torn_header(at)),
    };
    if header.columns != schema_names() {
        return Err(corrupt(
            path,
            at as u64,
            "store column list does not match this build's schema; the file \
             was written by a different helios version — delete the file to \
             start fresh"
                .into(),
        ));
    }
    at += 8 + len;

    // Row groups and attempt records: longest valid prefix; the first
    // bad record starts the torn tail.
    let mut cells: Vec<CellResult> = Vec::new();
    let mut attempts: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut valid = at;
    'records: while at + 8 <= bytes.len() {
        let field = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let len = (field & !ATTEMPT_BIT) as usize;
        if len as u32 > MAX_RECORD_LEN || bytes.len() < at + 8 + len {
            break;
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        if field & ATTEMPT_BIT != 0 {
            let Ok(cell) = <[u8; 8]>::try_from(payload) else {
                break;
            };
            let Ok(cell) = usize::try_from(u64::from_le_bytes(cell)) else {
                break;
            };
            attempts.push(cell);
        } else {
            let Some(rows) = decode_group(payload) else {
                break;
            };
            for row in &rows {
                let Ok(cell) = cell_from_row(row) else {
                    break 'records;
                };
                // Deterministic cells make duplicates identical; keep the
                // first occurrence so salvage is order-stable. The
                // seen-set keeps salvage O(rows): a linear scan here is
                // quadratic and dominates large-store reads.
                if seen.insert(cell.cell) {
                    cells.push(cell);
                }
            }
        }
        at += 8 + len;
        valid = at;
    }

    Ok(StoreSalvage {
        header,
        cells,
        attempts,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// Appends cell rows to a store file as checksummed columnar groups.
///
/// Rows are buffered and flushed [`DEFAULT_SEGMENT_ROWS`] at a time;
/// call [`StoreWriter::flush`] before dropping the writer or the
/// buffered tail is lost (the driver always does, even on error paths,
/// so a crash loses at most one unflushed group — never a row that was
/// reported durable). Per-cell commit is an explicit `flush` after each
/// [`append_cell`](StoreWriter::append_cell).
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    path: PathBuf,
    pending: Vec<Row>,
    /// Records (groups and attempts) written since this writer opened.
    appends: u64,
    /// Crash-injection hook: the record with this ordinal persists only
    /// half its bytes and fails with [`TORN_WRITE_INJECTED`].
    tear_after: Option<u64>,
}

impl StoreWriter {
    /// Creates (truncating) a store file and durably writes
    /// magic+header; the header's column list is always the current
    /// schema.
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn create(path: &Path, header: &StoreHeader) -> Result<StoreWriter, EngineError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", &e))?;
        let payload = serde_json::to_string(header)
            .map_err(|e| EngineError::Config(format!("serialize store header: {e}")))?;
        let payload = payload.as_bytes();
        let mut buf = Vec::with_capacity(STORE_MAGIC.len() + 8 + payload.len());
        buf.extend_from_slice(&STORE_MAGIC);
        push_u32(&mut buf, payload.len() as u32);
        push_u32(&mut buf, crc32(payload));
        buf.extend_from_slice(payload);
        file.write_all(&buf)
            .map_err(|e| io_err(path, "write header", &e))?;
        file.sync_data()
            .map_err(|e| io_err(path, "fsync header", &e))?;
        Ok(StoreWriter::over(file, path))
    }

    /// Opens an existing store for appending. The caller is expected
    /// to have validated/salvaged it first ([`recover_store`]).
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn open_append(path: &Path) -> Result<StoreWriter, EngineError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open for append", &e))?;
        Ok(StoreWriter::over(file, path))
    }

    fn over(file: File, path: &Path) -> StoreWriter {
        StoreWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            appends: 0,
            tear_after: None,
        }
    }

    /// Arms the torn-write hook: record append number `after`
    /// (0-based, groups and attempts counted together) writes half its
    /// bytes and fails, the shape a kill mid-`write(2)` leaves behind.
    pub(crate) fn tear_after(&mut self, after: Option<u64>) {
        self.tear_after = after;
    }

    /// Durably records that `cell` is about to execute.
    ///
    /// # Errors
    ///
    /// I/O failures, and the injected tear when armed.
    pub(crate) fn append_attempt(&mut self, cell: usize) -> Result<(), EngineError> {
        self.write_record(ATTEMPT_BIT, &(cell as u64).to_le_bytes())
    }

    /// Buffers one finished cell; flushes a durable columnar group when
    /// the buffer reaches [`DEFAULT_SEGMENT_ROWS`].
    ///
    /// # Errors
    ///
    /// I/O failures from the flush as [`EngineError::Config`].
    pub fn append_cell(&mut self, cell: &CellResult) -> Result<(), EngineError> {
        self.pending.push(row_from_cell(cell));
        if self.pending.len() >= DEFAULT_SEGMENT_ROWS {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes any buffered rows as one checksummed, fsync'd group; a
    /// no-op when the buffer is empty.
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let payload = encode_group(&self.pending)?;
        self.write_record(0, &payload)?;
        self.pending.clear();
        Ok(())
    }

    /// Frames, writes and fsyncs one record; `kind` is 0 for a group or
    /// [`ATTEMPT_BIT`] for an attempt.
    fn write_record(&mut self, kind: u32, payload: &[u8]) -> Result<(), EngineError> {
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(EngineError::Config(format!(
                "store record payload of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let mut buf = Vec::with_capacity(8 + payload.len());
        push_u32(&mut buf, kind | payload.len() as u32);
        push_u32(&mut buf, crc32(payload));
        buf.extend_from_slice(payload);
        let torn = self.tear_after == Some(self.appends);
        if torn {
            // Crash injection: persist half the record, then fail. The
            // buffered rows die with the "process", and the hook is
            // spent so the error path cannot tear a second record.
            buf.truncate((buf.len() / 2).max(1));
            self.tear_after = None;
            self.pending.clear();
        }
        self.file
            .write_all(&buf)
            .map_err(|e| io_err(&self.path, "append record", &e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "fsync record", &e))?;
        if torn {
            return Err(EngineError::Config(format!(
                "{TORN_WRITE_INJECTED}: wrote {} of {} record bytes to {} and aborted",
                buf.len(),
                8 + payload.len(),
                self.path.display()
            )));
        }
        self.appends += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("helios-store-test-{}-{name}", std::process::id()));
        p
    }

    fn header() -> StoreHeader {
        StoreHeader {
            spec_name: "t".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
            columns: schema_names(),
        }
    }

    fn cell(i: usize) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: "heft".into(),
            seed: i as u64,
            makespan_secs: 1.5 + i as f64,
            slr: 1.0,
            energy_j: 2.0,
            transfers: 1,
            transfer_bytes: 10.0,
            failures: 0,
            retries: 0,
            completed: i.is_multiple_of(2),
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            makespan_degradation: 0.0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            incomplete_reason: if i.is_multiple_of(2) {
                None
            } else {
                Some("retries_exhausted".into())
            },
            capacity_secs: 0.0,
            preemptions: 0,
            drain_migrated_tasks: 0,
            join_utilization: 0.0,
        }
    }

    #[test]
    fn round_trips_groups_and_appends() {
        let path = tmp("roundtrip.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        drop(w);

        let s = read_store(&path).unwrap();
        assert_eq!(s.header, header());
        assert_eq!(s.cells, vec![cell(0), cell(1)]);
        assert_eq!(s.dropped_bytes, 0);

        // Append across a writer reopen, like a resumed shard.
        let mut w = StoreWriter::open_append(&path).unwrap();
        w.append_cell(&cell(2)).unwrap();
        w.flush().unwrap();
        drop(w);
        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0), cell(1), cell(2)]);
        assert_eq!(s.to_shard_report().cells.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unflushed_rows_stay_buffered_until_flush() {
        let path = tmp("buffered.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        // Not flushed: on disk there is only the header so far.
        let s = read_store(&path).unwrap();
        assert!(s.cells.is_empty());
        w.flush().unwrap();
        drop(w);
        assert_eq!(read_store(&path).unwrap().cells, vec![cell(0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_salvaged_and_truncated() {
        let path = tmp("torn.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let s = recover_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)]);
        assert_eq!(s.valid_bytes, intact);
        assert_eq!(s.dropped_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        let mut w = StoreWriter::open_append(&path).unwrap();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(read_store(&path).unwrap().cells.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_crc_starts_the_torn_tail() {
        let path = tmp("crc.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        let boundary = std::fs::metadata(&path).unwrap().len();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)], "the CRC-failing group is dropped");
        assert_eq!(s.valid_bytes, boundary);
        assert!(s.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_foreign_schema_are_corrupt_resume() {
        let path = tmp("magic.store");
        std::fs::write(&path, b"{\"not\": \"a store\"}").unwrap();
        let err = read_store(&path).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
        assert!(err.contains("corrupt resume"), "{err}");

        // A header with a foreign column list is refused outright.
        let mut h = header();
        h.columns = vec!["makespan_secs".into()];
        let w = StoreWriter::create(&path, &h).unwrap();
        drop(w);
        let err = read_store(&path).unwrap_err().to_string();
        assert!(err.contains("different helios version"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn groups_autoflush_at_the_segment_row_cap() {
        let path = tmp("autoflush.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        for i in 0..DEFAULT_SEGMENT_ROWS {
            w.append_cell(&cell(i)).unwrap();
        }
        // The cap flushed without an explicit flush() call.
        let s = read_store(&path).unwrap();
        assert_eq!(s.cells.len(), DEFAULT_SEGMENT_ROWS);
        w.flush().unwrap();
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dictionary_codes_handle_nulls_and_repeats() {
        let rows: Vec<Row> = (0..5).map(|i| row_from_cell(&cell(i))).collect();
        let payload = encode_group(&rows).unwrap();
        let back = decode_group(&payload).unwrap();
        assert_eq!(back, rows);
        // Truncated payloads never decode.
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            assert!(decode_group(&payload[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage is rejected (exact-consumption check).
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_group(&padded).is_none());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn attempt_records_round_trip_beside_groups() {
        let path = tmp("attempts.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        let header_only = std::fs::metadata(&path).unwrap().len();
        w.append_attempt(0).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        w.append_attempt(2).unwrap();
        w.append_attempt(2).unwrap();
        drop(w);

        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)], "attempts are never rows");
        assert_eq!(s.attempts, vec![0, 2, 2]);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(s.pending_attempts(), vec![(2, 2)]);

        // A reader that predates attempt records stops at the length
        // check: the field exceeds the record cap, so the attempt and
        // everything after it is torn tail to that reader, not rows.
        let bytes = std::fs::read(&path).unwrap();
        let at = header_only as usize;
        let field = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert!(field > MAX_RECORD_LEN, "{field:#x}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_attempt_records_start_the_torn_tail() {
        let path = tmp("bad-attempt.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        // A CRC-valid attempt whose payload is not 8 bytes.
        let payload = [1u8, 2, 3];
        let mut bad = Vec::new();
        push_u32(&mut bad, ATTEMPT_BIT | payload.len() as u32);
        push_u32(&mut bad, crc32(&payload));
        bad.extend_from_slice(&payload);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bad).unwrap();
        drop(f);

        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)]);
        assert!(s.attempts.is_empty());
        assert_eq!(s.valid_bytes, intact);
        assert_eq!(s.dropped_bytes, bad.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_tear_writes_half_a_record_once() {
        let path = tmp("tear.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.tear_after(Some(1));
        w.append_attempt(0).unwrap();
        w.append_cell(&cell(0)).unwrap();
        let err = w.flush().unwrap_err().to_string();
        assert!(err.contains(TORN_WRITE_INJECTED), "{err}");
        // The hook is spent and the torn group's rows are gone.
        w.flush().unwrap();
        drop(w);
        let s = recover_store(&path).unwrap();
        assert!(s.cells.is_empty());
        assert_eq!(s.attempts, vec![0]);
        assert!(s.dropped_bytes > 0, "the half-record must be measurable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retired_journal_magic_is_refused_by_name() {
        let path = tmp("old.journal");
        std::fs::write(&path, b"HELIOSJ1\x10\x00\x00\x00").unwrap();
        let err = read_store(&path).unwrap_err().to_string();
        assert!(err.contains("corrupt resume"), "{err}");
        assert!(err.contains("HELIOSJ1"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
