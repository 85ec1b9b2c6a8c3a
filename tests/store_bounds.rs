//! Hostile counts in a cell store's group records are refused before
//! the reader allocates for them.
//!
//! A group record is CRC-guarded, but a CRC only proves the bytes are
//! the ones written, not that a well-behaved writer wrote them. A
//! 12-byte record may claim millions of rows, or a string column may
//! claim millions of dictionary entries; the reader must check such a
//! claim against the bytes that are actually there and read the record
//! as torn tail.
//!
//! This binary runs under an allocator that refuses to hold more than
//! [`LIVE_CAP`] bytes at once. A reader that trusts the claimed counts
//! asks for gigabytes and aborts the process here instead of taking the
//! host's memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use helios_core::store::{read_store, schema_names, Column, ColumnType, StoreHeader, StoreWriter};

/// Most bytes this test binary may hold live at once.
const LIVE_CAP: usize = 64 << 20;

struct Capped {
    live: AtomicUsize,
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// decides whether to forward an allocation at all, and a refused one
// returns null, which `GlobalAlloc::alloc` permits.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let before = self.live.fetch_add(layout.size(), Ordering::Relaxed);
        if before + layout.size() > LIVE_CAP {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Capped = Capped {
    live: AtomicUsize::new(0),
};

/// IEEE CRC-32, the checksum guarding every store record.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// A header-only store followed by one CRC-valid group record carrying
/// `payload`; returns the path and the header-only length.
fn store_with_group(name: &str, payload: &[u8]) -> (PathBuf, u64) {
    let path = std::env::temp_dir().join(format!(
        "helios-store-bounds-{}-{name}.store",
        std::process::id()
    ));
    let header = StoreHeader {
        spec_name: "bounds".into(),
        spec_digest: "d".into(),
        total_cells: 1,
        shard_index: 1,
        shard_count: 1,
        columns: schema_names(),
    };
    StoreWriter::create(&path, &header)
        .and_then(|mut w| w.flush())
        .expect("header-only store");
    let intact = std::fs::metadata(&path).expect("store written").len();
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(payload).to_le_bytes());
    record.extend_from_slice(payload);
    std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(&record))
        .expect("append the hostile record");
    (path, intact)
}

fn assert_torn_tail(name: &str, payload: &[u8]) {
    let (path, intact) = store_with_group(name, payload);
    let salvage = read_store(&path).expect("a torn group is salvage, not an error");
    assert!(
        salvage.cells.is_empty(),
        "{name}: rows from a hostile record"
    );
    assert_eq!(salvage.valid_bytes, intact, "{name}");
    assert_eq!(salvage.dropped_bytes, 8 + payload.len() as u64, "{name}");
    std::fs::remove_file(&path).expect("remove the test store");
}

#[test]
fn a_row_count_the_payload_cannot_hold_reads_as_torn_tail() {
    for claim in [400_000u32, 16_777_216, u32::MAX] {
        let mut payload = claim.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0; 8]);
        assert_eq!(payload.len(), 12);
        assert_torn_tail(&format!("rows-{claim}"), &payload);
    }
}

#[test]
fn a_dictionary_count_the_payload_cannot_hold_reads_as_torn_tail() {
    // One well-formed row up to the first string column, whose
    // dictionary then claims four million entries over four megabytes:
    // every entry needs at least its 4-byte length, so the claim needs
    // 16 MB.
    let entries: u32 = 4_000_000;
    let mut payload = 1u32.to_le_bytes().to_vec();
    for col in Column::ALL {
        match col.column_type() {
            ColumnType::U64 | ColumnType::F64 => payload.extend_from_slice(&[0; 8]),
            ColumnType::U32 => payload.extend_from_slice(&[0; 4]),
            ColumnType::Bool => payload.push(0),
            ColumnType::Str | ColumnType::OptStr => {
                payload.extend_from_slice(&entries.to_le_bytes());
                break;
            }
        }
    }
    payload.resize(entries as usize, 0);
    assert_torn_tail("dictionary", &payload);
}
