//! The `.sac` columnar table image: its layout, its builder and its one
//! reader.
//!
//! Every table is one page-aligned image. A table built in memory holds it
//! in a heap buffer; a persisted table is the same bytes in a `.sac` file,
//! mapped:
//!
//! ```text
//! page 0        header: magic, page size, row/block counts, directory and
//!               checksum-segment pointers, directory checksum, and a header
//!               self-checksum (format version 2, magic `SACTBL02`)
//! page 1..      per-column segments, each aligned to a page boundary:
//!                 data     Int/Float = 8-byte LE per row, Str = 4-byte LE
//!                          dictionary codes per row, Bool = bit-packed
//!                 validity bit-packed, present only when the column has nulls
//!                 dict     (Str only) u32-length-prefixed UTF-8 entries
//! sums          one u64 checksum per data page (file pages 1..sums), page
//!               aligned; every column segment must lie inside the
//!               checksummed region
//! tail          directory: table name, then per column the unqualified
//!               field name, data type and segment (offset, len) triples
//! ```
//!
//! [`crate::TableBuilder`] writes each column's bytes page by page into one
//! arena, and `finish` lays the image out there: it moves the pages into
//! segment order in place and writes the dictionaries, checksums,
//! directory and header around them. Persisting a table writes the image's
//! bytes. The reader (`TableImage`) sees one `&[u8]`, from a file map or a
//! heap buffer (see [`crate::mmap`]), and decodes row ranges out of it into
//! [`ColumnVec`]s. String dictionaries are decoded once at open (they are
//! small) and shared by every gathered batch.
//!
//! ## Corruption detection
//!
//! Structural damage (bad magic, truncated segments, dangling offsets, a
//! flipped header or directory byte) fails at **open** with
//! [`StorageError::BadFormat`] — the header and directory carry their own
//! checksums, so an image either opens with a trustworthy layout or not at
//! all. Damage to *data* pages is detected lazily at **gather**: the first
//! time a gather touches a page its stored checksum is verified (and the
//! verdict cached in a per-open atomic bitmap, so steady-state scans pay
//! one extra pass per page, not per chunk). A mismatch surfaces as the
//! typed [`StorageError::CorruptPage`] — a gather never returns wrong
//! bytes. Dictionary pages are verified eagerly at open, since dictionaries
//! are decoded there. Heap and file images are opened and verified alike.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::chunk::{ColumnData, ColumnVec, StrDict};
use crate::column::ColumnBuffer;
use crate::error::StorageError;
use crate::mmap::Mmap;
use crate::schema::{DataType, Field, Schema};
use crate::table::Table;
use crate::value::Value;
use crate::Catalog;
use crate::Result;

/// Magic bytes opening every table file (format version 2: per-page
/// checksums, header/directory self-checksums).
pub const MAGIC: &[u8; 8] = b"SACTBL02";

/// The magic of the checksum-less v1 format, recognized only to reject it
/// with a clear message.
const MAGIC_V1: &[u8; 8] = b"SACTBL01";

/// Segment alignment and header size: one 4 KiB page.
pub const PAGE_SIZE: usize = 4096;

/// Header layout: magic + 10 LE u64 words (page size, row count, block
/// rows, column count, dir off/len, checksum-segment off/page count,
/// directory checksum, header self-checksum).
const HEADER_WORDS: usize = 10;
/// Byte length of the v2 header (the rest of page 0 is zero padding).
pub const HEADER_LEN: usize = 8 + 8 * HEADER_WORDS;

/// File extension used by [`persist_catalog`] / [`open_catalog_dir`].
pub const TABLE_EXT: &str = "sac";

/// Word-at-a-time mixing checksum (xor-multiply-shift over 8-byte words,
/// with a length-tweaked tail). Not cryptographic — it exists to catch
/// torn writes and bit rot, and any single flipped bit changes the sum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = CHECKSUM_SEED;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, c);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = mix(h, &w);
        h ^= rem.len() as u64;
    }
    h
}

const CHECKSUM_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of [`checksum`]: fold in the 8-byte word `w`.
#[inline]
fn mix(h: u64, w: &[u8]) -> u64 {
    let w = u64::from_le_bytes(w[..8].try_into().expect("an 8-byte word"));
    let h = (h ^ w).wrapping_mul(0x2545_f491_4f6c_dd1d);
    h ^ (h >> 32)
}

/// The [`checksum`] of every page of `pages` (whole pages only). A page's
/// sum is one serial chain, so four pages are summed side by side to keep
/// the multiplier busy.
fn page_sums(pages: &[u8]) -> Vec<u64> {
    let mut sums = Vec::with_capacity(pages.len() / PAGE_SIZE);
    let mut quads = pages.chunks_exact(4 * PAGE_SIZE);
    for quad in &mut quads {
        let mut h = [CHECKSUM_SEED; 4];
        for w in (0..PAGE_SIZE).step_by(8) {
            for (lane, h) in h.iter_mut().enumerate() {
                *h = mix(*h, &quad[lane * PAGE_SIZE + w..]);
            }
        }
        sums.extend(h);
    }
    sums.extend(quads.remainder().chunks_exact(PAGE_SIZE).map(checksum));
    sums
}

/// Process-wide count of transient page-read faults that were retried
/// (injected via `sa-fault`; real mapped reads cannot report transient
/// failure, they SIGBUS — so in production this stays 0).
static RETRIES: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of corrupt pages detected (checksum mismatches and
/// injected torn pages).
static CORRUPT_PAGES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_retry() {
    RETRIES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_corrupt_page() {
    CORRUPT_PAGES.fetch_add(1, Ordering::Relaxed);
}

/// Total transient page-read faults retried by this process (see
/// [`StorageError::Io`] for the give-up shape). Polled by the
/// observability layer.
pub fn retries_total() -> u64 {
    RETRIES.load(Ordering::Relaxed)
}

/// Total corrupt pages this process has detected (checksum mismatches and
/// injected torn pages). Polled by the observability layer.
pub fn corrupt_pages_total() -> u64 {
    CORRUPT_PAGES.load(Ordering::Relaxed)
}

fn io_err(path: &Path, op: &str, e: impl std::fmt::Display) -> StorageError {
    StorageError::Io {
        path: path.display().to_string(),
        message: format!("{op}: {e}"),
    }
}

fn bad(path: &Path, message: impl Into<String>) -> StorageError {
    StorageError::BadFormat {
        path: path.display().to_string(),
        message: message.into(),
    }
}

fn dtype_code(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

fn dtype_from_code(code: u8, path: &Path) -> Result<DataType> {
    Ok(match code {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        other => return Err(bad(path, format!("unknown dtype code {other}"))),
    })
}

#[inline]
fn bit_at(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

/// A value the image stores as `N` little-endian bytes.
///
/// # Safety
///
/// The type is `N` bytes wide and every pattern of `N` bytes is a value of
/// it: [`words`] copies image bytes into it unchecked.
unsafe trait Word<const N: usize>: Copy {
    fn from_le(bytes: [u8; N]) -> Self;
}

// SAFETY (all three): 8, 8 and 4 bytes wide; no invalid bit patterns.
unsafe impl Word<8> for i64 {
    fn from_le(bytes: [u8; 8]) -> i64 {
        i64::from_le_bytes(bytes)
    }
}

unsafe impl Word<8> for f64 {
    fn from_le(bytes: [u8; 8]) -> f64 {
        f64::from_le_bytes(bytes)
    }
}

unsafe impl Word<4> for u32 {
    fn from_le(bytes: [u8; 4]) -> u32 {
        u32::from_le_bytes(bytes)
    }
}

/// Decode consecutive `N`-byte little-endian words. On a little-endian
/// target the bytes already are the values, so the decode is one copy:
/// a word-by-word loop ran range gathers up to twice as slow in some
/// processes, where `memcpy` held steady.
#[inline]
fn words<T: Word<N>, const N: usize>(bytes: &[u8]) -> Vec<T> {
    let words = bytes.as_chunks::<N>().0;
    if cfg!(target_endian = "big") {
        return words.iter().map(|&w| T::from_le(w)).collect();
    }
    assert_eq!(std::mem::size_of::<T>(), N);
    let mut out = Vec::<T>::with_capacity(words.len());
    // SAFETY: `out` has room for `words.len()` values of `N` bytes each,
    // and the copy writes all of them before `set_len`. A `Word` accepts
    // every bit pattern (its trait's contract), and on a little-endian
    // target its in-memory bytes are its little-endian encoding.
    unsafe {
        std::ptr::copy_nonoverlapping(
            words.as_ptr().cast::<u8>(),
            out.as_mut_ptr().cast::<u8>(),
            words.len() * N,
        );
        out.set_len(words.len());
    }
    out
}

/// The `i`th `N`-byte word of `bytes`.
#[inline]
fn word_at<const N: usize>(bytes: &[u8], i: usize) -> [u8; N] {
    bytes[N * i..N * i + N]
        .try_into()
        .expect("a slice of N bytes")
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// Byte length of a column's data segment.
pub(crate) fn data_len_for(dtype: DataType, rows: usize) -> usize {
    match dtype {
        DataType::Bool => rows.div_ceil(8),
        DataType::Int | DataType::Float => rows * 8,
        DataType::Str => rows * 4,
    }
}

/// One column's directory entry: segment `(offset, len)` triples.
struct DirEntry {
    data: (usize, usize),
    validity: (usize, usize),
    dict: (usize, usize),
    dict_entries: usize,
}

/// Lay out the page image of a table of `rows` rows whose `columns` hold
/// `fields`' values, in the `arena` their pages were written to (page 0
/// kept for the header). Every segment's length follows from the row
/// count, the type and the dictionary; each column page is then moved to
/// its segment's place in the arena itself, and the dictionaries, the
/// per-page checksums, the directory and the header are written around
/// them — so an image is whole before anything reads or persists it.
pub(crate) fn lay_out(
    name: &str,
    fields: &[Field],
    block_rows: usize,
    rows: usize,
    mut columns: Vec<ColumnBuffer>,
    mut arena: Vec<u8>,
) -> Vec<u8> {
    for c in &mut columns {
        if c.data_type == DataType::Str && c.dict.is_empty() {
            c.dict.push(Arc::from(""));
        }
    }
    // Size: segments in column order, each at the next page boundary.
    let mut end = PAGE_SIZE;
    let mut at = |len: usize| {
        let off = end.next_multiple_of(PAGE_SIZE);
        end = off + len;
        (off, len)
    };
    let entries: Vec<DirEntry> = columns
        .iter()
        .map(|c| {
            let data = at(data_len_for(c.data_type, rows));
            let validity = if c.has_null {
                at(rows.div_ceil(8))
            } else {
                (0, 0)
            };
            let (dict, dict_entries) = if c.data_type == DataType::Str {
                (at(c.dict.iter().map(|s| 4 + s.len()).sum()), c.dict.len())
            } else {
                ((0, 0), 0)
            };
            DirEntry {
                data,
                validity,
                dict,
                dict_entries,
            }
        })
        .collect();
    let sum_off = end.next_multiple_of(PAGE_SIZE);
    let sum_count = sum_off / PAGE_SIZE - 1;
    let dir_off = (sum_off + 8 * sum_count).next_multiple_of(PAGE_SIZE);
    let mut dir = Vec::new();
    dir.extend_from_slice(&(name.len() as u16).to_le_bytes());
    dir.extend_from_slice(name.as_bytes());
    for (f, e) in fields.iter().zip(&entries) {
        dir.extend_from_slice(&(f.name.len() as u16).to_le_bytes());
        dir.extend_from_slice(f.name.as_bytes());
        dir.push(dtype_code(f.data_type));
        for (off, len) in [e.data, e.validity, e.dict] {
            dir.extend_from_slice(&(off as u64).to_le_bytes());
            dir.extend_from_slice(&(len as u64).to_le_bytes());
        }
        dir.extend_from_slice(&(e.dict_entries as u64).to_le_bytes());
    }

    // Where each arena page goes: a column page to its segment's place,
    // the zero pages added for the dictionaries and checksums to the slots
    // left over. `dest` is then a permutation of the pages.
    const FREE: usize = usize::MAX;
    let pages = arena.len().div_ceil(PAGE_SIZE).max(dir_off / PAGE_SIZE);
    arena.resize(pages * PAGE_SIZE, 0);
    let mut dest = vec![FREE; pages];
    dest[0] = 0;
    for (c, e) in columns.iter().zip(&entries) {
        for (segment, (off, _)) in [(&c.data, e.data), (&c.validity, e.validity)] {
            for (k, &p) in segment.0.iter().enumerate() {
                dest[p] = off / PAGE_SIZE + k;
            }
        }
    }
    let mut taken = vec![false; pages];
    dest.iter()
        .filter(|&&d| d != FREE)
        .for_each(|&d| taken[d] = true);
    let mut free_slots = (0..pages).filter(|&s| !taken[s]);
    for d in dest.iter_mut().filter(|d| **d == FREE) {
        *d = free_slots.next().expect("as many free slots as free pages");
    }
    // Apply it cycle by cycle through a one-page buffer: each page is
    // read and written once.
    let mut carried = vec![0u8; PAGE_SIZE];
    for start in 0..pages {
        if dest[start] == start {
            continue;
        }
        carried.copy_from_slice(&arena[start * PAGE_SIZE..][..PAGE_SIZE]);
        let mut i = start;
        loop {
            let j = std::mem::replace(&mut dest[i], i);
            carried.swap_with_slice(&mut arena[j * PAGE_SIZE..][..PAGE_SIZE]);
            if j == start {
                break;
            }
            i = j;
        }
    }

    // The dictionaries land on left-over slots, which hold added (zero)
    // pages, as does everything from the checksums on.
    for (c, e) in columns.iter().zip(&entries) {
        let mut pos = e.dict.0;
        for s in &c.dict {
            arena[pos..pos + 4].copy_from_slice(&(s.len() as u32).to_le_bytes());
            arena[pos + 4..pos + 4 + s.len()].copy_from_slice(s.as_bytes());
            pos += 4 + s.len();
        }
    }
    drop(columns);
    let sums = page_sums(&arena[PAGE_SIZE..sum_off]);
    for (page, sum) in sums.iter().enumerate() {
        arena[sum_off + 8 * page..][..8].copy_from_slice(&sum.to_le_bytes());
    }
    arena.truncate(dir_off);
    arena.extend_from_slice(&dir);
    arena.shrink_to_fit();

    // Header, self-checksummed over everything before the final word.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    for v in [
        PAGE_SIZE,
        rows,
        block_rows,
        fields.len(),
        dir_off,
        dir.len(),
        sum_off,
        sum_count,
    ] {
        header.extend_from_slice(&(v as u64).to_le_bytes());
    }
    header.extend_from_slice(&checksum(&dir).to_le_bytes());
    header.extend_from_slice(&checksum(&header).to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    arena[..HEADER_LEN].copy_from_slice(&header);
    arena
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One column's segment pointers inside the image, plus its decoded
/// dictionary.
#[derive(Debug, Clone)]
struct ImageCol {
    dtype: DataType,
    /// (offset, len) of the data segment.
    data: (usize, usize),
    /// (offset, len) of the bit-packed validity segment; `None` = no nulls.
    validity: Option<(usize, usize)>,
    /// Decoded dictionary (Str columns; shared by every gathered batch).
    dict: Option<StrDict>,
}

/// The reader of one table image, from a mapped file or a heap buffer.
///
/// Gathers decode straight from the image into [`ColumnVec`]s: validity is
/// `None` when the gathered rows have no nulls, and string columns carry
/// their codes and share the decoded dictionary.
#[derive(Debug, Clone)]
pub(crate) struct TableImage {
    bytes: Arc<Mmap>,
    /// The backing file, or the table's name for a heap image; kept for
    /// error reporting.
    path: Arc<str>,
    cols: Vec<ImageCol>,
    /// Offset of the per-page checksum segment and the number of
    /// checksummed data pages (image pages `1..=sum_count`).
    sums: (usize, usize),
    /// One bit per data page, set once its checksum has verified against
    /// this image. Verification is per-open and lock-free: a page is
    /// re-summed at most a handful of times under racing gathers, then
    /// every later gather sees the cached bit.
    verified: Arc<Vec<AtomicU64>>,
}

/// What opening an image recovers besides the reader: the table's name,
/// its unqualified fields, rows per block and row count.
pub(crate) struct ImageMeta {
    pub name: String,
    pub fields: Vec<Field>,
    pub block_rows: usize,
    pub row_count: u64,
}

struct DirCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> DirCursor<'a> {
    fn take(&mut self, n: usize, path: &Path) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(bad(path, "truncated directory"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, path: &Path) -> Result<u8> {
        Ok(self.take(1, path)?[0])
    }

    fn u16(&mut self, path: &Path) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, path)?.try_into().unwrap()))
    }

    fn u64(&mut self, path: &Path) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, path)?.try_into().unwrap()))
    }

    fn str(&mut self, path: &Path) -> Result<String> {
        let n = self.u16(path)? as usize;
        let bytes = self.take(n, path)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad(path, "non-utf8 name in directory"))
    }
}

fn segment<'m>(map: &'m [u8], off: usize, len: usize, path: &Path) -> Result<&'m [u8]> {
    off.checked_add(len)
        .and_then(|end| map.get(off..end))
        .ok_or_else(|| bad(path, format!("segment [{off}, +{len}) out of file")))
}

/// Check data page `page` (1-based image page index), whose checksum is
/// `got`, against the sum stored at `sum_off + 8 * (page - 1)`.
fn check_page(map: &[u8], sum_off: usize, page: usize, got: u64, path: &Path) -> Result<()> {
    let at = sum_off + 8 * (page - 1);
    let stored = u64::from_le_bytes(map[at..at + 8].try_into().unwrap());
    if got != stored {
        note_corrupt_page();
        return Err(StorageError::CorruptPage {
            path: path.display().to_string(),
            page: page as u64,
            message: format!("checksum mismatch (stored {stored:#018x}, computed {got:#018x})"),
        });
    }
    Ok(())
}

impl TableImage {
    /// Validate the image in `map` and open its reader. `path` names the
    /// image in errors: the file, or the table for a heap image.
    pub(crate) fn open(map: Mmap, path: &Path) -> Result<(ImageMeta, TableImage)> {
        if map.len() >= 8 && &map[0..8] == MAGIC_V1 {
            return Err(bad(
                path,
                "unsupported format version SACTBL01 (re-persist with this build)",
            ));
        }
        if map.len() < HEADER_LEN || &map[0..8] != MAGIC {
            return Err(bad(path, "missing magic"));
        }
        let word = |i: usize| -> u64 {
            u64::from_le_bytes(map[8 + 8 * i..16 + 8 * i].try_into().unwrap())
        };
        // The header carries its own checksum in the final word; an image
        // whose header does not self-verify is rejected before any of its
        // offsets are trusted.
        if checksum(&map[0..HEADER_LEN - 8]) != word(HEADER_WORDS - 1) {
            return Err(bad(path, "header checksum mismatch"));
        }
        let page_size = word(0);
        if page_size != PAGE_SIZE as u64 {
            return Err(bad(path, format!("unsupported page size {page_size}")));
        }
        let row_count = word(1);
        let block_rows = word(2) as usize;
        let column_count = word(3) as usize;
        let dir_off = word(4) as usize;
        let dir_len = word(5) as usize;
        let sum_off = word(6) as usize;
        let sum_count = word(7) as usize;
        let dir_sum = word(8);
        if block_rows == 0 {
            return Err(bad(path, "zero block size"));
        }
        let rows = usize::try_from(row_count).map_err(|_| bad(path, "row count overflow"))?;
        if !sum_off.is_multiple_of(PAGE_SIZE) || sum_off / PAGE_SIZE != sum_count + 1 {
            return Err(bad(path, "checksum segment not covering the data region"));
        }
        let sums_len = sum_count
            .checked_mul(8)
            .ok_or_else(|| bad(path, "checksum segment overflow"))?;
        segment(&map, sum_off, sums_len, path)?;
        let dir_bytes = segment(&map, dir_off, dir_len, path)?;
        if dir_off < sum_off + sums_len {
            return Err(bad(path, "directory overlaps the checksummed region"));
        }
        if checksum(dir_bytes) != dir_sum {
            return Err(bad(path, "directory checksum mismatch"));
        }
        let mut cur = DirCursor {
            bytes: dir_bytes,
            pos: 0,
        };
        let name = cur.str(path)?;
        let mut fields = Vec::with_capacity(column_count);
        let mut cols = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            let col_name = cur.str(path)?;
            let dtype = dtype_from_code(cur.u8(path)?, path)?;
            let mut spans = [(0usize, 0usize); 3];
            for s in &mut spans {
                let off = cur.u64(path)? as usize;
                let len = cur.u64(path)? as usize;
                *s = (off, len);
            }
            let dict_entries = cur.u64(path)? as usize;
            let [data, validity, dict_span] = spans;
            // Every column segment must lie inside the checksummed data
            // region `[PAGE_SIZE, sum_off)` — anything else is a forged
            // directory (the directory checksum already verified, so this
            // only trips on a corrupted writer).
            let in_data_region = |(off, len): (usize, usize)| {
                len == 0
                    || (off >= PAGE_SIZE && off.checked_add(len).is_some_and(|end| end <= sum_off))
            };
            if !in_data_region(data) || !in_data_region(validity) || !in_data_region(dict_span) {
                return Err(bad(
                    path,
                    format!("column `{col_name}`: segment outside the checksummed region"),
                ));
            }
            if data.1 != data_len_for(dtype, rows) {
                return Err(bad(
                    path,
                    format!("column `{col_name}`: data segment length"),
                ));
            }
            segment(&map, data.0, data.1, path)?;
            let validity = if validity.1 == 0 {
                None
            } else {
                if validity.1 != rows.div_ceil(8) {
                    return Err(bad(path, format!("column `{col_name}`: validity length")));
                }
                segment(&map, validity.0, validity.1, path)?;
                Some(validity)
            };
            let dict = if dtype == DataType::Str {
                // Dictionaries are decoded here at open, so their pages are
                // verified eagerly (data/validity pages verify lazily at
                // first gather).
                if dict_span.1 > 0 {
                    let first = dict_span.0 / PAGE_SIZE;
                    let last = (dict_span.0 + dict_span.1 - 1) / PAGE_SIZE;
                    let sums = page_sums(&map[first * PAGE_SIZE..(last + 1) * PAGE_SIZE]);
                    for (page, got) in (first..=last).zip(sums) {
                        check_page(&map, sum_off, page, got, path)?;
                    }
                }
                let bytes = segment(&map, dict_span.0, dict_span.1, path)?;
                let mut entries: Vec<Arc<str>> = Vec::with_capacity(dict_entries);
                let mut pos = 0usize;
                for _ in 0..dict_entries {
                    if pos + 4 > bytes.len() {
                        return Err(bad(path, "truncated dictionary"));
                    }
                    let n = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                    pos += 4;
                    let s = bytes
                        .get(pos..pos + n)
                        .ok_or_else(|| bad(path, "truncated dictionary entry"))?;
                    pos += n;
                    entries.push(Arc::from(
                        std::str::from_utf8(s).map_err(|_| bad(path, "non-utf8 dictionary"))?,
                    ));
                }
                Some(Arc::new(entries))
            } else {
                None
            };
            fields.push(Field::new(col_name, dtype));
            cols.push(ImageCol {
                dtype,
                data,
                validity,
                dict,
            });
        }
        let words = sum_count.div_ceil(64);
        let meta = ImageMeta {
            name,
            fields,
            block_rows,
            row_count,
        };
        let image = TableImage {
            bytes: Arc::new(map),
            path: Arc::from(path.display().to_string().as_str()),
            cols,
            sums: (sum_off, sum_count),
            verified: Arc::new((0..words).map(|_| AtomicU64::new(0)).collect()),
        };
        Ok((meta, image))
    }

    /// The verified bitmap's word and bit for data page `page` (1-based
    /// image page index).
    fn verified_bit(&self, page: usize) -> (&AtomicU64, u64) {
        (&self.verified[(page - 1) / 64], 1 << ((page - 1) % 64))
    }

    /// Verify every data page overlapping the byte span `[off, off+len)`
    /// against its stored checksum, consulting and updating the per-open
    /// verified bitmap. Open-time validation pinned all column segments
    /// inside the checksummed region, so the page indices are always in
    /// range.
    fn verify_span(&self, off: usize, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let (first, last) = (off / PAGE_SIZE, (off + len - 1) / PAGE_SIZE);
        let unverified = |page: usize| {
            let (word, bit) = self.verified_bit(page);
            word.load(Ordering::Acquire) & bit == 0
        };
        if !(first..=last).any(unverified) {
            return Ok(());
        }
        let sums = page_sums(&self.bytes[first * PAGE_SIZE..(last + 1) * PAGE_SIZE]);
        for (page, got) in (first..=last).zip(sums) {
            check_page(&self.bytes, self.sums.0, page, got, Path::new(&*self.path))?;
            let (word, bit) = self.verified_bit(page);
            word.fetch_or(bit, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Byte span of rows `[start, end)` within column `col`'s data segment,
    /// then every covering page verified. Also covers the validity bytes.
    fn verify_cell_range(&self, col: usize, start: usize, end: usize) -> Result<()> {
        if start >= end {
            return Ok(());
        }
        let c = &self.cols[col];
        let (b0, b1) = match c.dtype {
            DataType::Bool => (start / 8, end.div_ceil(8)),
            DataType::Int | DataType::Float => (8 * start, 8 * end),
            DataType::Str => (4 * start, 4 * end),
        };
        self.verify_span(c.data.0 + b0, b1 - b0)?;
        if let Some((voff, _)) = c.validity {
            self.verify_span(voff + start / 8, end.div_ceil(8) - start / 8)?;
        }
        Ok(())
    }

    /// Verify every data page of the image.
    pub(crate) fn verify_all(&self) -> Result<()> {
        self.verify_span(PAGE_SIZE, self.sums.1 * PAGE_SIZE)
    }

    /// The whole image, as persisted.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn dict(&self, col: usize) -> &StrDict {
        self.cols[col].dict.as_ref().expect("str column has a dict")
    }

    /// Validity at `rows` in batch form: `None` when all of them are valid.
    fn validity(&self, col: usize, rows: impl Iterator<Item = usize>) -> Option<Vec<bool>> {
        let (off, len) = self.cols[col].validity?;
        let bytes = &self.bytes[off..off + len];
        let v: Vec<bool> = rows.map(|i| bit_at(bytes, i)).collect();
        if v.iter().all(|&b| b) {
            None
        } else {
            Some(v)
        }
    }

    fn data_bytes(&self, col: usize) -> &[u8] {
        let (off, len) = self.cols[col].data;
        &self.bytes[off..off + len]
    }

    /// Gather `[start, end)` of one column out of the image, decoding the
    /// range's bytes (one copy on a little-endian target). Pages touched
    /// for the first time are verified against their stored checksums.
    pub(crate) fn gather_range(&self, col: usize, start: usize, end: usize) -> Result<ColumnVec> {
        self.verify_cell_range(col, start, end)?;
        let bytes = self.data_bytes(col);
        let data = match self.cols[col].dtype {
            DataType::Bool => ColumnData::Bool((start..end).map(|i| bit_at(bytes, i)).collect()),
            DataType::Int => ColumnData::Int(words(&bytes[8 * start..8 * end])),
            DataType::Float => ColumnData::Float(words(&bytes[8 * start..8 * end])),
            DataType::Str => ColumnData::Str {
                dict: self.dict(col).clone(),
                codes: words(&bytes[4 * start..4 * end]),
            },
        };
        Ok(ColumnVec {
            data,
            validity: self.validity(col, start..end),
        })
    }

    /// Gather one column at selected `rows` (ascending, in bounds). The
    /// page span from the first to the last selected row is verified —
    /// selected rows always come from one bounded chunk, so the span is
    /// small.
    pub(crate) fn gather_rows(&self, col: usize, rows: &[usize]) -> Result<ColumnVec> {
        if let (Some(&first), Some(&last)) = (rows.first(), rows.last()) {
            self.verify_cell_range(col, first, last + 1)?;
        }
        let bytes = self.data_bytes(col);
        let data = match self.cols[col].dtype {
            DataType::Bool => ColumnData::Bool(rows.iter().map(|&i| bit_at(bytes, i)).collect()),
            DataType::Int => ColumnData::Int(
                rows.iter()
                    .map(|&i| i64::from_le_bytes(word_at(bytes, i)))
                    .collect(),
            ),
            DataType::Float => ColumnData::Float(
                rows.iter()
                    .map(|&i| f64::from_le_bytes(word_at(bytes, i)))
                    .collect(),
            ),
            DataType::Str => ColumnData::Str {
                dict: self.dict(col).clone(),
                codes: rows
                    .iter()
                    .map(|&i| u32::from_le_bytes(word_at(bytes, i)))
                    .collect(),
            },
        };
        Ok(ColumnVec {
            data,
            validity: self.validity(col, rows.iter().copied()),
        })
    }

    /// The value at (`row`, `col`), decoded directly from the image (its
    /// page checksum verified first).
    pub(crate) fn value(&self, row: usize, col: usize) -> Result<Value> {
        self.verify_cell_range(col, row, row + 1)?;
        if let Some((off, len)) = self.cols[col].validity {
            if !bit_at(&self.bytes[off..off + len], row) {
                return Ok(Value::Null);
            }
        }
        let bytes = self.data_bytes(col);
        Ok(match self.cols[col].dtype {
            DataType::Bool => Value::Bool(bit_at(bytes, row)),
            DataType::Int => Value::Int(i64::from_le_bytes(word_at(bytes, row))),
            DataType::Float => Value::Float(f64::from_le_bytes(word_at(bytes, row))),
            DataType::Str => {
                Value::Str(self.dict(col)[u32::from_le_bytes(word_at(bytes, row)) as usize].clone())
            }
        })
    }

    /// Number of columns.
    pub(crate) fn column_count(&self) -> usize {
        self.cols.len()
    }
}

/// Write `table`'s image to `path` (the `.sac` format). Returns the file
/// length in bytes. Every data page is verified first, so a damaged image
/// fails with [`StorageError::CorruptPage`] rather than being copied.
///
/// The bytes go to a sibling temporary file that is then renamed over
/// `path`. The image may be a map of `path` itself, which truncating in
/// place would empty under the reader; a rename leaves the mapped file
/// alive until it is unmapped, and a failed write never leaves a torn
/// `.sac` behind.
pub fn write_table_file(table: &Table, path: &Path) -> Result<u64> {
    let image = table.image();
    image.verify_all()?;
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io_err(path, "create", "not a file path"))?
        .to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let write = || -> Result<()> {
        let file = File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
        let mut out = BufWriter::new(file);
        out.write_all(image.bytes())
            .map_err(|e| io_err(&tmp, "write", e))?;
        out.flush().map_err(|e| io_err(&tmp, "flush", e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, "rename", e))
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(image.bytes().len() as u64)
}

/// Open the `.sac` file at `path` as a memory-mapped [`Table`].
pub fn open_table_file(path: &Path) -> Result<Table> {
    let (meta, image) = TableImage::open(Mmap::open(path)?, path)?;
    let schema = Schema::new(meta.fields)?.qualify_all(&meta.name);
    Ok(Table::from_image(
        meta.name,
        schema,
        meta.block_rows,
        meta.row_count,
        image,
    ))
}

/// Persist every table of `catalog` into `dir` as `<table>.sac` files.
/// Returns `(table name, file bytes)` per table, in catalog order.
pub fn persist_catalog(catalog: &Catalog, dir: &Path) -> Result<Vec<(String, u64)>> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create_dir_all", e))?;
    let mut out = Vec::new();
    for (name, table) in catalog.iter() {
        let path = dir.join(format!("{name}.{TABLE_EXT}"));
        let bytes = write_table_file(table, &path)?;
        out.push((name.to_string(), bytes));
    }
    Ok(out)
}

/// Open every `*.sac` file under `dir` as a mapped table and register them
/// in a fresh [`Catalog`].
pub fn open_catalog_dir(dir: &Path) -> Result<Catalog> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_err(dir, "read_dir", e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(TABLE_EXT))
        .collect();
    paths.sort();
    let mut catalog = Catalog::new();
    for p in &paths {
        catalog.register(open_table_file(p)?)?;
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed table spanning several pages of every column type, with
    /// NULLs in each (`k`'s first one past a validity page's worth of
    /// rows) and a non-default block size.
    fn pinned_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let mut b = crate::TableBuilder::new("pinned", schema).with_block_rows(100);
        for i in 0..40_000i64 {
            let null_if = |null: bool, v: Value| if null { Value::Null } else { v };
            b.push_row(&[
                null_if(i > 35_000 && i % 17 == 0, Value::Int(i * 31 - 5000)),
                null_if(i % 13 == 12, Value::Float(i as f64 / 7.0 - 100.0)),
                null_if(i % 7 == 3, Value::str(format!("w{}", i % 53))),
                null_if(i % 5 == 4, Value::Bool(i % 3 == 0)),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    fn pinned_file_checksum() -> (u64, usize) {
        let path = std::env::temp_dir().join(format!("sa-format-pin-{}.sac", std::process::id()));
        pinned_table().persist(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (checksum(&bytes), bytes.len())
    }

    /// The persisted bytes of a fixed table, pinned by checksum and length:
    /// any change to the `.sac` layout or encoding fails here by name (and
    /// must then bump [`MAGIC`]'s format version).
    #[test]
    fn sac_bytes_are_pinned() {
        assert_eq!(pinned_file_checksum(), (0xf8a7_8ace_19df_b7c2, 864_504));
    }
}
