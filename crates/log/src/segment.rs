//! One append-only log segment: an mmap'd file holding a fixed-width
//! index block and a CRC-framed data region.
//!
//! ```text
//! ┌────────────────┬──────────────────────┬─────────────────────────┐
//! │ header (4 KiB) │ index (cap × 40 B)   │ data region             │
//! └────────────────┴──────────────────────┴─────────────────────────┘
//! ```
//!
//! Records are keyed by a dense global sequence number: record `i` of a
//! segment with base sequence `b` holds seq `b + i`, so lookups are pure
//! arithmetic — no search. The write protocol is data bytes first, then
//! the index entry, then the committed count in the header; recovery
//! trusts only records `0..committed` *and* re-validates each against
//! its index geometry and CRC, truncating the tail at the first record
//! that fails. A torn write therefore costs at most the records after
//! the last complete one, never the segment.
//!
//! Committed bytes are never rewritten: an append stores only past the
//! last committed record. That is what lets [`Segment::read`] hand out a
//! [`Record`] — a view of the mapped bytes themselves, checked against
//! the stored CRC first — instead of a copy.

use crate::mmap::SharedMapping;
use crate::{crc32, Crc32, LogError, Result};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `b"TSLOG001"` little-endian.
const MAGIC: u64 = u64::from_le_bytes(*b"TSLOG001");
const VERSION: u32 = 1;
/// Header page size; index block starts here.
pub(crate) const HEADER_BYTES: usize = 4096;
/// Fixed-width index entry size.
pub(crate) const ENTRY_BYTES: usize = 40;

// Header field offsets.
const H_MAGIC: usize = 0;
const H_VERSION: usize = 8;
const H_SHARD: usize = 12;
const H_BASE_SEQ: usize = 16;
const H_INDEX_CAP: usize = 24;
const H_DATA_CAP: usize = 32;
const H_COMMITTED: usize = 40;
const H_SEALED: usize = 48;

/// XOR'd into the stored per-entry sequence number. Without it an
/// all-zero index entry (a torn write, or never-written bytes) for seq 0
/// would validate as a legitimate empty record — epoch 0, offset 0,
/// len 0, and CRC-32 of zero bytes is 0. The salt makes "never written"
/// distinguishable from "committed" for every field pattern a fresh or
/// zero-torn file can contain.
const SEQ_SALT: u64 = u64::from_le_bytes(*b"TSLOGSEQ");

// Index entry field offsets.
const E_EPOCH: usize = 0;
const E_INDEX_IN_EPOCH: usize = 8;
const E_OFFSET: usize = 16;
const E_LEN: usize = 24;
const E_CRC: usize = 28;
const E_SEQ: usize = 32;

/// Metadata of one committed record, read from the index block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Global sequence number.
    pub seq: u64,
    /// Epoch the batch belongs to.
    pub epoch: u64,
    /// Batch index within its epoch.
    pub index_in_epoch: u64,
    /// Encoded frame length in bytes.
    pub len: u32,
}

/// One record's payload, read in place: a view of the segment's mapped
/// data region, handed out by [`Segment::read`] only after the bytes
/// matched the stored CRC.
///
/// The handle shares ownership of the mapping, so it stays valid — and
/// keeps the pages mapped — for as long as it lives: past rotation, past
/// the log handle itself, and past retention unlinking the segment file
/// (the kernel frees an unlinked file's pages when the last mapping of it
/// goes, which is when the last handle drops). A handle costs no memory
/// of its own, but it pins its whole segment — address space, page cache
/// and, once unlinked, disk blocks: hold one for a send, not for good.
pub struct Record {
    map: Arc<SharedMapping>,
    start: usize,
    len: usize,
}

impl Deref for Record {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `Segment::read` checked `start + len` against the mapped
        // length before building the handle, the `Arc` keeps the mapping
        // alive, and the range covers committed bytes only, which no
        // append ever stores to again.
        unsafe { std::slice::from_raw_parts(self.map.ptr().add(self.start), self.len) }
    }
}

impl AsRef<[u8]> for Record {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// One mmap'd segment file.
pub struct Segment {
    map: Arc<SharedMapping>,
    path: PathBuf,
    base_seq: u64,
    index_cap: u64,
    data_cap: u64,
    committed: u64,
    /// Data-region bytes used by records `0..committed`.
    data_used: u64,
    sealed: bool,
}

impl Segment {
    /// The file name a segment with this base sequence uses.
    pub fn file_name(base_seq: u64) -> String {
        format!("seg-{base_seq:020}.tslog")
    }

    /// Parses a segment file name back to its base sequence.
    pub fn parse_file_name(name: &str) -> Option<u64> {
        name.strip_prefix("seg-")?
            .strip_suffix(".tslog")?
            .parse()
            .ok()
    }

    /// Header + index + data bytes; `None` when that overflows (a damaged
    /// header can claim anything).
    fn file_size(index_cap: u64, data_cap: u64) -> Option<usize> {
        let index = usize::try_from(index_cap).ok()?.checked_mul(ENTRY_BYTES)?;
        let data = usize::try_from(data_cap).ok()?;
        HEADER_BYTES.checked_add(index)?.checked_add(data)
    }

    /// Creates a fresh segment pre-sized for `index_cap` records and
    /// `data_cap` payload bytes.
    pub fn create(
        dir: &Path,
        shard: u32,
        base_seq: u64,
        index_cap: u64,
        data_cap: u64,
    ) -> Result<Segment> {
        if index_cap == 0 || data_cap == 0 {
            return Err(LogError::Config("segment capacity must be non-zero".into()));
        }
        let path = dir.join(Self::file_name(base_seq));
        let size = Self::file_size(index_cap, data_cap)
            .ok_or_else(|| LogError::Config("segment capacity overflows".into()))?;
        let map = SharedMapping::create(&path, size)
            .map_err(|e| LogError::Io(format!("create {}: {e}", path.display())))?;
        let mut seg = Segment {
            map: Arc::new(map),
            path,
            base_seq,
            index_cap,
            data_cap,
            committed: 0,
            data_used: 0,
            sealed: false,
        };
        seg.put_u64(H_MAGIC, MAGIC);
        seg.put_u32(H_VERSION, VERSION);
        seg.put_u32(H_SHARD, shard);
        seg.put_u64(H_BASE_SEQ, base_seq);
        seg.put_u64(H_INDEX_CAP, index_cap);
        seg.put_u64(H_DATA_CAP, data_cap);
        seg.put_u64(H_COMMITTED, 0);
        seg.put_u32(H_SEALED, 0);
        Ok(seg)
    }

    /// Opens an existing segment and recovers it: the committed count is
    /// clamped to what the file can hold, every committed record is
    /// re-validated (index geometry, stored seq, CRC over the data
    /// bytes), and the tail is truncated at the first record that fails —
    /// the segment reopens at its last complete record.
    pub fn open(path: &Path) -> Result<Segment> {
        let map = SharedMapping::open(path).map_err(|e| match e.kind() {
            // An empty file: truncated, not unreadable.
            std::io::ErrorKind::InvalidData => {
                LogError::Corrupt(format!("{}: {e}", path.display()))
            }
            _ => LogError::Io(format!("open {}: {e}", path.display())),
        })?;
        if map.len() < HEADER_BYTES {
            return Err(LogError::Corrupt(format!(
                "{}: shorter than a segment header",
                path.display()
            )));
        }
        let mut seg = Segment {
            map: Arc::new(map),
            path: path.to_path_buf(),
            base_seq: 0,
            index_cap: 0,
            data_cap: 0,
            committed: 0,
            data_used: 0,
            sealed: false,
        };
        if seg.get_u64(H_MAGIC) != MAGIC {
            return Err(LogError::Corrupt(format!(
                "{}: bad magic",
                seg.path.display()
            )));
        }
        if seg.get_u32(H_VERSION) != VERSION {
            return Err(LogError::Corrupt(format!(
                "{}: unsupported segment version {}",
                seg.path.display(),
                seg.get_u32(H_VERSION)
            )));
        }
        seg.base_seq = seg.get_u64(H_BASE_SEQ);
        seg.index_cap = seg.get_u64(H_INDEX_CAP);
        seg.data_cap = seg.get_u64(H_DATA_CAP);
        seg.sealed = seg.get_u32(H_SEALED) != 0;
        if Self::file_size(seg.index_cap, seg.data_cap) != Some(seg.map.len()) {
            return Err(LogError::Corrupt(format!(
                "{}: header geometry does not match file size",
                seg.path.display()
            )));
        }
        // Lookups go by the header's base, the chain is ordered by the
        // name's: they must agree or reads would answer for the wrong seq.
        let named = path
            .file_name()
            .and_then(|n| Self::parse_file_name(n.to_str()?));
        if named.is_some_and(|base| base != seg.base_seq) {
            return Err(LogError::Corrupt(format!(
                "{}: header base sequence {} does not match the file name",
                seg.path.display(),
                seg.base_seq
            )));
        }
        // Recovery: trust nothing past the first record that does not
        // check out. A torn tail (data without index, index without
        // count, or a half-written record under any of them) truncates
        // here, and appending resumes after the last complete record.
        let claimed = seg.get_u64(H_COMMITTED).min(seg.index_cap);
        let mut good = 0u64;
        let mut data_used = 0u64;
        for i in 0..claimed {
            let (epoch, index_in_epoch, offset, len, crc, stored_seq) = seg.read_entry(i);
            let _ = (epoch, index_in_epoch);
            let end = offset.checked_add(len as u64);
            let in_bounds = offset == data_used && end.is_some_and(|e| e <= seg.data_cap);
            if !in_bounds || Some(stored_seq) != seg.base_seq.checked_add(i) {
                break;
            }
            let bytes = seg.data_slice(offset, len as usize);
            if crc32(bytes) != crc {
                break;
            }
            good = i + 1;
            data_used = offset + len as u64;
        }
        seg.committed = good;
        seg.data_used = data_used;
        seg.put_u64(H_COMMITTED, good);
        Ok(seg)
    }

    /// First sequence number this segment holds.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// One past the last committed sequence number.
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.committed
    }

    /// Committed records.
    pub fn len(&self) -> u64 {
        self.committed
    }

    /// True when no record has been committed.
    pub fn is_empty(&self) -> bool {
        self.committed == 0
    }

    /// True once [`Segment::seal`] ran (rotation): no further appends.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a `len`-byte record still fits.
    pub fn has_room(&self, len: usize) -> bool {
        !self.sealed
            && self.committed < self.index_cap
            && self.data_used + len as u64 <= self.data_cap
    }

    /// Marks the segment full; rotation opens a successor.
    pub fn seal(&mut self) {
        self.sealed = true;
        self.put_u32(H_SEALED, 1);
    }

    /// Appends one record whose payload is the concatenation of `chunks`:
    /// each chunk is copied into the data region where it belongs while
    /// the CRC is folded over it, so a caller holding a frame in pieces
    /// (head bytes here, tensor memory there) never joins them first. The
    /// caller guarantees [`Segment::has_room`]; the assigned sequence
    /// number is returned.
    pub fn append_chunks(
        &mut self,
        epoch: u64,
        index_in_epoch: u64,
        chunks: &[&[u8]],
    ) -> Result<u64> {
        let len: usize = chunks.iter().map(|c| c.len()).sum();
        let Ok(len32) = u32::try_from(len) else {
            return Err(LogError::Config(format!(
                "a {len}-byte record exceeds the index entry's 32-bit length"
            )));
        };
        if !self.has_room(len) {
            return Err(LogError::Config("append into a full segment".into()));
        }
        let i = self.committed;
        let seq = self.base_seq + i;
        let offset = self.data_used;
        // Write order is the recovery contract: payload bytes, then the
        // index entry, then the committed count. Whatever prefix of that
        // survives a crash, recovery lands on a complete record. NOTE
        // this ordering exists only in memory — after a process crash
        // (`kill -9`) the kernel still holds every store, but on host
        // power loss page writeback may persist the committed count
        // before the data it covers; callers who need power-fail safety
        // must interpose [`Segment::sync`] (recovery's CRC check catches
        // most — not all — such reorderings after the fact).
        let mut crc = Crc32::new();
        let mut at = offset;
        for chunk in chunks {
            self.data_slice_mut(at, chunk.len()).copy_from_slice(chunk);
            crc.update(chunk);
            at += chunk.len() as u64;
        }
        self.write_entry(i, epoch, index_in_epoch, offset, len32, crc.finish(), seq);
        self.committed = i + 1;
        self.data_used = at;
        self.put_u64(H_COMMITTED, self.committed);
        Ok(seq)
    }

    /// Reads record `seq` in place: `Ok(None)` when this segment does not
    /// hold it, `Err(Corrupt)` when it does but the stored bytes no longer
    /// match the index (geometry or CRC — damage since the record was
    /// committed or recovered). The CRC is checked over the mapped bytes
    /// on every call, before the handle exists; nothing is copied.
    pub fn read(&self, seq: u64) -> Result<Option<Record>> {
        let Some(i) = seq
            .checked_sub(self.base_seq)
            .filter(|i| *i < self.committed)
        else {
            return Ok(None);
        };
        let (_, _, offset, len, crc, _) = self.read_entry(i);
        let corrupt =
            |what: &str| LogError::Corrupt(format!("{}: record {seq} {what}", self.path.display()));
        // The index lives in the same file as the data: re-check the
        // geometry it claims before touching memory on its word.
        if offset
            .checked_add(len as u64)
            .is_none_or(|e| e > self.data_cap)
        {
            return Err(corrupt("lies outside the data region"));
        }
        if crc32(self.data_slice(offset, len as usize)) != crc {
            return Err(corrupt("fails its CRC"));
        }
        Ok(Some(Record {
            map: self.map.clone(),
            start: self.data_base() + offset as usize,
            len: len as usize,
        }))
    }

    /// Reads record `seq`'s index metadata (no payload copy).
    pub fn meta(&self, seq: u64) -> Option<RecordMeta> {
        let i = seq.checked_sub(self.base_seq)?;
        if i >= self.committed {
            return None;
        }
        let (epoch, index_in_epoch, _, len, _, _) = self.read_entry(i);
        Some(RecordMeta {
            seq,
            epoch,
            index_in_epoch,
            len,
        })
    }

    /// Payload bytes committed so far.
    pub fn data_used(&self) -> u64 {
        self.data_used
    }

    /// Synchronously flushes the segment's dirty pages to disk
    /// (`msync(MS_SYNC)`): the opt-in barrier that upgrades the
    /// process-crash durability of the commit protocol to power-fail
    /// durability for everything committed so far.
    pub fn sync(&self) -> Result<()> {
        self.map
            .sync()
            .map_err(|e| LogError::Io(format!("msync {}: {e}", self.path.display())))
    }

    // -- raw accessors ----------------------------------------------------

    fn entry_base(&self, i: u64) -> usize {
        HEADER_BYTES + i as usize * ENTRY_BYTES
    }

    #[allow(clippy::type_complexity)]
    fn read_entry(&self, i: u64) -> (u64, u64, u64, u32, u32, u64) {
        let b = self.entry_base(i);
        (
            self.get_u64(b + E_EPOCH),
            self.get_u64(b + E_INDEX_IN_EPOCH),
            self.get_u64(b + E_OFFSET),
            self.get_u32(b + E_LEN),
            self.get_u32(b + E_CRC),
            self.get_u64(b + E_SEQ) ^ SEQ_SALT,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn write_entry(
        &mut self,
        i: u64,
        epoch: u64,
        index_in_epoch: u64,
        offset: u64,
        len: u32,
        crc: u32,
        seq: u64,
    ) {
        let b = self.entry_base(i);
        self.put_u64(b + E_EPOCH, epoch);
        self.put_u64(b + E_INDEX_IN_EPOCH, index_in_epoch);
        self.put_u64(b + E_OFFSET, offset);
        self.put_u32(b + E_LEN, len);
        self.put_u32(b + E_CRC, crc);
        self.put_u64(b + E_SEQ, seq ^ SEQ_SALT);
    }

    fn data_base(&self) -> usize {
        HEADER_BYTES + self.index_cap as usize * ENTRY_BYTES
    }

    fn data_slice(&self, offset: u64, len: usize) -> &[u8] {
        let start = self.data_base() + offset as usize;
        // SAFETY: every caller (append, recovery, read) bounds-checked
        // offset + len against data_cap first, and `open`/`create` checked
        // that the mapping covers header + index + data_cap.
        unsafe { std::slice::from_raw_parts(self.map.ptr().add(start), len) }
    }

    fn data_slice_mut(&mut self, offset: u64, len: usize) -> &mut [u8] {
        let start = self.data_base() + offset as usize;
        // SAFETY: as data_slice, plus single-writer (`&mut self`; the
        // owning BatchLog serializes appends) and the range lies past
        // every committed record, so no `Record` handle views it.
        unsafe { std::slice::from_raw_parts_mut(self.map.ptr().add(start), len) }
    }

    fn get_u64(&self, offset: usize) -> u64 {
        debug_assert!(offset + 8 <= self.map.len());
        // Safety: in-bounds unaligned read of plain bytes.
        unsafe { (self.map.ptr().add(offset) as *const u64).read_unaligned() }
    }

    fn put_u64(&mut self, offset: usize, v: u64) {
        debug_assert!(offset + 8 <= self.map.len());
        // Safety: in-bounds unaligned write; single writer.
        unsafe { (self.map.ptr().add(offset) as *mut u64).write_unaligned(v) }
    }

    fn get_u32(&self, offset: usize) -> u32 {
        debug_assert!(offset + 4 <= self.map.len());
        // Safety: in-bounds unaligned read of plain bytes.
        unsafe { (self.map.ptr().add(offset) as *const u32).read_unaligned() }
    }

    fn put_u32(&mut self, offset: usize, v: u32) {
        debug_assert!(offset + 4 <= self.map.len());
        // Safety: in-bounds unaligned write; single writer.
        unsafe { (self.map.ptr().add(offset) as *mut u32).write_unaligned(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::tests::reference;
    use crate::{BatchLog, LogConfig};

    /// A segment image laid out by hand, field by field, with every index
    /// CRC from the bitwise reference — what any earlier build of this
    /// crate wrote, whichever loop it computed the CRC with.
    fn image_with_reference_crcs(base_seq: u64, index_cap: u64, records: &[Vec<u8>]) -> Vec<u8> {
        let data_cap: u64 = records.iter().map(|r| r.len() as u64).sum::<u64>() + 100;
        let mut file = vec![0u8; Segment::file_size(index_cap, data_cap).unwrap()];
        let mut put = |at: usize, bytes: &[u8]| file[at..at + bytes.len()].copy_from_slice(bytes);
        put(H_MAGIC, b"TSLOG001");
        put(H_VERSION, &1u32.to_le_bytes());
        put(H_SHARD, &0u32.to_le_bytes());
        put(H_BASE_SEQ, &base_seq.to_le_bytes());
        put(H_INDEX_CAP, &index_cap.to_le_bytes());
        put(H_DATA_CAP, &data_cap.to_le_bytes());
        put(H_COMMITTED, &(records.len() as u64).to_le_bytes());
        let data_base = HEADER_BYTES + index_cap as usize * ENTRY_BYTES;
        let mut offset = 0u64;
        for (i, record) in records.iter().enumerate() {
            let entry = HEADER_BYTES + i * ENTRY_BYTES;
            let seq = base_seq + i as u64;
            put(entry + E_EPOCH, &(seq / 4).to_le_bytes());
            put(entry + E_INDEX_IN_EPOCH, &(seq % 4).to_le_bytes());
            put(entry + E_OFFSET, &offset.to_le_bytes());
            put(entry + E_LEN, &(record.len() as u32).to_le_bytes());
            put(entry + E_CRC, &reference(record).to_le_bytes());
            put(entry + E_SEQ, &(seq ^ SEQ_SALT).to_le_bytes());
            put(data_base + offset as usize, record);
            offset += record.len() as u64;
        }
        file
    }

    #[test]
    fn a_segment_written_with_the_reference_crc_opens_recovers_and_reads() {
        let dir = std::env::temp_dir().join(format!("ts-log-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        // Lengths on every side of the eight-byte loop, one empty.
        let records: Vec<Vec<u8>> = [0usize, 1, 7, 8, 9, 63, 64, 65, 4_099]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|b| (b * 31 + i * 7) as u8).collect())
            .collect();
        let path = dir.join("shard-0").join(Segment::file_name(40));
        std::fs::write(&path, image_with_reference_crcs(40, 16, &records)).unwrap();
        let mut log = BatchLog::open(&LogConfig::new(&dir), 0).unwrap();
        assert_eq!(log.retained_range(), Some((40, 48)), "nothing truncated");
        for (i, record) in records.iter().enumerate() {
            let seq = 40 + i as u64;
            assert_eq!(&log.read(seq).unwrap()[..], *record, "seq {seq}");
            let meta = log.meta(seq).unwrap();
            assert_eq!((meta.epoch, meta.index_in_epoch), (seq / 4, seq % 4));
        }
        assert_eq!(log.read_corrupt(), 0);
        // ... and takes appends where the old writer stopped, which read
        // back beside the old records after another reopen.
        log.append_chunks(49, 12, 1, &[b"new ", b"", b"record"])
            .unwrap();
        drop(log);
        let log = BatchLog::open(&LogConfig::new(&dir), 0).unwrap();
        assert_eq!(&log.read(49).unwrap()[..], b"new record");
        assert_eq!(&log.read(48).unwrap()[..], records[8]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
