//! # ts-log — durable epoch batch log
//!
//! An mmap'd, offset-addressed log of published batches, giving the
//! TensorSocket producer a durable replay source so late or restarted
//! consumers can catch up at disk speed instead of pinning live arena
//! slots (the rubberband path).
//!
//! ## Layout
//!
//! Each shard logs into its own directory of append-only segment files:
//!
//! ```text
//! <dir>/shard-<N>/seg-<base_seq>.tslog    record payloads + index
//! <dir>/cursors/<group>.s<N>.cursor       per-group resume cursors
//! ```
//!
//! A segment is a fixed-geometry mmap'd file — 4 KiB header, fixed-width
//! index block, data region — holding a dense range of sequence numbers
//! starting at its `base_seq`. Records are CRC-framed; the commit
//! protocol (data, then index entry, then committed count) means
//! reopening after a crash truncates a torn tail back to the last
//! complete record. Rotation seals a full segment and opens a successor
//! at the next sequence number; retention deletes the oldest sealed
//! segments, but never one that a registered consumer-group cursor still
//! needs.
//!
//! ## Durability
//!
//! The commit protocol's write ordering lives in CPU stores, not on the
//! platter: the log is durable against **process crash** (`kill -9`,
//! panic, OOM-kill — the kernel retains every completed store and
//! writes it back), but on **host power loss** page writeback may
//! persist the committed count before the data/index it covers, and
//! recovery would then trust a record whose payload bytes never hit
//! disk (the per-record CRC catches nearly all such torn states, but
//! only probabilistically). Deployments that need power-fail safety
//! should call [`BatchLog::sync`] (or [`Segment::sync`]) at a
//! checkpoint cadence — an explicit `msync(MS_SYNC)` barrier — and
//! treat everything synced as power-fail durable.
//!
//! ## Cursors
//!
//! A [`CursorStore`] persists, per `(group, shard)`, the next sequence
//! number the group has not yet acknowledged. Every persisted write is
//! atomic (tmp + rename), so `kill -9` at any moment leaves a
//! consistent resume point. Advances come write-through
//! ([`CursorStore::advance`]) or coalesced ([`CursorStore::advance_mem`]
//! then [`CursorStore::flush`]); a caller flushing at a bounded cadence
//! accepts that a crash re-delivers at most one flush interval of acked
//! batches — cursor regressions are ignored, so re-delivery is safe.
//! A cursor file is 16 bytes: the value, then a check word that mixes
//! every bit of it (see `cursor.rs`). That word is the format, and it
//! stays:
//!
//! * no check of the form `value ^ salt` can see a flip laid over both
//!   words of a 16-byte pair, so the check word is a mixing function;
//! * a file that fails the check loads as "no cursor": the group replays
//!   from the oldest retained record — it may see batches again, it never
//!   skips one;
//! * a file written by a build whose check word was `value ^ salt` fails
//!   the check like any damaged file, and so reads as "no cursor" too.
//!
//! The payload bytes stored here are the producer's encoded
//! streamed-batch frames, written and read verbatim — replay sends the
//! very bytes a live streamed subscriber would have seen, which is what
//! makes log-replay-then-live-splice bit-identical.
//!
//! ## What a byte costs
//!
//! Every stored byte is covered by a CRC-32 (IEEE) that is checked on
//! every path that trusts it: written by `append`, re-checked by every
//! `read` and, for each committed record, by `open`'s recovery. Nothing
//! is verified lazily, so the check has to run at memory speed: it sits
//! on the producer's replay path once per frame, under the log's lock.
//!
//! * **Where the fold runs.** On x86-64 with `pclmulqdq` and SSE4.1,
//!   [`Crc32::update`] folds every chunk of 128 bytes or more with a
//!   carry-less multiply, 64 bytes per step: a 384 KiB record in cache
//!   checks at 24–27 GiB/s (14–16 µs) on a 2-vCPU x86-64 VM, against
//!   1.4–1.6 GiB/s (230–260 µs) for the table loop, so a record read
//!   from memory checks at the speed memory delivers it.
//! * **How it is chosen.** By CPU detection, once per process
//!   (`is_x86_feature_detected!`); [`crc_loop`] names the choice and
//!   [`BatchLog::open`] reports it on stderr the first time a log opens.
//!   There is no option to set.
//! * **The fallback.** Slicing-by-8 takes the tail under 16 bytes, every
//!   chunk under 128 bytes and every CPU without the instructions. It
//!   computes the same value: the polynomial, the stored CRCs, the
//!   segment layout and `VERSION` 1 are the same under either loop, and a
//!   segment written under one opens under the other.
//!
//! * **Append** passes over the payload once: [`BatchLog::append_chunks`]
//!   takes the record as the pieces the caller holds (an encoded frame's
//!   head bytes and tensor memory), copies each into the mapping and
//!   folds the CRC over it on the way. [`BatchLog::append`] is the
//!   one-piece case.
//! * **Read** copies nothing: [`BatchLog::read`] checks the CRC over the
//!   mapped bytes and returns a [`Record`], a view that shares ownership
//!   of the segment's mapping. It derefs to the bytes for as long as it
//!   lives — across threads, past rotation, past the `BatchLog` itself —
//!   and an unlinked segment's pages go back to the kernel when the last
//!   handle on it drops. That is sound because committed bytes are never
//!   rewritten: appends only ever store past the last committed record.
//! * A record that is retained but no longer matches its index entry
//!   reads as `None`, like one retention dropped, but is counted apart
//!   ([`BatchLog::read_corrupt`]) and reported once with its segment.

mod crc;
mod cursor;
mod mmap;
mod segment;

pub use crc::{crc32, crc_loop, Crc32};
pub use cursor::CursorStore;
pub use segment::{Record, RecordMeta, Segment};

use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors surfaced by the log.
#[derive(Debug)]
pub enum LogError {
    /// Filesystem or mapping failure.
    Io(String),
    /// A file failed structural validation.
    Corrupt(String),
    /// Invalid configuration or API misuse.
    Config(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(m) => write!(f, "log io error: {m}"),
            LogError::Corrupt(m) => write!(f, "log corrupt: {m}"),
            LogError::Config(m) => write!(f, "log config error: {m}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Result alias for log operations.
pub type Result<T> = std::result::Result<T, LogError>;

/// Configuration for a [`BatchLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Root directory; shard subdirectories and the cursor store live
    /// under it.
    pub dir: PathBuf,
    /// Records per segment before rotation.
    pub segment_records: u64,
    /// Data-region bytes per segment before rotation.
    pub segment_bytes: u64,
    /// Sealed segments to retain beyond the active one. Retention never
    /// deletes a segment a registered group cursor still needs,
    /// whatever this says.
    pub retain_segments: usize,
}

impl LogConfig {
    /// A log rooted at `dir` with default segment geometry (1024 records
    /// or 64 MiB per segment, 8 sealed segments retained).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogConfig {
            dir: dir.into(),
            segment_records: 1024,
            segment_bytes: 64 << 20,
            retain_segments: 8,
        }
    }
}

/// The append/read half of the log for one shard: a chain of segments
/// plus rotation and retention.
///
/// Single-writer: the producer's spiller thread appends; replay reads go
/// through the same handle (callers serialize with a mutex). Sequence
/// numbers are assigned by the caller's publish order and must be dense
/// and monotonic — [`BatchLog::append`] enforces this.
pub struct BatchLog {
    cfg: LogConfig,
    shard_dir: PathBuf,
    shard: u32,
    /// Oldest → newest; the last is the active (unsealed) segment.
    segments: Vec<Segment>,
    appended_bytes: u64,
    /// Reads that found their record damaged (a statistic: `Relaxed`).
    read_corrupt: AtomicU64,
}

impl BatchLog {
    /// Opens shard `shard` of the log rooted at `cfg.dir`, creating the
    /// directory tree on first use and recovering any existing segments
    /// (each truncates its own torn tail; segments left empty by
    /// recovery are deleted).
    pub fn open(cfg: &LogConfig, shard: u32) -> Result<BatchLog> {
        if cfg.segment_records == 0 || cfg.segment_bytes == 0 {
            return Err(LogError::Config("segment geometry must be non-zero".into()));
        }
        static REPORTED: std::sync::Once = std::sync::Once::new();
        REPORTED.call_once(|| eprintln!("ts-log: records checked with CRC-32 by {}", crc_loop()));
        let shard_dir = cfg.dir.join(format!("shard-{shard}"));
        fs::create_dir_all(&shard_dir)
            .map_err(|e| LogError::Io(format!("create {}: {e}", shard_dir.display())))?;
        let mut bases: Vec<u64> = fs::read_dir(&shard_dir)
            .map_err(|e| LogError::Io(format!("read {}: {e}", shard_dir.display())))?
            .flatten()
            .filter_map(|e| Segment::parse_file_name(e.file_name().to_str()?))
            .collect();
        bases.sort_unstable();
        let mut segments = Vec::with_capacity(bases.len());
        for base in bases {
            let seg = Segment::open(&shard_dir.join(Segment::file_name(base)))?;
            segments.push(seg);
        }
        // Recovery may leave trailing empty segments (rotation created the
        // file, crash hit before the first commit): drop them so the next
        // append re-creates the tail at the right sequence number.
        while segments.last().is_some_and(|s| s.is_empty()) {
            let seg = segments.pop().unwrap();
            let _ = fs::remove_file(seg.path());
        }
        // Anything but the last segment is by definition no longer
        // written; mark sealed so retention can reason uniformly.
        let n = segments.len();
        for seg in segments.iter_mut().take(n.saturating_sub(1)) {
            if !seg.sealed() {
                seg.seal();
            }
        }
        Ok(BatchLog {
            cfg: cfg.clone(),
            shard_dir,
            shard,
            segments,
            appended_bytes: 0,
            read_corrupt: AtomicU64::new(0),
        })
    }

    /// The shard this log handle serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Appends the record for `seq` (an encoded streamed-batch frame).
    /// `seq` must be exactly [`BatchLog::next_seq`] when the log is
    /// non-empty; the first append fixes the log's origin.
    pub fn append(
        &mut self,
        seq: u64,
        epoch: u64,
        index_in_epoch: u64,
        payload: &[u8],
    ) -> Result<()> {
        self.append_chunks(seq, epoch, index_in_epoch, &[payload])
    }

    /// [`BatchLog::append`] of a payload held in pieces: the record is the
    /// concatenation of `chunks`, each copied into the segment's mapping
    /// once while the CRC is folded over it — no joined intermediate, no
    /// allocation. The stored bytes and CRC are exactly what `append` of
    /// the joined payload would store.
    pub fn append_chunks(
        &mut self,
        seq: u64,
        epoch: u64,
        index_in_epoch: u64,
        chunks: &[&[u8]],
    ) -> Result<()> {
        if let Some(next) = self.next_seq() {
            if seq != next {
                return Err(LogError::Config(format!(
                    "non-contiguous append: got seq {seq}, expected {next}"
                )));
            }
        }
        let len: usize = chunks.iter().map(|c| c.len()).sum();
        if self.segments.last().is_none_or(|s| !s.has_room(len)) {
            self.rotate(seq, len)?;
        }
        let seg = self.segments.last_mut().unwrap();
        seg.append_chunks(epoch, index_in_epoch, chunks)?;
        self.appended_bytes += len as u64;
        Ok(())
    }

    fn rotate(&mut self, base_seq: u64, min_data: usize) -> Result<()> {
        if let Some(last) = self.segments.last_mut() {
            last.seal();
        }
        // A payload larger than the configured segment size gets a
        // segment grown to fit rather than an error.
        let data_cap = self.cfg.segment_bytes.max(min_data as u64);
        let seg = Segment::create(
            &self.shard_dir,
            self.shard,
            base_seq,
            self.cfg.segment_records,
            data_cap,
        )?;
        self.segments.push(seg);
        Ok(())
    }

    /// Reads the payload stored for `seq` in place — a [`Record`] viewing
    /// the mapped bytes, CRC-checked on every call, nothing copied — or
    /// `None` when there is nothing to hand out: retention dropped the
    /// record (or it was never logged), or it is there but damaged. The
    /// second case is counted ([`BatchLog::read_corrupt`]) and the first
    /// occurrence logged with the segment's path, so a hole in a replay
    /// has a name.
    pub fn read(&self, seq: u64) -> Option<Record> {
        match self.find(seq)?.read(seq) {
            Ok(record) => record,
            Err(e) => {
                if self.read_corrupt.fetch_add(1, Ordering::Relaxed) == 0 {
                    eprintln!(
                        "ts-log: shard {} cannot serve seq {seq} ({e}); further damaged \
                         reads are counted in read_corrupt",
                        self.shard
                    );
                }
                None
            }
        }
    }

    /// Reads that found their record retained but damaged (index geometry
    /// or CRC mismatch) since this handle was opened.
    pub fn read_corrupt(&self) -> u64 {
        self.read_corrupt.load(Ordering::Relaxed)
    }

    /// Reads the index metadata stored for `seq`, if retained.
    pub fn meta(&self, seq: u64) -> Option<RecordMeta> {
        self.find(seq)?.meta(seq)
    }

    fn find(&self, seq: u64) -> Option<&Segment> {
        let i = self
            .segments
            .partition_point(|s| s.base_seq() <= seq)
            .checked_sub(1)?;
        Some(&self.segments[i])
    }

    /// The inclusive range of retained sequence numbers, oldest to
    /// newest, or `None` while the log is empty.
    pub fn retained_range(&self) -> Option<(u64, u64)> {
        let first = self.segments.first()?.base_seq();
        let last = self.segments.last()?.next_seq().checked_sub(1)?;
        if last < first {
            return None;
        }
        Some((first, last))
    }

    /// One past the newest logged sequence number.
    pub fn next_seq(&self) -> Option<u64> {
        self.segments.last().map(|s| s.next_seq())
    }

    /// Total payload bytes appended through this handle (not persisted;
    /// resets on reopen).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Flushes every segment's dirty pages to disk (`msync(MS_SYNC)`) —
    /// the opt-in power-fail barrier; see the crate-level *Durability*
    /// section. Not called on the append path: it is a full-mapping
    /// synchronous flush, priced for an explicit checkpoint cadence.
    pub fn sync(&self) -> Result<()> {
        for seg in &self.segments {
            seg.sync()?;
        }
        Ok(())
    }

    /// Deletes the oldest sealed segments past the configured retention
    /// budget. A segment survives regardless of the budget while
    /// `cursor_floor` (the minimum registered group cursor) still points
    /// at or below its newest record; the active segment is never
    /// deleted. Returns how many segments were removed.
    pub fn apply_retention(&mut self, cursor_floor: Option<u64>) -> usize {
        let mut removed = 0;
        while self.segments.len() > self.cfg.retain_segments + 1 {
            let oldest = &self.segments[0];
            if !oldest.sealed() {
                break;
            }
            let end = oldest.next_seq(); // first seq the *next* segment holds
            if cursor_floor.is_some_and(|floor| floor < end) {
                break;
            }
            let seg = self.segments.remove(0);
            let _ = fs::remove_file(seg.path());
            removed += 1;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ts-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payload(seq: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (seq as u8).wrapping_add(i as u8))
            .collect()
    }

    #[test]
    fn append_read_round_trip_across_rotation() {
        let dir = tmp_dir("roundtrip");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_records = 4;
        cfg.segment_bytes = 256;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        for seq in 10..30u64 {
            log.append(seq, seq / 8, seq % 8, &payload(seq, 48))
                .unwrap();
        }
        assert!(log.segment_count() > 1, "expected rotation");
        assert_eq!(log.retained_range(), Some((10, 29)));
        for seq in 10..30u64 {
            assert_eq!(&log.read(seq).unwrap()[..], payload(seq, 48));
            let meta = log.meta(seq).unwrap();
            assert_eq!((meta.epoch, meta.index_in_epoch), (seq / 8, seq % 8));
        }
        assert!(log.read(9).is_none());
        assert!(log.read(30).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_preserves_contents_and_continues_sequence() {
        let dir = tmp_dir("reopen");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_records = 4;
        cfg.segment_bytes = 1024;
        {
            let mut log = BatchLog::open(&cfg, 2).unwrap();
            for seq in 0..6u64 {
                log.append(seq, 0, seq, &payload(seq, 32)).unwrap();
            }
        }
        let mut log = BatchLog::open(&cfg, 2).unwrap();
        assert_eq!(log.retained_range(), Some((0, 5)));
        assert_eq!(log.next_seq(), Some(6));
        for seq in 0..6u64 {
            assert_eq!(&log.read(seq).unwrap()[..], payload(seq, 32));
        }
        assert!(log.append(9, 1, 0, b"gap").is_err(), "gap must be rejected");
        log.append(6, 1, 0, &payload(6, 32)).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_complete_record() {
        let dir = tmp_dir("torn");
        let cfg = LogConfig::new(&dir);
        {
            let mut log = BatchLog::open(&cfg, 0).unwrap();
            for seq in 0..5u64 {
                log.append(seq, 0, seq, &payload(seq, 64)).unwrap();
            }
        }
        // Corrupt one payload byte of record 3 on disk: recovery must keep
        // 0..=2 and drop 3..=4 (the CRC no longer matches).
        let seg_path = dir.join("shard-0").join(Segment::file_name(0));
        let mut bytes = fs::read(&seg_path).unwrap();
        let data_base = segment::HEADER_BYTES + 1024 * segment::ENTRY_BYTES;
        bytes[data_base + 3 * 64 + 10] ^= 0xff;
        fs::write(&seg_path, &bytes).unwrap();
        let log = BatchLog::open(&cfg, 0).unwrap();
        assert_eq!(log.retained_range(), Some((0, 2)));
        assert_eq!(&log.read(2).unwrap()[..], payload(2, 64));
        assert!(log.read(3).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_record_reads_none_and_is_counted_apart_from_a_dropped_one() {
        let dir = tmp_dir("read-corrupt");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_records = 4;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        for seq in 0..6u64 {
            log.append(seq, 0, seq, &payload(seq, 64)).unwrap();
        }
        assert_eq!(
            log.segment_count(),
            2,
            "records 0..=3 sit in a sealed segment"
        );
        // One byte of record 2 changes on disk, under the live mapping.
        use std::os::unix::fs::FileExt;
        let seg_path = dir.join("shard-0").join(Segment::file_name(0));
        let at = (segment::HEADER_BYTES + 4 * segment::ENTRY_BYTES + 2 * 64 + 10) as u64;
        let file = fs::OpenOptions::new().write(true).open(&seg_path).unwrap();
        file.write_all_at(&[payload(2, 64)[10] ^ 0xff], at).unwrap();
        assert!(log.read(2).is_none());
        assert_eq!(log.read_corrupt(), 1);
        // Retention dropping a record (or it never existing) is not damage.
        assert!(log.read(6).is_none());
        assert_eq!(log.read_corrupt(), 1);
        for seq in [0u64, 1, 3, 4, 5] {
            assert_eq!(
                &log.read(seq).unwrap()[..],
                payload(seq, 64),
                "neighbour {seq}"
            );
        }
        assert!(log.read(2).is_none(), "every read checks again");
        assert_eq!(log.read_corrupt(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_handle_outlives_its_segment_and_releases_the_mapping_when_dropped() {
        let dir = tmp_dir("handle");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_records = 2;
        cfg.retain_segments = 0;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        for seq in 0..6u64 {
            log.append(seq, 0, seq, &payload(seq, 48)).unwrap();
        }
        let held = log.read(1).unwrap();
        let seg_path = dir.join("shard-0").join(Segment::file_name(0));
        let mapped = || {
            let maps = fs::read_to_string("/proc/self/maps").unwrap();
            maps.contains(seg_path.to_str().unwrap())
        };
        assert!(mapped());
        // Retention unlinks the segment; the handle still owns its pages.
        assert_eq!(log.apply_retention(None), 2);
        assert_eq!(log.retained_range(), Some((4, 5)));
        assert!(!seg_path.exists());
        assert!(log.read(1).is_none(), "the log no longer serves it");
        assert_eq!(&held[..], payload(1, 48));
        assert!(mapped(), "unlinked, still mapped");
        // It crosses threads and outlives the log itself.
        drop(log);
        let held = std::thread::spawn(move || {
            assert_eq!(&held[..], payload(1, 48));
            held
        })
        .join()
        .unwrap();
        assert_eq!(&held[..4], &payload(1, 48)[..4]);
        drop(held);
        assert!(!mapped(), "the last handle unmaps");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_respects_cursor_floor() {
        let dir = tmp_dir("retention");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_records = 2;
        cfg.segment_bytes = 1024;
        cfg.retain_segments = 1;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        for seq in 0..10u64 {
            log.append(seq, 0, seq, &payload(seq, 16)).unwrap();
        }
        // 5 segments of 2 records. A cursor at 1 protects everything.
        assert_eq!(log.apply_retention(Some(1)), 0);
        assert_eq!(log.retained_range(), Some((0, 9)));
        // A cursor at 5 lets segments [0,1] and [2,3] go.
        assert_eq!(log.apply_retention(Some(5)), 2);
        assert_eq!(log.retained_range(), Some((4, 9)));
        // No registered cursors: trim to the retention budget.
        assert_eq!(log.apply_retention(None), 1);
        assert_eq!(log.retained_range(), Some((6, 9)));
        // Active segment survives even with an absurd floor.
        assert!(log.apply_retention(Some(u64::MAX)) <= 1);
        assert!(log.retained_range().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_gets_grown_segment() {
        let dir = tmp_dir("grown");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_bytes = 64;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        let big = payload(0, 1000);
        log.append(0, 0, 0, &big).unwrap();
        assert_eq!(&log.read(0).unwrap()[..], big);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn coalesced_cursor_advances_persist_on_flush() {
        let dir = tmp_dir("cursors-coalesced");
        {
            let mut store = CursorStore::open(&dir).unwrap();
            assert!(store.advance_mem("g", 0, 4));
            assert!(store.advance_mem("g", 0, 9));
            assert!(!store.advance_mem("g", 0, 7), "no regression");
            assert!(store.has_dirty());
            // Memory sees the coalesced value before any flush...
            assert_eq!(store.load("g", 0), Some(9));
            // ...but a reopen without a flush sees nothing.
            assert_eq!(CursorStore::open(&dir).unwrap().load("g", 0), None);
            assert_eq!(store.flush().unwrap(), 1, "one file per dirty key");
            assert!(!store.has_dirty());
            assert_eq!(store.flush().unwrap(), 0, "flush is idempotent");
        }
        let store = CursorStore::open(&dir).unwrap();
        assert_eq!(store.load("g", 0), Some(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_flushes_and_preserves_contents() {
        // Smoke for the opt-in power-fail barrier: msync must succeed on
        // a live multi-segment log and change nothing readers see.
        let dir = tmp_dir("sync");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_records = 4;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        for seq in 0..10u64 {
            log.append(seq, 0, seq, &payload(seq, 32)).unwrap();
        }
        log.sync().unwrap();
        for seq in 0..10u64 {
            assert_eq!(&log.read(seq).unwrap()[..], payload(seq, 32));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_store_round_trips_and_floors() {
        let dir = tmp_dir("cursors");
        {
            let mut store = CursorStore::open(&dir).unwrap();
            assert!(store.advance("trial-a", 0, 7).unwrap());
            assert!(store.advance("trial-b", 0, 3).unwrap());
            assert!(!store.advance("trial-a", 0, 5).unwrap(), "no regression");
            store.register("trial-c", 1, 0).unwrap();
        }
        let store = CursorStore::open(&dir).unwrap();
        assert_eq!(store.load("trial-a", 0), Some(7));
        assert_eq!(store.load("trial-b", 0), Some(3));
        assert_eq!(store.min_cursor(0), Some(3));
        assert_eq!(store.min_cursor(1), Some(0));
        assert_eq!(store.min_cursor(9), None);
        assert_eq!(store.groups(), vec!["trial-a", "trial-b", "trial-c"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cursor_file_with_the_old_check_word_loads_as_no_cursor() {
        let dir = tmp_dir("cursors-old-check");
        CursorStore::open(&dir)
            .unwrap()
            .advance("trial-a", 0, 7)
            .unwrap();
        // What a build before the check word changed wrote for the same
        // cursor: `value`, then `value ^ "TSCURS01"`.
        let mut old = [0u8; 16];
        old[..8].copy_from_slice(&7u64.to_le_bytes());
        old[8..].copy_from_slice(&(7 ^ u64::from_le_bytes(*b"TSCURS01")).to_le_bytes());
        fs::write(dir.join("cursors/trial-a.s0.cursor"), old).unwrap();
        let mut store = CursorStore::open(&dir).unwrap();
        assert_eq!(store.load("trial-a", 0), None, "replays from the oldest");
        // ... and the group's next advance replaces the file.
        assert!(store.advance("trial-a", 0, 2).unwrap());
        assert_eq!(CursorStore::open(&dir).unwrap().load("trial-a", 0), Some(2));
        let _ = fs::remove_dir_all(&dir);
    }
}
