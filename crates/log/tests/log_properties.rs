//! Property tests of the durable batch log: round-trip fidelity across
//! arbitrary append sequences and segment geometries, torn-tail recovery
//! to a complete-record prefix, recovery from arbitrary damage anywhere
//! in a segment file or a cursor file, chunked appends storing what a
//! joined append would, and retention never deleting a record a registered
//! group cursor still needs.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use ts_log::{BatchLog, CursorStore, LogConfig, LogError};

fn temp_cfg(tag: &str, segment_records: u64, segment_bytes: u64) -> LogConfig {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ts-log-prop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = LogConfig::new(dir);
    cfg.segment_records = segment_records;
    cfg.segment_bytes = segment_bytes;
    cfg
}

/// Deterministic, never-zero content for record `seq` — zeroing any byte
/// of it is guaranteed to change the bytes (torn-tail simulation).
fn content(seq: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq.wrapping_mul(131).wrapping_add(i as u64) % 254 + 1) as u8)
        .collect()
}

proptest! {
    /// Append → read and append → reopen → read both return exactly the
    /// written bytes and metadata, across segment rotations.
    #[test]
    fn round_trip_across_reopen(
        seg_records in 1u64..6,
        base in 0u64..1000,
        lens in prop::collection::vec(1usize..96, 1..40)
    ) {
        let cfg = temp_cfg("roundtrip", seg_records, 128);
        {
            let mut log = BatchLog::open(&cfg, 0).unwrap();
            for (i, &len) in lens.iter().enumerate() {
                let seq = base + i as u64;
                log.append(seq, seq / 7, seq % 7, &content(seq, len)).unwrap();
            }
            for (i, &len) in lens.iter().enumerate() {
                let seq = base + i as u64;
                prop_assert_eq!(&log.read(seq).unwrap()[..], content(seq, len));
            }
        }
        let log = BatchLog::open(&cfg, 0).unwrap();
        let last = base + lens.len() as u64 - 1;
        prop_assert_eq!(log.retained_range(), Some((base, last)));
        for (i, &len) in lens.iter().enumerate() {
            let seq = base + i as u64;
            prop_assert_eq!(&log.read(seq).unwrap()[..], content(seq, len));
            let meta = log.meta(seq).unwrap();
            prop_assert_eq!(meta.epoch, seq / 7);
            prop_assert_eq!(meta.index_in_epoch, seq % 7);
            prop_assert_eq!(meta.len as usize, len);
        }
        prop_assert!(log.read(base.wrapping_sub(1)).is_none());
        prop_assert!(log.read(last + 1).is_none());
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Zeroing the file from an arbitrary offset onward (a torn write)
    /// still reopens: recovery lands on a prefix of complete records and
    /// every surviving record reads back its original bytes.
    #[test]
    fn torn_tail_recovers_to_complete_prefix(
        lens in prop::collection::vec(1usize..64, 2..20),
        cut_frac in 0u32..1000
    ) {
        let cfg = temp_cfg("torn", 1 << 20, 1 << 20);
        let total = lens.len() as u64;
        {
            let mut log = BatchLog::open(&cfg, 0).unwrap();
            for (i, &len) in lens.iter().enumerate() {
                log.append(i as u64, 0, i as u64, &content(i as u64, len)).unwrap();
            }
        }
        let seg_path = std::fs::read_dir(cfg.dir.join("shard-0"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg_path).unwrap();
        // Tear somewhere in the back half of the header-onward region so
        // the file still parses as a segment but loses an arbitrary tail.
        let cut = 64 + (bytes.len() - 64) * cut_frac as usize / 1000;
        for b in &mut bytes[cut..] {
            *b = 0;
        }
        std::fs::write(&seg_path, &bytes).unwrap();
        match BatchLog::open(&cfg, 0) {
            Ok(log) => {
                let recovered = log.next_seq().unwrap_or(0);
                prop_assert!(recovered <= total);
                for seq in 0..recovered {
                    prop_assert_eq!(
                        &log.read(seq).unwrap()[..],
                        content(seq, lens[seq as usize]),
                        "surviving record must be byte-identical"
                    );
                }
                for seq in recovered..total {
                    prop_assert!(log.read(seq).is_none());
                }
            }
            Err(_) => {
                // Tearing inside the header itself may invalidate the whole
                // segment; losing it entirely is the documented worst case.
                prop_assert!(cut < 4096, "only a header tear may reject the file");
            }
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Retention with a registered cursor floor never deletes a record the
    /// cursor still needs, whatever the retention budget says.
    #[test]
    fn retention_never_outruns_cursors(
        seg_records in 1u64..4,
        n in 4u64..40,
        retain in 0usize..3,
        cursors in prop::collection::vec(0u64..40, 1..4)
    ) {
        let mut cfg = temp_cfg("retention", seg_records, 4096);
        cfg.retain_segments = retain;
        let mut log = BatchLog::open(&cfg, 0).unwrap();
        for seq in 0..n {
            log.append(seq, 0, seq, &content(seq, 24)).unwrap();
        }
        let mut store = CursorStore::open(&cfg.dir).unwrap();
        for (g, &c) in cursors.iter().enumerate() {
            store.advance(&format!("group-{g}"), 0, c.min(n)).unwrap();
        }
        let floor = store.min_cursor(0);
        log.apply_retention(floor);
        let f = floor.unwrap().min(n);
        // Every record at or above the floor must still read back; the
        // newest record survives unconditionally (active segment).
        for seq in f..n {
            prop_assert_eq!(&log.read(seq).unwrap()[..], content(seq, 24));
        }
        let (min, max) = log.retained_range().unwrap();
        prop_assert!(min <= f, "retention deleted past the cursor floor");
        prop_assert_eq!(max, n - 1);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Whatever happens to the bytes of a segment file — ranges flipped,
    /// zeroed, the file cut short, anywhere from the header to the data
    /// region — opening it never panics, and what opens is a prefix of
    /// what was appended: record `i` either reads back byte-identical or
    /// neither it nor any later record is served. A log that opened
    /// takes the next append.
    #[test]
    fn arbitrary_damage_recovers_to_a_byte_identical_prefix_or_is_refused(
        lens in prop::collection::vec(0usize..96, 1..12),
        damage in prop::collection::vec((0u32..3, 0u32..10_000, 1usize..64, 1u8..255), 1..4)
    ) {
        let cfg = temp_cfg("damage", 16, 2048);
        let total = lens.len() as u64;
        {
            let mut log = BatchLog::open(&cfg, 0).unwrap();
            for (i, &len) in lens.iter().enumerate() {
                log.append(i as u64, 0, i as u64, &content(i as u64, len)).unwrap();
            }
            prop_assert_eq!(log.segment_count(), 1);
        }
        let seg_path = cfg.dir.join("shard-0").join(ts_log::Segment::file_name(0));
        let mut bytes = std::fs::read(&seg_path).unwrap();
        // Header page, index block and the used part of the data region
        // are where damage can matter; aim there.
        let live = 4096 + 16 * 40 + lens.iter().sum::<usize>() + 8;
        for &(kind, at, len, flip) in &damage {
            let at = (at as usize * live / 10_000).min(bytes.len());
            let end = (at + len).min(bytes.len());
            match kind {
                0 => bytes[at..end].iter_mut().for_each(|b| *b ^= flip),
                1 => bytes[at..end].fill(0),
                _ => bytes.truncate(at),
            }
        }
        std::fs::write(&seg_path, &bytes).unwrap();
        match BatchLog::open(&cfg, 0) {
            Ok(mut log) => {
                let kept = log.next_seq().unwrap_or(0);
                prop_assert!(kept <= total);
                prop_assert_eq!(log.retained_range(), kept.checked_sub(1).map(|last| (0, last)));
                for seq in 0..kept {
                    prop_assert_eq!(&log.read(seq).unwrap()[..], content(seq, lens[seq as usize]));
                }
                for seq in kept..total {
                    prop_assert!(log.read(seq).is_none());
                }
                prop_assert_eq!(log.read_corrupt(), 0, "recovery left nothing damaged behind");
                log.append(kept, 9, 9, b"after recovery").unwrap();
                prop_assert_eq!(&log.read(kept).unwrap()[..], b"after recovery");
            }
            Err(LogError::Corrupt(_)) => {}
            Err(other) => panic!("damage must read as corruption, got: {other}"),
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Whatever happens to the bytes of a cursor file — ranges flipped,
    /// zeroed, the file cut short — the store opens without a panic, and
    /// the group resumes from exactly what was last persisted or from no
    /// cursor at all (which replays from the oldest retained record):
    /// never from a position nobody wrote, least of all one *ahead*, which
    /// would skip batches and let retention delete them. The cursor beside
    /// it is untouched.
    #[test]
    fn a_damaged_cursor_file_loads_as_what_was_written_or_as_no_cursor(
        written in any::<u64>(),
        advanced in any::<u64>(),
        damage in prop::collection::vec((0u32..3, 0usize..17, 1usize..17, 1u8..255), 1..4)
    ) {
        let dir = temp_cfg("cursor-damage", 4, 4096).dir;
        {
            let mut store = CursorStore::open(&dir).unwrap();
            store.register("victim", 0, written / 2).unwrap();
            store.advance("victim", 0, written).unwrap();
            store.advance("bystander", 1, advanced).unwrap();
            // An advance still in memory at the crash is not on disk.
            store.advance_mem("victim", 0, written.saturating_add(1));
        }
        let path = dir.join("cursors").join("victim.s0.cursor");
        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.clone();
        for &(kind, at, len, flip) in &damage {
            let at = at.min(bytes.len());
            let end = (at + len).min(bytes.len());
            match kind {
                0 => bytes[at..end].iter_mut().for_each(|b| *b ^= flip),
                1 => bytes[at..end].fill(0),
                _ => bytes.truncate(at),
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut store = CursorStore::open(&dir).unwrap();
        match store.load("victim", 0) {
            Some(cursor) => prop_assert_eq!(cursor, written, "a cursor nobody wrote"),
            None => prop_assert!(bytes != intact, "an intact cursor was refused"),
        }
        prop_assert_eq!(store.load("bystander", 1), Some(advanced));
        // Whatever was there, the next ack persists over it.
        if written < u64::MAX {
            prop_assert!(store.advance("victim", 0, written + 1).unwrap());
            let reopened = CursorStore::open(&dir).unwrap();
            prop_assert_eq!(reopened.load("victim", 0), Some(written + 1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `append_chunks` of any split stores exactly what `append` of the
    /// joined payload stores — bytes, length and CRC (a reopen re-checks
    /// every record against it).
    #[test]
    fn chunked_appends_store_what_joined_appends_store(
        records in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..5),
            1..10
        )
    ) {
        let cfg = temp_cfg("chunks", 4, 256);
        {
            let mut log = BatchLog::open(&cfg, 0).unwrap();
            for (seq, chunks) in records.iter().enumerate() {
                let chunks: Vec<&[u8]> = chunks.iter().map(|c| &c[..]).collect();
                log.append_chunks(seq as u64, 0, seq as u64, &chunks).unwrap();
            }
        }
        let log = BatchLog::open(&cfg, 0).unwrap();
        prop_assert_eq!(log.next_seq(), Some(records.len() as u64), "every CRC held");
        for (seq, chunks) in records.iter().enumerate() {
            prop_assert_eq!(&log.read(seq as u64).unwrap()[..], chunks.concat());
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
