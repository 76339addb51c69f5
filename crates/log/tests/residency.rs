//! What the log keeps in the address space: the active segment, and the
//! records of sealed segments whose handles are alive — nothing else.
//! Read from `/proc/self/smaps` (Linux only), per segment file.
//!
//! The segments here are many pages long: a record spans several whole
//! pages, so giving them back shows in `Rss`.
#![cfg(target_os = "linux")]

use std::fs;
use std::path::{Path, PathBuf};
use ts_log::{BatchLog, LogConfig, Segment};

/// Records per segment: the index block is `16 × 40` bytes after the
/// 4 KiB header, so header and index take two pages.
const RECORDS: u64 = 16;
const HEADER_AND_INDEX: u64 = 4096 + RECORDS * 40;
/// A record of three pages and a bit; five to a segment.
const RECORD: usize = 3 * 4096 + 1_234;
const SEGMENT: u64 = 5 * RECORD as u64;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ts-log-res-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path) -> LogConfig {
    let mut cfg = LogConfig::new(dir);
    cfg.segment_records = RECORDS;
    cfg.segment_bytes = SEGMENT;
    cfg
}

fn payload(seq: u64) -> Vec<u8> {
    (0..RECORD)
        .map(|i| (seq as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join("shard-0").join(Segment::file_name(base))
}

/// `(Rss, page size)` in bytes of the mapping of `path`, from smaps.
fn rss(path: &Path) -> (u64, u64) {
    let smaps = fs::read_to_string("/proc/self/smaps").unwrap();
    let name = path.to_str().unwrap();
    let mut lines = smaps.lines();
    while let Some(line) = lines.next() {
        let mapped = line.ends_with(name) || line.ends_with(&format!("{name} (deleted)"));
        if !mapped {
            continue;
        }
        let (mut rss, mut page) = (None, None);
        for field in lines.by_ref() {
            let kib = |key: &str| {
                let v = field.strip_prefix(key)?.trim().strip_suffix("kB")?;
                v.trim().parse::<u64>().ok().map(|k| k * 1024)
            };
            rss = rss.or(kib("Rss:"));
            page = page.or(kib("KernelPageSize:"));
            if field.starts_with("VmFlags") {
                break;
            }
        }
        return (rss.unwrap(), page.unwrap());
    }
    panic!("{name} is not mapped");
}

/// The most a sealed segment keeps mapped with `records` whole records
/// held: its header and index pages, and each record's pages plus the
/// two it shares with its neighbours.
fn sealed_bound(page: u64, records: u64) -> u64 {
    let record_pages = (RECORD as u64).div_ceil(page) + 1;
    (HEADER_AND_INDEX.div_ceil(page) + records * record_pages) * page
}

fn fill(log: &mut BatchLog, seqs: std::ops::Range<u64>) {
    for seq in seqs {
        drop(log.append(seq, seq / 8, seq % 8, &payload(seq)).unwrap());
    }
}

#[test]
fn after_rotation_a_sealed_segment_keeps_only_its_header_and_index_mapped() {
    let dir = tmp_dir("sealed");
    let mut log = BatchLog::open(&config(&dir), 0).unwrap();
    fill(&mut log, 0..12);
    assert_eq!(
        log.segment_count(),
        3,
        "two sealed segments and the active one"
    );
    for base in [0, 5] {
        let (rss, page) = rss(&segment_path(&dir, base));
        assert!(
            rss <= sealed_bound(page, 0),
            "sealed segment {base}: {rss} bytes resident"
        );
    }
    // The active segment keeps what it wrote, and the books say so.
    let (active, _) = rss(&segment_path(&dir, 10));
    assert!(active >= 2 * RECORD as u64, "active segment: {active}");
    assert_eq!(log.mapped_bytes(), 2 * RECORD as u64);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_sealed_record_gives_its_pages_back_once_dropped_and_reads_again_identical() {
    let dir = tmp_dir("record");
    let mut log = BatchLog::open(&config(&dir), 0).unwrap();
    fill(&mut log, 0..12);
    let sealed = segment_path(&dir, 0);
    let (before, page) = rss(&sealed);
    assert!(before <= sealed_bound(page, 0));
    let active = log.mapped_bytes();

    let record = log.read(2).unwrap();
    assert_eq!(&record[..], payload(2));
    let (held, _) = rss(&sealed);
    assert!(
        held >= (RECORD as u64 / page) * page,
        "read maps the record: {held}"
    );
    assert_eq!(
        log.mapped_bytes(),
        active + RECORD as u64,
        "a held record counts"
    );
    // Handed to another thread, as a send would be, and dropped there. Its
    // pages wait for the rest of a stride of the replay it is part of ...
    std::thread::spawn(move || drop(record)).join().unwrap();
    assert_eq!(
        log.mapped_bytes(),
        active + RECORD as u64,
        "given up, not back"
    );
    // ... and go back as soon as a record elsewhere drops: the reader left.
    drop(log.read(7).unwrap());
    let (after, _) = rss(&sealed);
    assert!(after <= sealed_bound(page, 0), "{after} bytes resident");

    // The bytes were never in the pages alone: a re-read (CRC checked
    // again) returns them bit for bit.
    let again = log.read(2).unwrap();
    assert_eq!(&again[..], payload(2));
    assert_eq!(ts_log::crc32(&again), ts_log::crc32(&payload(2)));
    assert_eq!(log.read_corrupt(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_replay_in_order_keeps_at_most_a_stride_of_read_pages_mapped() {
    /// The log gives read pages back 4 MiB at a time.
    const STRIDE: u64 = 4 << 20;
    const BIG: usize = 1 << 20;
    let dir = tmp_dir("stride");
    let mut cfg = config(&dir);
    cfg.segment_bytes = 12 * BIG as u64;
    let mut log = BatchLog::open(&cfg, 0).unwrap();
    let big = |seq: u64| vec![seq as u8; BIG];
    for seq in 0..13 {
        drop(log.append(seq, 0, seq, &big(seq)).unwrap());
    }
    assert_eq!(log.segment_count(), 2);
    let sealed = segment_path(&dir, 0);
    let mut peak = 0;
    for seq in 0..12 {
        let record = log.read(seq).unwrap();
        assert_eq!(&record[..], big(seq));
        drop(record);
        peak = peak.max(rss(&sealed).0);
    }
    let (_, page) = rss(&sealed);
    // A stride, the record that completes it, and the kernel's fault-around
    // (64 KiB by default) past the last read.
    let bound = HEADER_AND_INDEX.div_ceil(page) * page + STRIDE + BIG as u64 + (64 << 10);
    assert!(peak <= bound, "{peak} bytes of a 12 MiB segment resident");
    assert!(log.mapped_bytes() <= BIG as u64 + STRIDE);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_record_held_across_its_segments_seal_reads_the_same_bytes() {
    let dir = tmp_dir("across");
    let mut log = BatchLog::open(&config(&dir), 0).unwrap();
    fill(&mut log, 0..3);
    let held = log.read(1).unwrap();
    assert_eq!(log.segment_count(), 1, "read from the active segment");
    fill(&mut log, 3..6);
    assert_eq!(log.segment_count(), 2, "... which is sealed now");
    let (rss, page) = rss(&segment_path(&dir, 0));
    assert!(rss <= sealed_bound(page, 0), "the seal gave the pages back");
    assert_eq!(&held[..], payload(1));
    drop(held);
    assert_eq!(&log.read(1).unwrap()[..], payload(1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn records_appended_across_rotations_read_back_identical_after_sync_and_reopen() {
    let dir = tmp_dir("reopen");
    let mut log = BatchLog::open(&config(&dir), 0).unwrap();
    fill(&mut log, 0..23);
    assert_eq!(log.segment_count(), 5);
    log.sync().unwrap();
    drop(log);
    let log = BatchLog::open(&config(&dir), 0).unwrap();
    assert_eq!(log.retained_range(), Some((0, 22)));
    // Recovery read every record; the sealed segments gave them back.
    for base in [0, 5, 10, 15] {
        let (rss, page) = rss(&segment_path(&dir, base));
        assert!(rss <= sealed_bound(page, 0), "segment {base}: {rss}");
    }
    for seq in 0..23 {
        assert_eq!(&log.read(seq).unwrap()[..], payload(seq), "seq {seq}");
    }
    assert_eq!(log.read_corrupt(), 0);
    let _ = fs::remove_dir_all(&dir);
}
