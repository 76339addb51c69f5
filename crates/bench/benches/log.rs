//! Durable batch log: raw segment throughput and the hot-path cost of
//! the producer's log tee.
//!
//! Two layers, one suite:
//!
//! * `log/append` / `log/read` — `ts-log` in isolation: CRC-framed,
//!   mmap-indexed appends of batch-sized records into rotating segments,
//!   and offset-addressed reads back out of them — each read a
//!   [`ts_log::Record`], the mapped bytes checked against their CRC and
//!   handed out in place. Append is the bandwidth budget the producer's
//!   background spiller has to live inside, read the cost of one replayed
//!   frame on the producer's pump thread.
//! * `log/epoch/off` vs `log/epoch/on` — the claim that matters: a full
//!   producer→consumer epoch over `inproc://` with and without `.log(dir)`.
//!   The tee hands the already-collated batch to a background spiller
//!   thread, so the `on` row must not regress the epoch wall time (the
//!   CI gate holds both rows, which pins the tee's hot-path cost at
//!   noise level) — and `stage.publish_copy_bytes` stays 0, asserted
//!   here on every run.
//!
//! Writes `BENCH_log.json` in the shared report schema for the CI bench
//! gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_log::{BatchLog, LogConfig};

/// Batch-sized record: ~the wire frame of a 32×3×16×16 f32 batch.
const RECORD_BYTES: usize = 100 * 1024;
const RECORDS: u64 = 256;

const SAMPLES: usize = 512;
const BATCH: usize = 32;
const SIDE: usize = 16;

fn fresh_dir(tag: &str, round: u32) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ts-bench-log-{}-{tag}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn make_loader() -> DataLoader {
    DataLoader::new(
        Arc::new(SyntheticImageDataset::new(SAMPLES, SIDE, SIDE, 11).with_encoded_len(1_024)),
        DataLoaderConfig {
            batch_size: BATCH,
            num_workers: 2,
            prefetch_factor: 2,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    )
}

/// One full epoch, producer→consumer over inproc, optionally logged.
fn run_epoch(logged: bool, endpoint: &str, log_dir: &std::path::Path) -> u64 {
    let ctx = TsContext::host_only();
    let mut builder = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint)
        .epochs(1)
        .first_consumer_timeout(Some(Duration::from_secs(30)));
    if logged {
        builder = builder.log(log_dir);
    }
    let producer = builder.spawn(make_loader()).expect("spawn producer");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        .connect(endpoint)
        .expect("connect consumer");
    let mut batches = 0u64;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        std::hint::black_box(batch.labels.view_bytes());
        batches += 1;
    }
    producer.join().expect("producer join");
    // The tee must never put bytes on the publish path.
    assert_eq!(ctx.metrics.counter("stage.publish_copy_bytes").get(), 0);
    if logged {
        assert!(ctx.metrics.counter("stage.log_append_bytes").get() > 0);
    }
    let _ = std::fs::remove_dir_all(log_dir);
    batches
}

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("log");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));

    // --- raw segment append: RECORDS batch-sized records per iter ---
    let payload = vec![0xabu8; RECORD_BYTES];
    g.throughput(Throughput::Bytes(RECORD_BYTES as u64 * RECORDS));
    let mut round = 0u32;
    g.bench_function("append", |b| {
        b.iter(|| {
            round += 1;
            let dir = fresh_dir("append", round);
            let mut log = BatchLog::open(&LogConfig::new(&dir), 0).expect("open log");
            for seq in 0..RECORDS {
                log.append(seq, 0, seq, &payload).expect("append");
            }
            let appended = log.appended_bytes();
            drop(log);
            let _ = std::fs::remove_dir_all(&dir);
            appended
        })
    });

    // --- raw reads back out of a retained log ---
    let read_dir = fresh_dir("read", 0);
    let mut log = BatchLog::open(&LogConfig::new(&read_dir), 0).expect("open log");
    for seq in 0..RECORDS {
        log.append(seq, 0, seq, &payload).expect("append");
    }
    g.bench_function("read", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for seq in 0..RECORDS {
                let record: ts_log::Record = log.read(seq).expect("retained record");
                total += std::hint::black_box(&record[..]).len();
            }
            total
        })
    });
    drop(log);
    let _ = std::fs::remove_dir_all(&read_dir);

    // --- the hot-path claim: logged epoch vs unlogged epoch ---
    let epoch_bytes = (SAMPLES * 3 * SIDE * SIDE * 4) as u64;
    g.throughput(Throughput::Bytes(epoch_bytes));
    let mut round = 0u32;
    for (tag, logged) in [("off", false), ("on", true)] {
        g.bench_with_input(BenchmarkId::new("epoch", tag), &logged, |b, &logged| {
            b.iter(|| {
                round += 1;
                let endpoint = format!("inproc://bench-log-{tag}-{round}");
                let dir = fresh_dir(tag, round);
                let batches = run_epoch(logged, &endpoint, &dir);
                assert_eq!(batches as usize, SAMPLES / BATCH);
                batches
            })
        });
    }
    g.finish();

    // Persist in the shared schema for the CI bench gate.
    let report = ts_bench::report::BenchReport::from_measurements(
        "log",
        epoch_bytes,
        c.measurements(),
        "log/",
    );
    let pick = |suffix: &str| {
        report
            .results
            .iter()
            .find(|r| r.bench.ends_with(suffix))
            .map(|r| r.mean_ns)
    };
    if let (Some(off), Some(on)) = (pick("/epoch/off"), pick("/epoch/on")) {
        println!(
            "log tee hot-path cost: {:+.1}% (epoch {:.1} ms unlogged -> {:.1} ms logged)",
            (on / off - 1.0) * 100.0,
            off / 1e6,
            on / 1e6
        );
    }
    report.write(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_log.json"),
    );
}

criterion_group!(log, bench_log);
criterion_main!(log);
