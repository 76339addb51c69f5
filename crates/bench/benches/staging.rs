//! Device staging: what putting every batch on the GPU costs an epoch.
//!
//! One producer + one consumer over `inproc://`, a synthetic image epoch
//! consumed to completion with a fixed per-batch "training step" on the
//! consumer side. The H2D link is modeled at a constrained bandwidth
//! (`H2D_BANDWIDTH`) so a batch copy costs real wall time comparable to
//! the training step — the regime where the copy's place in the pipeline
//! matters. Two rows, same loader, same trainer, varying only the
//! producer's device:
//!
//! * `publish/cpu_only` — `DeviceId::Cpu`: nothing is staged. The epoch
//!   is `batches × (train + window round trip)`.
//! * `publish/overlapped` — `DeviceId::Gpu(0)`: every batch goes through
//!   the slab rotation on the copy stage between feeder and publish loop.
//!   The copy of batch *n* runs while the consumer trains on *n − 1*, so
//!   it is off the critical path and the epoch should cost what the
//!   CPU-only one does.
//!
//! The claim the suite prints (and asserts) is that one: the staged epoch
//! is within `OVERLAP_SLACK` of the CPU-only epoch although the copy stage
//! spent `staging.h2d_ns` — printed beside it, about a training step per
//! batch — copying. Were the copies on the critical path the staged epoch
//! would be longer by that sum. The CI gate holds both rows against the
//! committed `BENCH_staging.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, StagingConfig, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_device::DeviceId;

const SAMPLES: usize = 512;
const BATCH: usize = 32;
/// Small images keep the *decode* CPU cost negligible even on a starved
/// CI runner; the copy cost is the bandwidth *model*, not the memcpy, so
/// the staging comparison is undistorted by loader throughput.
const SIDE: usize = 16; // 3×16×16 images → 24 KiB staged per batch
const ENCODED_LEN: usize = 1_024;
/// Modeled H2D bandwidth: constrained so one batch copy costs ~1 ms —
/// the same order as the training step, the regime where a copy on the
/// critical path would show.
const H2D_BANDWIDTH: f64 = 24e6;
/// How much longer than the CPU-only epoch the staged one may be.
const OVERLAP_SLACK: f64 = 0.15;
/// Per-batch consumer "training step".
const TRAIN_STEP: Duration = Duration::from_micros(1_000);

fn make_loader() -> DataLoader {
    DataLoader::new(
        Arc::new(SyntheticImageDataset::new(SAMPLES, SIDE, SIDE, 11).with_encoded_len(ENCODED_LEN)),
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

/// Runs one full epoch through a producer on `device` + a consumer with
/// a fixed training step per batch; returns the time the copy stage spent
/// on H2D copies (the sum of `staging.h2d_ns`; 0 on the CPU).
fn run_epoch(device: DeviceId, endpoint: &str) -> u64 {
    let ctx = TsContext::with_gpus(1, 8 << 30, false);
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint)
        .epochs(1)
        .device(device)
        // buffer_size 1: the strictest window, where a copy that is not
        // overlapped is fully exposed.
        .buffer_size(1)
        .staging_config(StagingConfig {
            h2d_bandwidth: Some(H2D_BANDWIDTH),
        })
        .first_consumer_timeout(Some(Duration::from_secs(30)))
        .spawn(make_loader())
        .expect("spawn producer");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        .heartbeat_interval(Duration::from_millis(5))
        .connect(endpoint)
        .expect("connect consumer");
    let mut batches = 0u64;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        std::hint::black_box(batch.labels.view_bytes());
        // The training step: the ack for this batch goes out when the
        // next one is requested, so this sits inside the window cycle.
        std::thread::sleep(TRAIN_STEP);
        batches += 1;
    }
    producer.join().expect("producer join");
    assert_eq!(batches as usize, SAMPLES / BATCH);
    ctx.metrics.histogram("staging.h2d_ns").snapshot().sum
}

fn bench_staging(c: &mut Criterion) {
    let mut g = c.benchmark_group("staging");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    let epoch_bytes = (SAMPLES / BATCH * BATCH) as u64 * (3 * SIDE * SIDE) as u64;
    g.throughput(Throughput::Bytes(epoch_bytes));
    let mut round = 0u32;
    let mut h2d_ns = 0u64;
    for (tag, device) in [
        ("cpu_only", DeviceId::Cpu),
        ("overlapped", DeviceId::Gpu(0)),
    ] {
        g.bench_with_input(BenchmarkId::new("publish", tag), &device, |b, &device| {
            b.iter(|| {
                round += 1;
                h2d_ns = run_epoch(device, &format!("inproc://bench-staging-{tag}-{round}"));
                h2d_ns
            })
        });
    }
    g.finish();

    // Persist in the shared schema for the CI bench gate.
    let report = ts_bench::report::BenchReport::from_measurements(
        "staging",
        epoch_bytes,
        c.measurements(),
        "staging/",
    );
    report.write(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_staging.json"),
    );
    // The overlap claim, checked after the report is on disk: a noisy run
    // still leaves its rows for the baseline gate to read.
    let pick = |suffix: &str| {
        report
            .results
            .iter()
            .find(|r| r.bench.ends_with(suffix))
            .map(|r| r.mean_ns)
    };
    if let (Some(cpu), Some(staged)) = (pick("/publish/cpu_only"), pick("/publish/overlapped")) {
        println!(
            "staged epoch {:.1} ms vs cpu_only {:.1} ms ({:+.1} %, bound +{:.0} %) with {:.1} ms \
             of staging.h2d_ns per epoch off the critical path",
            staged / 1e6,
            cpu / 1e6,
            (staged / cpu - 1.0) * 100.0,
            OVERLAP_SLACK * 100.0,
            h2d_ns as f64 / 1e6,
        );
        assert!(
            staged <= cpu * (1.0 + OVERLAP_SLACK),
            "the H2D copy is back on the critical path"
        );
    }
}

criterion_group!(staging, bench_staging);
criterion_main!(staging);
