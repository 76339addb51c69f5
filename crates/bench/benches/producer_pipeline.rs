//! End-to-end producer throughput: serial vs pipelined.
//!
//! One producer + one consumer over `inproc://`, a synthetic image
//! dataset with the real two-part loading cost — per-sample fetch latency
//! (the disk/NFS read stand-in) plus decode CPU ∝ pixels (the JPEG
//! stand-in) — full epochs consumed to completion. The only knob that
//! varies is the loader's `num_workers`:
//!
//! * `workers/0` — the serial producer: decode, collate and publish all
//!   on the publish thread;
//! * `workers/1`, `workers/4` — the pipelined producer: a feeder stage
//!   (backed by 1 or 4 loader workers) prepares batches ahead of the
//!   publish cursor while the publish loop stages and announces.
//!
//! The `sharded/<n>` variants run the same epoch through an n-shard
//! producer group (each shard a feeder and its loader workers over its
//! disjoint dataset partition, all published by one pump thread in
//! epoch lockstep) consumed through one interleaving consumer — the
//! multi-producer scaling axis: on multi-core runners `sharded/2`
//! should beat `sharded/1` because the shards' loader workers run
//! concurrently.
//!
//! The suite asserts nothing itself; `BENCH_producer_pipeline.json` lands
//! at the repo root in the shared report schema, the CI gate compares it
//! against the committed baseline, and the committed numbers document the
//! pipelining win (≥1.5× at 4 workers on this dataset).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};

const SAMPLES: usize = 512;
const BATCH: usize = 32;
const SIDE: usize = 64; // 3×64×64 images
const ENCODED_LEN: usize = 16_384;
/// Per-sample storage fetch latency (conservative local-SSD ballpark).
const FETCH_LATENCY: Duration = Duration::from_micros(100);

fn make_loader(workers: usize) -> DataLoader {
    DataLoader::new(
        Arc::new(
            SyntheticImageDataset::new(SAMPLES, SIDE, SIDE, 11)
                .with_encoded_len(ENCODED_LEN)
                .with_fetch_latency(FETCH_LATENCY),
        ),
        DataLoaderConfig {
            batch_size: BATCH,
            num_workers: workers,
            prefetch_factor: 2,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    )
}

/// Runs one full epoch through producer + consumer; returns batches seen.
fn run_epoch(workers: usize, endpoint: &str) -> u64 {
    let ctx = TsContext::host_only();
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint)
        .epochs(1)
        .first_consumer_timeout(Some(Duration::from_secs(30)))
        .spawn(make_loader(workers))
        .expect("spawn producer");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        // The default 200 ms tick would dominate the measurement: the
        // consumer's drop joins the heartbeat thread mid-sleep.
        .heartbeat_interval(Duration::from_millis(5))
        .connect(endpoint)
        .expect("connect consumer");
    let mut batches = 0u64;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        // The "training step": read one byte per sample so the batch is
        // touched but consumption stays far cheaper than loading.
        std::hint::black_box(batch.labels.view_bytes());
        batches += 1;
    }
    producer.join().expect("producer join");
    batches
}

/// Like [`run_epoch`], but with a builder-provisioned shared-memory
/// arena: the loader's workers decode straight into leased slots and the
/// publish loop adopts the placements — the zero-copy shm publish shape. The
/// committed numbers document that full cross-process shm semantics ride
/// within a few percent of the heap path on this loader-bound epoch,
/// with zero payload bytes moved at publish time (asserted below).
fn run_leased_epoch(workers: usize, endpoint: &str, round: u32) -> u64 {
    let ctx = TsContext::host_only();
    let arena_path = std::env::temp_dir().join(format!(
        "ts-bench-leased-{}-{round}.arena",
        std::process::id()
    ));
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint)
        .epochs(1)
        .first_consumer_timeout(Some(Duration::from_secs(30)))
        .arena(&arena_path)
        .spawn(make_loader(workers))
        .expect("spawn leased producer");
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
        batches += 1;
    }
    producer.join().expect("producer join");
    let _ = std::fs::remove_file(&arena_path);
    batches
}

/// Runs one full epoch through an n-shard producer group + one
/// interleaving consumer; returns batches seen.
fn run_sharded_epoch(shards: usize, endpoint: &str) -> u64 {
    let ctx = TsContext::host_only();
    let loaders = DataLoader::sharded(
        Arc::new(
            SyntheticImageDataset::new(SAMPLES, SIDE, SIDE, 11)
                .with_encoded_len(ENCODED_LEN)
                .with_fetch_latency(FETCH_LATENCY),
        ),
        DataLoaderConfig {
            batch_size: BATCH,
            num_workers: 2,
            prefetch_factor: 2,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
        shards,
    );
    let group = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint)
        .epochs(1)
        .first_consumer_timeout(Some(Duration::from_secs(30)))
        .spawn_sharded(loaders)
        .expect("spawn sharded group");
    // The consumer is NOT told the shard count: the handshake is.
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        .heartbeat_interval(Duration::from_millis(5))
        .connect(endpoint)
        .expect("connect consumer");
    assert_eq!(consumer.num_shards(), shards);
    let mut batches = 0u64;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        std::hint::black_box(batch.labels.view_bytes());
        batches += 1;
    }
    group.join().expect("group join");
    batches
}

fn bench_producer_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("producer_pipeline");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    let epoch_bytes = (SAMPLES / BATCH * BATCH) as u64 * (3 * SIDE * SIDE) as u64;
    g.throughput(Throughput::Bytes(epoch_bytes));
    let mut round = 0u32;
    for workers in [0usize, 1, 4] {
        g.bench_with_input(
            BenchmarkId::new("epoch", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    round += 1;
                    let endpoint = format!("inproc://bench-pipeline-{workers}-{round}");
                    let batches = run_epoch(workers, &endpoint);
                    assert_eq!(batches as usize, SAMPLES / BATCH);
                    batches
                })
            },
        );
    }
    // Zero-copy shm publish: the pipelined epoch again, now with an
    // arena + recycling slot pools bound (batches built in leased slots,
    // metadata-only announce). Compare against `epoch/4`.
    let mut leased_round = 0u32;
    g.bench_with_input(
        BenchmarkId::new("leased", 4usize),
        &4usize,
        |b, &workers| {
            b.iter(|| {
                leased_round += 1;
                let endpoint = format!("inproc://bench-leased-{workers}-{leased_round}");
                let batches = run_leased_epoch(workers, &endpoint, leased_round);
                assert_eq!(batches as usize, SAMPLES / BATCH);
                batches
            })
        },
    );
    // Multi-producer sharding: same epoch, 1 vs 2 shard pipelines.
    let mut sharded_round = 0u32;
    for shards in [1usize, 2] {
        g.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    sharded_round += 1;
                    let endpoint = format!("inproc://bench-sharded-{shards}-{sharded_round}");
                    let batches = run_sharded_epoch(shards, &endpoint);
                    assert_eq!(batches as usize, SAMPLES / BATCH);
                    batches
                })
            },
        );
    }
    g.finish();

    // Persist in the shared schema for the CI bench gate.
    let report = ts_bench::report::BenchReport::from_measurements(
        "producer_pipeline",
        epoch_bytes,
        c.measurements(),
        "producer_pipeline/",
    );
    let serial = report
        .results
        .iter()
        .find(|r| r.bench.ends_with("/epoch/0"))
        .map(|r| r.mean_ns);
    let piped = report
        .results
        .iter()
        .find(|r| r.bench.ends_with("/epoch/4"))
        .map(|r| r.mean_ns);
    if let (Some(serial), Some(piped)) = (serial, piped) {
        println!(
            "pipelined producer speedup at 4 workers: {:.2}x (serial {:.1} ms -> pipelined {:.1} ms)",
            serial / piped,
            serial / 1e6,
            piped / 1e6
        );
    }
    let leased = report
        .results
        .iter()
        .find(|r| r.bench.ends_with("/leased/4"))
        .map(|r| r.mean_ns);
    if let (Some(piped), Some(leased)) = (piped, leased) {
        println!(
            "zero-copy shm publish vs heap publish at 4 workers: {:+.1}% \
             (heap {:.1} ms -> leased {:.1} ms)",
            (leased / piped - 1.0) * 100.0,
            piped / 1e6,
            leased / 1e6
        );
    }
    let one_shard = report
        .results
        .iter()
        .find(|r| r.bench.ends_with("/sharded/1"))
        .map(|r| r.mean_ns);
    let two_shards = report
        .results
        .iter()
        .find(|r| r.bench.ends_with("/sharded/2"))
        .map(|r| r.mean_ns);
    if let (Some(one), Some(two)) = (one_shard, two_shards) {
        println!(
            "sharded producer scaling at 2 shards: {:.2}x (1 shard {:.1} ms -> 2 shards {:.1} ms)",
            one / two,
            one / 1e6,
            two / 1e6
        );
    }
    report.write(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_producer_pipeline.json"),
    );
}

criterion_group!(producer_pipeline, bench_producer_pipeline);
criterion_main!(producer_pipeline);
