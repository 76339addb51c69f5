//! Durable-log replay smoke: a crash-free walk through the full
//! late-join story — a **logged** sharded producer over `ipc://`, an
//! attached-from-the-start witness, and a **fresh consumer group** that
//! attaches mid-epoch-2 and must still see the run *from batch zero*,
//! courtesy of the batch log.
//!
//! ```text
//! cargo run --release --example replay_smoke
//! ```
//!
//! What it proves (and asserts — CI runs this binary as a smoke test):
//!
//! * the producer tees every published batch into the `ts-log` segments
//!   off the hot path (`stage.s<N>.log_append_bytes` grows, publishing
//!   stays zero-copy);
//! * a consumer that names a group (`.group("smoke")`) and attaches long
//!   after epoch 0 is gone replays the missing range **from the log** —
//!   the rubberband window here is the paper's 2%, far too small to
//!   cover a whole epoch from pins;
//! * the late group maps the arena, so what it is replayed out of the log
//!   reaches it through arena slots: each stored frame is copied into
//!   slots once and announced as pointers (`replay.s<N>.slot_frames`),
//!   never as bytes for want of a slot (`replay.s<N>.slot_fallbacks` is
//!   0) — the auto-sized arena has a catch-up window of headroom — while
//!   the loader stays bound to the pool (`collate_copy_bytes` is 0: the
//!   producer copies no payload byte);
//! * the replayed prefix splices onto the live stream with no seam: the
//!   late group's transcript is identical, payload checksums included,
//!   to the witness's uninterrupted one.
//!
//! The crash variant of this story (SIGKILL mid-epoch, same group
//! resumes from the persisted cursor) runs as a fork/exec test in
//! `tests/log_replay_multi_process.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, ProducerConfig, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_tensor::ops;

const SHARDS: usize = 2;
const EPOCHS: u64 = 3;
const SAMPLES: usize = 96;
const BATCH: usize = 8;
const PER_EPOCH: u64 = (SAMPLES / BATCH) as u64; // both shards together

/// One consumed batch: identity plus payload digests.
type Seen = (u64, usize, u64, u64, u64, u64);

fn consume_all(
    endpoint: &str,
    group: Option<&str>,
    pace: Duration,
    on_epoch1: Option<Arc<AtomicBool>>,
) -> Vec<Seen> {
    let mut builder = Consumer::builder().recv_timeout(Duration::from_secs(60));
    if let Some(g) = group {
        builder = builder.group(g);
    }
    let mut consumer = builder.connect(endpoint).expect("consumer connect");
    assert!(
        consumer.welcome().log.is_some(),
        "logged producer must advertise the log in its WELCOME"
    );
    let mut seen = Vec::new();
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        if batch.epoch >= 1 {
            if let Some(flag) = &on_epoch1 {
                flag.store(true, Ordering::Release);
            }
        }
        seen.push((
            batch.epoch,
            batch.shard,
            batch.seq,
            batch.index_in_epoch,
            ops::checksum(&batch.fields[0]),
            ops::checksum(&batch.labels),
        ));
        std::thread::sleep(pace);
    }
    assert_eq!(
        consumer.stop_reason(),
        Some(tensorsocket::runtime::consumer::StopReason::End)
    );
    seen
}

fn main() {
    let pid = std::process::id();
    let tmp = std::env::temp_dir();
    let endpoint = format!(
        "ipc://{}",
        tmp.join(format!("ts-replay-smoke-{pid}.sock")).display()
    );
    let arena_path = tmp.join(format!("ts-replay-smoke-{pid}.arena"));
    let log_dir = tmp.join(format!("ts-replay-smoke-{pid}.log"));
    let _ = std::fs::remove_dir_all(&log_dir);

    let ctx = TsContext::host_only();
    let loaders = DataLoader::sharded(
        Arc::new(SyntheticImageDataset::new(SAMPLES, 16, 16, 42)),
        DataLoaderConfig {
            batch_size: BATCH,
            num_workers: 0,
            shuffle: true,
            seed: 42,
            drop_last: true,
            ..Default::default()
        },
        SHARDS,
    );
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: endpoint.clone(),
            epochs: EPOCHS,
            // The paper's 2% join window: pins cannot cover a late join —
            // only the durable log can.
            rubberband_cutoff: 0.02,
            first_consumer_timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        })
        .arena(&arena_path)
        .log(&log_dir)
        .spawn_sharded(loaders)
        .expect("spawn logged sharded producer");
    println!(
        "logged producer on {endpoint} ({SHARDS} shards, log at {})",
        log_dir.display()
    );

    // Witness: attached from batch zero, paced like a training loop so
    // the run is long enough for a genuinely late join.
    let into_epoch1 = Arc::new(AtomicBool::new(false));
    let witness = {
        let endpoint = endpoint.clone();
        let flag = into_epoch1.clone();
        std::thread::spawn(move || {
            consume_all(&endpoint, None, Duration::from_millis(2), Some(flag))
        })
    };

    // The late group attaches once the witness is into epoch 1 — by the
    // time its admission lands at the epoch 2 boundary, epochs 0 and 1
    // exist nowhere but the log.
    while !into_epoch1.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("witness into epoch 1 — attaching fresh group \"smoke\"");
    let late = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || consume_all(&endpoint, Some("smoke"), Duration::ZERO, None))
    };

    let full = witness.join().expect("witness thread");
    let replayed_stream = late.join().expect("late group thread");
    producer.join_shards().expect("producer join");

    assert_eq!(
        full.len() as u64,
        EPOCHS * PER_EPOCH,
        "witness missed batches"
    );
    assert_eq!(
        replayed_stream, full,
        "late group's stream must be identical to the witness's, from batch zero"
    );

    let from_log = ctx.metrics.counter("replay.log_batches").get();
    let appended: u64 = (0..SHARDS)
        .map(|s| {
            ctx.metrics
                .counter(&format!("stage.s{s}.log_append_bytes"))
                .get()
        })
        .sum();
    let per_shard = |name: &str| -> u64 {
        let counter = |s: usize| ctx.metrics.counter(&name.replace("<N>", &s.to_string()));
        (0..SHARDS).map(|s| counter(s).get()).sum()
    };
    let collated = per_shard("stage.s<N>.collate_copy_bytes");
    let slot_frames = per_shard("replay.s<N>.slot_frames");
    let fallbacks = per_shard("replay.s<N>.slot_fallbacks");
    assert!(from_log > 0, "nothing was served from the log");
    assert!(appended > 0, "the spiller appended nothing");
    assert_eq!(collated, 0, "the loader must stay bound to the pool");
    assert!(slot_frames > 0, "no log frame went through arena slots");
    assert_eq!(fallbacks, 0, "log frames went as bytes for want of a slot");

    let _ = std::fs::remove_dir_all(&log_dir);
    println!(
        "replay smoke OK: {} live batches, {} replayed from the log ({} through arena slots, \
         {} KiB spilled), no payload byte copied by the producer",
        full.len(),
        from_log,
        slot_frames,
        appended >> 10
    );
}
