//! Durable-log replay, in process: the `ts-log` batch log wired through
//! the producer (background spiller, pin shedding, retention) and the
//! consumer-group replay handshake (`CtrlMsg::Replay` → `LogInfo` →
//! logged range spliced onto the live stream).
//!
//! Covers, over `inproc://` topologies:
//!
//! * a fresh consumer group attaching mid-run replays the **entire**
//!   logged history (full-from-offset coverage) and sees a stream
//!   byte-identical to an uninterrupted consumer's;
//! * a consumer group member that detaches cleanly mid-epoch is resumed
//!   by a successor in the same group from the persisted cursor —
//!   exactly-once over the acked prefix, no gaps, byte-identical
//!   payloads;
//! * a consumer dropped mid-log-replay releases the replay stream
//!   promptly on the producer side (regression: the stream must not run
//!   the full range at a dead topic, and the producer must not wedge);
//! * spawn-time guards: a non-empty log directory and the
//!   flexible-sizing combination both fail with typed `Config` errors.
//!
//! The `kill -9` (no clean Leave, no Drop) variant of the resume story
//! runs as a fork/exec test over `ipc://` in
//! `tests/log_replay_multi_process.rs`.

use std::sync::Arc;
use std::time::Duration;
use tensorsocket::runtime::consumer::StopReason;
use tensorsocket::{Consumer, Producer, ProducerConfig, TsContext, TsError};
use ts_data::{DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample};
use ts_device::DeviceId;
use ts_tensor::{ops, Tensor};

/// `label == index`, field encodes the index: deterministic,
/// checksummable batches.
struct IndexDataset {
    len: usize,
}

impl Dataset for IndexDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        Ok(RawSample {
            index,
            bytes: bytes::Bytes::from(vec![index as u8; 4]),
            label: index as i64,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        4
    }

    fn decode(&self, raw: &RawSample) -> ts_data::Result<DecodedSample> {
        let field = Tensor::from_f32(
            &[raw.index as f32, raw.index as f32 * 2.0],
            &[2],
            DeviceId::Cpu,
        )?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![field],
            label: raw.label,
        })
    }

    fn name(&self) -> &str {
        "log-replay-index"
    }
}

fn loader(samples: usize, batch: usize, seed: u64) -> DataLoader {
    DataLoader::new(
        Arc::new(IndexDataset { len: samples }),
        DataLoaderConfig {
            batch_size: batch,
            num_workers: 0,
            shuffle: true,
            seed,
            drop_last: true,
            ..Default::default()
        },
    )
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ts-logtest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One consumed batch, identity + payload digest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    epoch: u64,
    shard: usize,
    seq: u64,
    index: u64,
    field_sum: u64,
    label_sum: u64,
}

fn seen(batch: &tensorsocket::ConsumerBatch) -> Seen {
    Seen {
        epoch: batch.epoch,
        shard: batch.shard,
        seq: batch.seq,
        index: batch.index_in_epoch,
        field_sum: ops::checksum(&batch.fields[0]),
        label_sum: ops::checksum(&batch.labels),
    }
}

/// A fresh group attaching mid-run replays everything the log retains:
/// its stream must be identical — same `(epoch, shard, seq)` identities,
/// same payload checksums — to an uninterrupted consumer's, from batch
/// zero.
#[test]
fn fresh_group_late_join_replays_full_history() {
    const SAMPLES: usize = 64;
    const BATCH: usize = 4;
    const EPOCHS: u64 = 3;
    const PER_EPOCH: u64 = (SAMPLES / BATCH) as u64;

    let ctx = TsContext::host_only();
    let ep = "inproc://log-late-join";
    let log_dir = fresh_dir("late-join");
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: ep.to_string(),
            epochs: EPOCHS,
            // Admission itself is epoch-gated (tiny rubberband window):
            // catch-up coverage must come from the LOG, not from pins.
            rubberband_cutoff: 0.02,
            ..Default::default()
        })
        .log(&log_dir)
        .spawn(loader(SAMPLES, BATCH, 21))
        .expect("spawn logging producer");

    let witness = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("witness connect");
    assert!(
        witness.welcome().log.is_some(),
        "the WELCOME must advertise the log"
    );

    // Late joiner starts once the witness is into epoch 1, so at least
    // one full epoch is already log-only history. The tiny rubberband
    // window parks it until the epoch 2 boundary; everything before its
    // admission point must come off the log.
    let mut witness = witness;
    let mut full = Vec::new();
    let mut late: Option<std::thread::JoinHandle<Vec<Seen>>> = None;
    for batch in witness.by_ref() {
        let batch = batch.expect("clean witness stream");
        full.push(seen(&batch));
        if full.len() as u64 == PER_EPOCH + 2 {
            let ctx_c = ctx.clone();
            late = Some(std::thread::spawn(move || {
                let mut consumer = Consumer::builder()
                    .context(&ctx_c)
                    .group("fresh-group")
                    .recv_timeout(Duration::from_secs(20))
                    .connect(ep)
                    .expect("late group connect");
                let mut got = Vec::new();
                for batch in consumer.by_ref() {
                    got.push(seen(&batch.expect("clean late stream")));
                }
                assert_eq!(consumer.stop_reason(), Some(StopReason::End));
                got
            }));
            // The witness holds this batch — and with it the publish
            // window — until the producer has the joiner's `Join` (parked:
            // the join window shut after the epoch's first batch), so the
            // epochs cannot run out before the joiner is known.
            let parked = ctx.metrics.counter("producer.joins_parked");
            let patience = std::time::Instant::now() + Duration::from_secs(20);
            while parked.get() == 0 {
                assert!(
                    std::time::Instant::now() < patience,
                    "the join never arrived"
                );
                std::thread::yield_now();
            }
        }
    }
    assert_eq!(witness.stop_reason(), Some(StopReason::End));
    let late_stream = late
        .expect("late joiner never spawned")
        .join()
        .expect("late consumer thread");

    let stats = producer.join().expect("producer join");
    assert_eq!(stats.epochs_completed, EPOCHS);
    assert_eq!(full.len() as u64, EPOCHS * PER_EPOCH);

    // Full-from-offset coverage: the group consumer's stream IS the
    // witness stream, from the very first batch, payload bytes included
    // — epochs it never lived through came off the durable log.
    assert_eq!(
        late_stream, full,
        "log replay must reproduce the full history byte-identically"
    );

    assert!(
        ctx.metrics.counter("replay.log_batches").get() > 0,
        "catch-up must have been served from the log"
    );
    assert!(ctx.metrics.counter("producer.replay_requests").get() >= 1);
    assert_eq!(ctx.metrics.counter("log.append_errors").get(), 0);
    assert!(
        ctx.metrics.counter("stage.log_append_bytes").get() > 0,
        "spiller must have appended the published batches"
    );
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// A group member that detaches cleanly mid-epoch is resumed by a new
/// consumer under the same group name: the successor starts at the
/// persisted cursor (first un-acked batch), and victim + successor
/// together reproduce the witness stream with no gap and no re-delivery
/// of acked work.
#[test]
fn group_cursor_resumes_after_clean_drop() {
    const SAMPLES: usize = 96;
    const BATCH: usize = 4;
    const EPOCHS: u64 = 3;
    const PER_EPOCH: u64 = (SAMPLES / BATCH) as u64;
    // Victim leaves mid-epoch-1.
    const VICTIM_BATCHES: u64 = PER_EPOCH + PER_EPOCH / 2;

    let ctx = TsContext::host_only();
    let ep = "inproc://log-cursor-resume";
    let log_dir = fresh_dir("cursor-resume");
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: ep.to_string(),
            epochs: EPOCHS,
            rubberband_cutoff: 1.0,
            ..Default::default()
        })
        .log(&log_dir)
        .spawn(loader(SAMPLES, BATCH, 33))
        .expect("spawn logging producer");

    let mut witness = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("witness connect");
    let mut victim = Consumer::builder()
        .context(&ctx)
        .group("trainers")
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("victim connect");

    // Witness drains everything in the background (the window gates the
    // producer on its slowest member, so somebody must keep acking while
    // the victim stops and the successor replays) — but pauses just past
    // the victim's exit point until the successor is attached, so the
    // producer cannot race to End before the group resumes.
    let successor_up = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let successor_up_w = successor_up.clone();
    let witness_thread: std::thread::JoinHandle<Vec<Seen>> = std::thread::spawn(move || {
        let mut full = Vec::new();
        for batch in witness.by_ref() {
            full.push(seen(&batch.expect("clean witness stream")));
            while full.len() as u64 > VICTIM_BATCHES
                && !successor_up_w.load(std::sync::atomic::Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(witness.stop_reason(), Some(StopReason::End));
        full
    });

    // Victim consumes a batch and a half's worth of epochs, then leaves.
    let mut victim_stream = Vec::new();
    for batch in victim.by_ref() {
        victim_stream.push(seen(&batch.expect("clean victim stream")));
        if victim_stream.len() as u64 >= VICTIM_BATCHES {
            break;
        }
    }
    drop(victim); // clean Leave; last batch stays un-acked

    // Successor resumes the group: its cursor survived the Leave.
    let mut successor = Consumer::builder()
        .context(&ctx)
        .group("trainers")
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("successor connect");
    successor_up.store(true, std::sync::atomic::Ordering::Release);
    let mut resumed = Vec::new();
    for batch in successor.by_ref() {
        resumed.push(seen(&batch.expect("clean successor stream")));
    }
    assert_eq!(successor.stop_reason(), Some(StopReason::End));
    drop(successor);

    let full = witness_thread.join().expect("witness thread");
    producer.join().expect("producer join");

    assert_eq!(full.len() as u64, EPOCHS * PER_EPOCH);

    // The successor resumed from the victim's cursor: at or before the
    // first batch the victim never acked (the ack for batch k is sent
    // when batch k+1 is taken, so the cursor trails consumption by one).
    let first_resumed = resumed.first().expect("successor consumed nothing");
    let victim_last_acked = &victim_stream[victim_stream.len() - 2];
    assert!(
        first_resumed.seq <= victim_last_acked.seq + 1,
        "successor started at seq {} — past the group's acked prefix \
         (last acked seq {})",
        first_resumed.seq,
        victim_last_acked.seq
    );

    // No gap, no divergence: victim prefix + successor tail, deduped on
    // seq, is exactly the witness stream.
    let mut merged: Vec<Seen> = Vec::new();
    for s in victim_stream.iter().chain(resumed.iter()) {
        if let Some(pos) = merged.iter().position(|m| m.seq == s.seq) {
            assert_eq!(
                &merged[pos], s,
                "re-delivered batch diverged at seq {}",
                s.seq
            );
        } else {
            merged.push(s.clone());
        }
    }
    merged.sort_by_key(|s| s.seq);
    assert_eq!(
        merged, full,
        "victim + successor must reproduce the uninterrupted stream exactly"
    );
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// Regression: an epoch longer than the segment-retention budget, with a
/// grouped consumer joining mid-epoch while another consumer is active
/// (the rubberband `admit` path, splice point = the epoch start). With
/// no group cursor registered yet, retention used to trim purely by
/// budget, leaving `retained_min` past the joiner's splice point — its
/// `CtrlMsg::Replay` then panicked the producer control loop
/// (`Ord::clamp` with min > max), i.e. a remote message killed the
/// producer; and the shed pins' log frames were gone, so even a
/// surviving producer had nothing to replay. Retention is now floored
/// at the oldest rubberband pin and the resolver never panics: the
/// joiner's catch-up must be byte-identical to the witness stream.
#[test]
fn grouped_mid_epoch_join_survives_budget_trimmed_retention() {
    const SAMPLES: usize = 2048;
    const BATCH: usize = 4;
    const PER_EPOCH: u64 = (SAMPLES / BATCH) as u64; // 512
                                                     // Joiner arrives well past the retention budget (8-record segments,
                                                     // 0 sealed retained → budget ≈ 16 records without a floor).
    const JOIN_AT: u64 = 300;

    let ctx = TsContext::host_only();
    let ep = "inproc://log-trimmed-mid-epoch-join";
    let log_dir = fresh_dir("trimmed-mid-epoch");
    let mut log_cfg = ts_log::LogConfig::new(&log_dir);
    log_cfg.segment_records = 8;
    log_cfg.segment_bytes = 64 << 10;
    log_cfg.retain_segments = 0;
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: ep.to_string(),
            epochs: 1,
            // The whole epoch stays pinned/joinable: the join window is
            // still open when retention would otherwise have trimmed
            // far past the epoch start.
            rubberband_cutoff: 1.0,
            ..Default::default()
        })
        .log_config(log_cfg)
        .spawn(loader(SAMPLES, BATCH, 11))
        .expect("spawn logging producer");

    let mut witness = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("witness connect");

    // Pace the witness so the epoch spans several 25ms log sweeps —
    // retention and pin shedding must actually run before the joiner
    // arrives for this to regress.
    let mut full = Vec::new();
    let mut late: Option<std::thread::JoinHandle<Vec<Seen>>> = None;
    for batch in witness.by_ref() {
        let batch = batch.expect("clean witness stream");
        full.push(seen(&batch));
        if full.len() % 8 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if full.len() as u64 == JOIN_AT {
            let ctx_c = ctx.clone();
            late = Some(std::thread::spawn(move || {
                let mut joiner = Consumer::builder()
                    .context(&ctx_c)
                    .group("mid-epoch-group")
                    .recv_timeout(Duration::from_secs(20))
                    .connect(ep)
                    .expect("grouped mid-epoch connect");
                let mut got = Vec::new();
                for batch in joiner.by_ref() {
                    got.push(seen(&batch.expect("clean joiner stream")));
                }
                assert_eq!(joiner.stop_reason(), Some(StopReason::End));
                got
            }));
        }
    }
    assert_eq!(witness.stop_reason(), Some(StopReason::End));
    assert_eq!(full.len() as u64, PER_EPOCH);
    let joined = late
        .expect("joiner never spawned")
        .join()
        .expect("joiner thread");

    // The producer must have survived the Replay (no control-loop
    // panic) and finished its epoch.
    let stats = producer.join().expect("producer join");
    assert_eq!(stats.epochs_completed, 1);

    // The joiner's rubberband catch-up covered the whole epoch — shed
    // pins served from log frames retention was NOT allowed to delete.
    assert_eq!(
        joined, full,
        "mid-epoch group join must reproduce the witness stream exactly"
    );
    assert!(
        ctx.metrics.counter("replay.log_batches").get() > 0,
        "some catch-up batches must have come from shed pins' log frames"
    );
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// Regression: after a disk failure latches the spiller's `failed` flag,
/// `logged_up_to` keeps advancing (the arena-release gate must not wedge
/// on a bad disk) — but that makes `seq < logged_up_to` no proof the
/// bytes are in the log. The log sweep used to shed rubberband pins on
/// that test alone, releasing batches whose bytes were then neither live
/// nor on disk; a later joiner's catch-up silently skipped them, a
/// permanent stream gap. Pins must stay memory-resident once the log has
/// failed, so the joiner still gets a byte-identical epoch.
#[test]
fn pins_survive_log_failure_for_rubberband_replay() {
    const SAMPLES: usize = 192;
    const BATCH: usize = 4;
    const PER_EPOCH: u64 = (SAMPLES / BATCH) as u64; // 48
    const JOIN_AT: u64 = 30;

    let ctx = TsContext::host_only();
    let ep = "inproc://log-failure-pins";
    let log_dir = fresh_dir("failure-pins");
    let mut log_cfg = ts_log::LogConfig::new(&log_dir);
    log_cfg.segment_records = 4;
    log_cfg.segment_bytes = 64 << 10;
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: ep.to_string(),
            epochs: 1,
            rubberband_cutoff: 1.0,
            ..Default::default()
        })
        .log_config(log_cfg)
        .spawn(loader(SAMPLES, BATCH, 17))
        .expect("spawn logging producer");

    // Inject a disk failure at the third segment: a directory squatting
    // on the segment's path makes the spiller's rotation at seq 8 fail
    // (EISDIR regardless of privileges), latching `failed` after two
    // good segments. Publishing starts only once the witness joins, so
    // the obstruction is in place before any append.
    std::fs::create_dir_all(
        log_dir
            .join("shard-0")
            .join("seg-00000000000000000008.tslog"),
    )
    .expect("plant segment obstruction");

    let mut witness = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("witness connect");

    // Pace the epoch across several 25ms log sweeps: the sweep must get
    // the chance to (wrongly) shed pins before the joiner arrives.
    let mut full = Vec::new();
    let mut late: Option<std::thread::JoinHandle<Vec<Seen>>> = None;
    for batch in witness.by_ref() {
        let batch = batch.expect("clean witness stream");
        full.push(seen(&batch));
        std::thread::sleep(Duration::from_millis(1));
        if full.len() as u64 == JOIN_AT {
            let ctx_c = ctx.clone();
            late = Some(std::thread::spawn(move || {
                let mut joiner = Consumer::builder()
                    .context(&ctx_c)
                    .group("post-failure-group")
                    .recv_timeout(Duration::from_secs(20))
                    .connect(ep)
                    .expect("post-failure connect");
                let mut got = Vec::new();
                for batch in joiner.by_ref() {
                    got.push(seen(&batch.expect("clean joiner stream")));
                }
                assert_eq!(joiner.stop_reason(), Some(StopReason::End));
                got
            }));
        }
    }
    assert_eq!(witness.stop_reason(), Some(StopReason::End));
    assert_eq!(full.len() as u64, PER_EPOCH);
    let joined = late
        .expect("joiner never spawned")
        .join()
        .expect("joiner thread");
    producer.join().expect("producer join must not wedge");

    assert!(
        ctx.metrics.counter("log.append_errors").get() > 0,
        "the injected disk failure never latched — the test lost its teeth"
    );
    assert_eq!(
        joined, full,
        "catch-up after a log failure must be gapless and byte-identical \
         (pins kept memory-resident)"
    );
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// Regression: a consumer that drops mid-log-replay must release the
/// replay stream promptly — the producer stops streaming the logged
/// range at the dead topic (it drains control between frames) instead of
/// running it to completion, and finishes its epochs without wedging.
#[test]
fn drop_mid_log_replay_releases_stream() {
    const SAMPLES: usize = 4096;
    const BATCH: usize = 2;
    const EPOCHS: u64 = 2;
    const PER_EPOCH: u64 = (SAMPLES / BATCH) as u64; // 2048: a long replay range

    let ctx = TsContext::host_only();
    let ep = "inproc://log-drop-mid-replay";
    let log_dir = fresh_dir("drop-mid-replay");
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: ep.to_string(),
            epochs: EPOCHS,
            rubberband_cutoff: 1.0,
            ..Default::default()
        })
        .log(&log_dir)
        .spawn(loader(SAMPLES, BATCH, 7))
        .expect("spawn logging producer");

    let mut witness = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        .connect(ep)
        .expect("witness connect");

    // Let a full epoch land in the log before the doomed joiner arrives.
    let mut consumed = 0u64;
    for batch in witness.by_ref() {
        batch.expect("clean witness stream");
        consumed += 1;
        if consumed == PER_EPOCH + 8 {
            let doomed = Consumer::builder()
                .context(&ctx)
                .group("doomed")
                .recv_timeout(Duration::from_secs(20))
                .connect(ep)
                .expect("doomed connect");
            // Dropped the moment its replay plan is answered: the
            // producer is about to stream ≥ one epoch of logged frames.
            drop(doomed);
        }
    }
    assert_eq!(witness.stop_reason(), Some(StopReason::End));
    assert_eq!(consumed, EPOCHS * PER_EPOCH);
    let stats = producer.join().expect("producer join must not wedge");
    assert_eq!(stats.epochs_completed, EPOCHS);

    let replayed = ctx.metrics.counter("replay.log_batches").get();
    assert!(
        replayed < PER_EPOCH,
        "producer streamed {replayed} of a ≥{PER_EPOCH}-batch logged range \
         to a consumer that had already left — the mid-replay Leave was \
         not observed"
    );
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// Sequence numbers restart per run, so spawning over a log directory
/// that already holds records must fail loudly instead of serving stale
/// bytes to resuming groups.
#[test]
fn producer_refuses_dirty_log_dir() {
    const SAMPLES: usize = 16;
    const BATCH: usize = 4;

    let ctx = TsContext::host_only();
    let ep = "inproc://log-dirty-dir";
    let log_dir = fresh_dir("dirty-dir");
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: ep.to_string(),
            epochs: 1,
            first_consumer_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .log(&log_dir)
        .spawn(loader(SAMPLES, BATCH, 5))
        .expect("first spawn");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(20))
        .connect(ep)
        .expect("consumer connect");
    for batch in consumer.by_ref() {
        batch.expect("clean stream");
    }
    drop(consumer);
    producer.join().expect("producer join");

    let ctx2 = TsContext::host_only();
    let err = Producer::builder()
        .context(&ctx2)
        .endpoint("inproc://log-dirty-dir-2")
        .log(&log_dir)
        .spawn(loader(SAMPLES, BATCH, 5))
        .expect_err("second spawn over a non-empty log must fail");
    match err {
        TsError::Config(msg) => assert!(
            msg.contains("already holds records"),
            "unexpected config error: {msg}"
        ),
        other => panic!("expected Config error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// Flexible sizing carves per-consumer views with no streamed
/// serialization to store; combining it with the log is a typed spawn
/// failure, not a silently incomplete log.
#[test]
fn flexible_and_log_are_incompatible() {
    let ctx = TsContext::host_only();
    let log_dir = fresh_dir("flex-incompat");
    let err = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://log-flex-incompat")
        .flexible(tensorsocket::FlexibleConfig::new(8))
        .log(&log_dir)
        .spawn(loader(32, 4, 3))
        .expect_err("flexible + log must fail at spawn");
    match err {
        TsError::Config(msg) => assert!(
            msg.contains("incompatible"),
            "unexpected config error: {msg}"
        ),
        other => panic!("expected Config error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&log_dir);
}
