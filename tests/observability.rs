//! Live observability over real sockets: the control-plane stats scrape
//! against running producers.
//!
//! Everything here goes through the wire path `ts-top` uses —
//! [`tensorsocket::scrape_stats`] from a *separate* [`TsContext`] (its
//! own sockets, its own registry), over `ipc://`, against a producer
//! mid-stream — so these tests prove the scrape is genuinely
//! out-of-band: no consumer attach, no join, no shared process state.
//!
//! Covered acceptance criteria:
//!
//! * a sharded producer reports per-shard stage histograms
//!   (`stage.s<N>.feeder_fetch_ns`, `stage.s<N>.publish_ack_ns`) with
//!   non-zero quantiles, plus the consumer-side wait histogram, all in
//!   one deterministically-sorted snapshot;
//! * counters cohere across the pipeline: with a single consumer,
//!   `producer.batches == consumer.batches` and `consumer.acks` trails
//!   by exactly the one batch still being "trained on";
//! * a producer that receives a control frame with an unknown
//!   (future-version) tag ignores it and keeps serving — the stream
//!   still ends cleanly and `producer.ctrl_unknown` records the event;
//! * on a GPU producer the staging stage histograms
//!   (`staging.h2d_ns`, `staging.copy_wait_ns`) flow through the same
//!   scrape.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorsocket::{
    scrape_stats, scrape_trace, Consumer, Producer, SpanKind, StatsPayload, TraceRecordSnap,
    TsContext, WIRE_VERSION,
};
use ts_data::{DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample};
use ts_device::DeviceId;
use ts_tensor::Tensor;

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
        let field = Tensor::from_f32(&[raw.index as f32], &[1], DeviceId::Cpu)?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![field],
            label: raw.label,
        })
    }

    fn name(&self) -> &str {
        "observability-index"
    }
}

fn loader(samples: usize, batch: usize, workers: usize) -> DataLoader {
    DataLoader::new(
        Arc::new(IndexDataset { len: samples }),
        DataLoaderConfig {
            batch_size: batch,
            num_workers: workers,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    )
}

fn ipc_endpoint(tag: &str) -> String {
    format!(
        "ipc://{}",
        std::env::temp_dir()
            .join(format!("ts-obs-{tag}-{}.sock", std::process::id()))
            .display()
    )
}

/// Scrapes `endpoint` from a scrape-only context until `ready` accepts a
/// snapshot (counters settle as the pipeline warms up) or panics with
/// the last snapshot after `deadline`.
fn scrape_until(
    scrape_ctx: &TsContext,
    endpoint: &str,
    deadline: Duration,
    ready: impl Fn(&StatsPayload) -> bool,
) -> StatsPayload {
    let end = Instant::now() + deadline;
    let mut last: Option<StatsPayload> = None;
    loop {
        let stats =
            scrape_stats(scrape_ctx, endpoint, Duration::from_secs(5)).expect("scrape failed");
        if ready(&stats) {
            return stats;
        }
        if Instant::now() > end {
            panic!("scrape never satisfied the readiness predicate; last: {last:#?}");
        }
        last = Some(stats);
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn hist_warm(stats: &StatsPayload, name: &str) -> bool {
    stats.histogram(name).is_some_and(|h| h.count > 0)
}

/// Asserts a scraped histogram has plausible non-zero quantiles.
fn assert_hist_nonzero(stats: &StatsPayload, name: &str) {
    let h = stats
        .histogram(name)
        .unwrap_or_else(|| panic!("{name} missing from snapshot"));
    assert!(h.count > 0, "{name}: empty");
    assert!(h.p50() > 0, "{name}: zero p50");
    assert!(h.p99() >= h.p50(), "{name}: p99 < p50");
    assert!(h.max >= h.p99(), "{name}: max < p99");
    assert!(h.mean() > 0.0, "{name}: zero mean");
}

/// A consumer thread that consumes `pause_after` batches, reports in,
/// then parks until released — leaving the producer alive mid-stream
/// (window full / waiting on acks) with stable, scrapable metrics.
fn paused_consumer(
    ctx: &TsContext,
    endpoint: &str,
    pause_after: usize,
) -> (
    std::thread::JoinHandle<usize>,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
) {
    paused_consumer_with_id(ctx, endpoint, pause_after, None)
}

/// [`paused_consumer`], optionally pinning the consumer id — so tests can
/// assert on producer-side state that names the consumer (the watchdog's
/// straggler verdict).
fn paused_consumer_with_id(
    ctx: &TsContext,
    endpoint: &str,
    pause_after: usize,
    id: Option<u64>,
) -> (
    std::thread::JoinHandle<usize>,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
) {
    let (reached_tx, reached_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let ctx = ctx.clone();
    let endpoint = endpoint.to_string();
    let handle = std::thread::spawn(move || {
        let mut builder = Consumer::builder()
            .context(&ctx)
            .recv_timeout(Duration::from_secs(30));
        if let Some(id) = id {
            builder = builder.consumer_id(id);
        }
        let mut consumer = builder.connect(&endpoint).expect("consumer connect");
        let mut consumed = 0usize;
        for batch in consumer.by_ref() {
            batch.expect("clean stream");
            consumed += 1;
            if consumed == pause_after {
                reached_tx.send(()).unwrap();
                go_rx.recv().unwrap();
            }
        }
        consumed
    });
    (handle, reached_rx, go_tx)
}

#[test]
fn sharded_ipc_scrape_reports_per_shard_stage_histograms() {
    let endpoint = ipc_endpoint("sharded");
    let ctx = TsContext::host_only();
    let loaders = DataLoader::sharded(
        Arc::new(IndexDataset { len: 64 }),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 2,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
        2,
    );
    let group = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(3)
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn_sharded(loaders)
        .expect("spawn sharded group");

    // 3 epochs × 16 batches (8 per shard); pause halfway through.
    let (consumer, reached, go) = paused_consumer(&ctx, &endpoint, 24);
    reached
        .recv_timeout(Duration::from_secs(60))
        .expect("consumer reached the pause point");

    // The scrape context shares nothing with the pipeline: the snapshot
    // below arrived over the ipc:// socket, not through process memory.
    let scrape_ctx = TsContext::host_only();
    let targets = [
        "stage.s0.feeder_fetch_ns",
        "stage.s1.feeder_fetch_ns",
        "stage.s0.publish_ack_ns",
        "stage.s1.publish_ack_ns",
        "consumer.wait_ns",
        "consumer.interarrival_ns",
    ];
    let stats = scrape_until(&scrape_ctx, &endpoint, Duration::from_secs(30), |s| {
        targets.iter().all(|t| hist_warm(s, t))
    });

    assert_eq!(stats.version, WIRE_VERSION);
    for t in targets {
        assert_hist_nonzero(&stats, t);
    }
    assert!(stats.counter("producer.batches").unwrap_or(0) > 0);
    assert!(stats.counter("consumer.batches").unwrap_or(0) >= 24);
    let gauges = stats.gauges();
    for g in ["stage.s0.pin_depth", "stage.s1.pin_depth"] {
        assert!(
            gauges.iter().any(|(name, _)| name == g),
            "{g} missing from snapshot gauges"
        );
    }
    // S1: the snapshot arrives deterministically name-sorted.
    for pairs in [
        stats.counters.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        stats.histograms.iter().map(|(n, _)| n).collect::<Vec<_>>(),
    ] {
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "snapshot not sorted");
    }

    go.send(()).unwrap();
    let consumed = consumer.join().expect("consumer thread");
    assert_eq!(consumed, 48, "3 epochs × 16 interleaved batches");
    let stats = group.join_shards().expect("group join");
    assert_eq!(stats.len(), 2);
}

#[test]
fn scraped_counters_cohere_for_a_single_consumer() {
    let endpoint = ipc_endpoint("cohere");
    let ctx = TsContext::host_only();
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(1)
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn(loader(32, 4, 0))
        .expect("spawn producer");

    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        .connect(&endpoint)
        .expect("consumer connect");
    // Consume the whole epoch but do NOT advance past the last batch:
    // its ack is deferred until the consumer "moves on", so the producer
    // parks in its drain loop — alive, scrapable, counters settled.
    for _ in 0..8 {
        consumer.next().expect("batch").expect("clean stream");
    }

    let scrape_ctx = TsContext::host_only();
    let stats = scrape_stats(&scrape_ctx, &endpoint, Duration::from_secs(10)).expect("scrape");
    assert_eq!(stats.counter("producer.batches"), Some(8));
    assert_eq!(stats.counter("consumer.batches"), Some(8));
    assert_eq!(
        stats.counter("producer.batches"),
        stats.counter("consumer.batches"),
        "single consumer must have consumed every published batch"
    );
    // The ack for batch 8 is still pending (the consumer is "training").
    assert_eq!(stats.counter("consumer.acks"), Some(7));
    assert_hist_nonzero(&stats, "stage.publish_ack_ns");

    // Dropping the consumer sends the final ack; the producer finishes.
    drop(consumer);
    let final_stats = producer.join().expect("producer join");
    assert_eq!(final_stats.batches_published, 8);
}

#[test]
fn unknown_ctrl_tag_is_ignored_by_a_live_producer() {
    let endpoint = ipc_endpoint("unknown-tag");
    let ctx = TsContext::host_only();
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(2)
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn(loader(32, 4, 0))
        .expect("spawn producer");

    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_secs(30))
        .connect(&endpoint)
        .expect("consumer connect");

    let mut consumed = 0usize;
    for batch in consumer.by_ref() {
        batch.expect("clean stream");
        consumed += 1;
        if consumed == 1 {
            // A frame from a "newer" peer: valid length, unknown tag.
            // The producer must log-and-ignore it, not kill the stream.
            let map = ts_socket::EndpointMap::new(&endpoint, 1);
            let push = ts_socket::PushSocket::connect(&ctx.sockets, &map.ctrl(0));
            push.send(ts_socket::Multipart::single(bytes::Bytes::from_static(&[
                250, 0, 0, 0, 0, 0, 0, 0, 0,
            ])))
            .expect("push future-tag frame");
            // Hold the stream here (no acks flow, the producer parks on
            // its control channel) until the frame has been seen — so
            // the producer can't finish and exit before processing it.
            let deadline = Instant::now() + Duration::from_secs(10);
            while ctx.metrics.counter("producer.ctrl_unknown").get() == 0 {
                assert!(
                    Instant::now() < deadline,
                    "producer never processed the unknown frame"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    assert_eq!(consumed, 16, "stream must complete despite the alien frame");
    let stats = producer.join().expect("producer join");
    assert_eq!(stats.batches_published, 16);
    assert_eq!(stats.consumers_detached, 0);
    assert!(
        ctx.metrics.counter("producer.ctrl_unknown").get() >= 1,
        "the ignored frame must be counted"
    );
}

#[test]
fn gpu_staging_histograms_flow_through_the_scrape() {
    let endpoint = ipc_endpoint("staging");
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(3)
        .device(DeviceId::Gpu(0))
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn(loader(64, 4, 2))
        .expect("spawn producer");

    // 3 epochs × 16 batches; pause halfway.
    let (consumer, reached, go) = paused_consumer(&ctx, &endpoint, 24);
    reached
        .recv_timeout(Duration::from_secs(60))
        .expect("consumer reached the pause point");

    let scrape_ctx = TsContext::host_only();
    let targets = [
        "staging.h2d_ns",
        "staging.copy_wait_ns",
        "stage.feeder_fetch_ns",
        "stage.publish_ack_ns",
    ];
    let stats = scrape_until(&scrape_ctx, &endpoint, Duration::from_secs(30), |s| {
        targets.iter().all(|t| hist_warm(s, t))
    });
    for t in targets {
        assert_hist_nonzero(&stats, t);
    }
    assert!(stats.counter("staging.h2d_bytes").unwrap_or(0) > 0);

    go.send(()).unwrap();
    let consumed = consumer.join().expect("consumer thread");
    assert_eq!(consumed, 48);
    let final_stats = producer.join().expect("producer join");
    assert_eq!(final_stats.batches_published, 48);
}

#[test]
fn stats_replies_echo_the_request_sequence_stamp() {
    // The scrape protocol: each StatsRequest carries a sequence stamp
    // and the producer echoes it verbatim in the Stats reply, so a
    // scraper can tell the answer to its in-flight request from a late
    // duplicate of an earlier round.
    use tensorsocket::protocol::messages::{topics, CtrlMsg, DataMsg};

    let endpoint = ipc_endpoint("stats-seq");
    let ctx = TsContext::host_only();
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(2)
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn(loader(64, 4, 0))
        .expect("spawn producer");
    let (consumer, reached, go) = paused_consumer(&ctx, &endpoint, 4);
    reached
        .recv_timeout(Duration::from_secs(60))
        .expect("consumer reached the pause point");

    // Hand-rolled scrape from a separate context: stamp the request with
    // an arbitrary sequence and require the reply to echo it.
    let scrape_ctx = TsContext::host_only();
    let map = ts_socket::EndpointMap::new(&endpoint, 1);
    let token = 0xC0FFEE_u64;
    let sub = ts_socket::SubSocket::connect(&scrape_ctx.sockets, &map.data(0));
    sub.subscribe(&topics::stats(token));
    let push = ts_socket::PushSocket::connect(&scrape_ctx.sockets, &map.ctrl(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    let echoed = loop {
        push.send(ts_socket::Multipart::single(
            CtrlMsg::StatsRequest {
                token,
                version: WIRE_VERSION,
                seq: 7,
            }
            .encode(),
        ))
        .expect("push stats request");
        match sub.recv_timeout(Duration::from_millis(50)) {
            Ok((_, msg)) => {
                if let Ok(DataMsg::Stats { token: t, seq, .. }) = DataMsg::decode(&msg.frames()[0])
                {
                    assert_eq!(t, token);
                    break seq;
                }
            }
            Err(_) => assert!(Instant::now() < deadline, "no stats reply"),
        }
    };
    assert_eq!(echoed, 7, "the reply must echo the request's stamp");

    go.send(()).unwrap();
    let consumed = consumer.join().expect("consumer thread");
    assert_eq!(consumed, 32);
    producer.join().expect("producer join");
}

#[test]
fn scrapes_reject_unstamped_and_foreign_version_replies() {
    // A fake producer on raw sockets that answers every stats request
    // with stamp 0 (a reply to no attempt in particular) and every trace
    // request in another wire version. The stats scrape must treat the
    // unstamped replies as stale duplicates and time out; the trace
    // scrape must fail typed, from the version at the reply's head.
    use tensorsocket::protocol::messages::{topics, CtrlMsg, DataMsg, TracePayload};
    use tensorsocket::{HandshakeError, TsError};

    let endpoint = ipc_endpoint("scrape-reject");
    let sockets = ts_socket::Context::new();
    let map = ts_socket::EndpointMap::new(&endpoint, 1);
    let publisher = ts_socket::PubSocket::bind(&sockets, &map.data(0)).expect("bind data");
    let ctrl = ts_socket::PullSocket::bind(&sockets, &map.ctrl(0)).expect("bind ctrl");
    let fake = std::thread::spawn(move || {
        while let Ok(msg) = ctrl.recv_timeout(Duration::from_secs(2)) {
            let (topic, reply) = match CtrlMsg::decode(&msg.frames()[0]) {
                Ok(CtrlMsg::StatsRequest { token, .. }) => (
                    topics::stats(token),
                    DataMsg::Stats {
                        token,
                        payload: StatsPayload {
                            version: WIRE_VERSION,
                            ..Default::default()
                        },
                        seq: 0,
                    },
                ),
                Ok(CtrlMsg::TraceRequest { token, seq, .. }) => (
                    topics::trace(token),
                    DataMsg::Trace {
                        token,
                        payload: TracePayload {
                            version: WIRE_VERSION + 1,
                            ..Default::default()
                        },
                        seq,
                    },
                ),
                _ => continue,
            };
            let _ = publisher.send(&topic, ts_socket::Multipart::single(reply.encode()));
        }
    });
    let ctx = TsContext::host_only();
    assert_eq!(
        scrape_stats(&ctx, &endpoint, Duration::from_millis(400)).unwrap_err(),
        TsError::Timeout("stats snapshot"),
        "a reply stamped 0 answers no attempt"
    );
    assert!(ctx.metrics.counter("producer.stats_dup").get() >= 1);
    assert_eq!(
        scrape_trace(&ctx, &endpoint, 8, Duration::from_secs(10)).unwrap_err(),
        TsError::Handshake(HandshakeError::Version {
            ours: WIRE_VERSION,
            theirs: WIRE_VERSION + 1,
        })
    );
    fake.join().expect("fake producer");
}

/// The recorded `(start, end)` of `kind`, or a panic naming the record.
fn span_of(r: &TraceRecordSnap, kind: SpanKind) -> (u64, u64) {
    r.span(kind).unwrap_or_else(|| {
        panic!(
            "record (epoch={}, shard={}, seq={}) has no {} span: {:?}",
            r.epoch,
            r.shard,
            r.seq,
            kind.as_str(),
            r.spans
        )
    })
}

#[test]
fn flight_recorder_traces_batches_end_to_end_over_the_wire() {
    // The tentpole acceptance test: a sharded GPU-staged producer with an
    // arena + per-shard slot pools and one in-process consumer. The trace
    // scrape (from a separate context, over ipc://) must return completed
    // per-batch records whose span timestamps are monotonically ordered
    // across feeder → publish → ack, with the consumer-side recv/rebuild/
    // release spans stitched onto the *same* `(epoch, shard, seq)` record
    // — and every leased slot must come back with tracing enabled (the
    // recorder stamps relaxed atomics, it never allocates or holds a
    // batch).
    let endpoint = ipc_endpoint("flight-recorder");
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let arena_path =
        std::env::temp_dir().join(format!("ts-obs-trace-{}.arena", std::process::id()));
    let loaders = DataLoader::sharded(
        Arc::new(IndexDataset { len: 64 }),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 2,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
        2,
    );
    let group = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(3)
        .device(DeviceId::Gpu(0))
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .arena_sized(&arena_path, 64, 4096)
        .spawn_sharded(loaders)
        .expect("spawn sharded group");
    let arena = group.arena().expect("arena bound").clone();

    // 3 epochs × 16 interleaved batches; pause halfway so the producer is
    // alive and the ring holds a steady state of completed records.
    let (consumer, reached, go) = paused_consumer(&ctx, &endpoint, 24);
    reached
        .recv_timeout(Duration::from_secs(60))
        .expect("consumer reached the pause point");

    let scrape_ctx = TsContext::host_only();
    let deadline = Instant::now() + Duration::from_secs(30);
    let payload = loop {
        let p =
            scrape_trace(&scrape_ctx, &endpoint, 64, Duration::from_secs(5)).expect("trace scrape");
        if p.records.len() >= 8 {
            break p;
        }
        assert!(
            Instant::now() < deadline,
            "flight recorder never filled: {} record(s)",
            p.records.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(payload.version, WIRE_VERSION);
    assert!(payload.now_ns > 0);

    let mut shards_seen = std::collections::BTreeSet::new();
    for r in &payload.records {
        assert!(r.complete, "last_n must only return completed records");
        shards_seen.insert(r.shard);
        // Every span is well-formed on the recorder's one clock.
        for &(kind, start, end) in &r.spans {
            assert!(
                SpanKind::from_u8(kind).is_some(),
                "unknown span kind {kind}"
            );
            assert!(0 < start && start <= end, "span {kind}: {start}..{end}");
        }
        // Producer side: monotonically ordered feeder → publish → ack.
        let fetch = span_of(r, SpanKind::Fetch);
        let h2d = span_of(r, SpanKind::H2d);
        let publish = span_of(r, SpanKind::Publish);
        let announce = span_of(r, SpanKind::Announce);
        let ack = span_of(r, SpanKind::Ack);
        assert!(fetch.1 <= publish.0, "fetch must end before publish opens");
        assert!(fetch.1 <= h2d.0, "H2D reads the fetched batch");
        assert!(publish.0 <= announce.0, "announce opens inside publishing");
        assert!(
            announce.1 <= ack.1,
            "the final ack lands after the announce"
        );
        assert!(ack.0 <= ack.1 && publish.0 <= ack.0, "ack opens at publish");
        // Consumer side, stitched onto the same (epoch, shard, seq) key
        // because the in-process consumer shares the context's recorder.
        let recv = span_of(r, SpanKind::Recv);
        let rebuild = span_of(r, SpanKind::Rebuild);
        let release = span_of(r, SpanKind::Release);
        assert!(
            recv.1 <= rebuild.0,
            "rebuild starts after the announce landed"
        );
        assert!(rebuild.1 <= release.0, "the trainer holds a rebuilt batch");
        assert!(release.1 <= ack.1, "the producer acks after the release");
        assert!(
            announce.0 <= recv.1,
            "the consumer cannot receive before the producer announces"
        );
    }
    assert_eq!(
        shards_seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "records must cover both shards"
    );

    go.send(()).unwrap();
    let consumed = consumer.join().expect("consumer thread");
    assert_eq!(consumed, 48, "3 epochs × 16 interleaved batches");
    let stats = group.join_shards().expect("group join");
    assert!(stats.iter().all(|s| s.bytes_staged > 0), "staging ran");
    // `join_shards` drained the shard pools: every slot came back.
    assert!(ctx.registry.is_empty());
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn watchdog_names_the_straggling_consumer_in_its_verdict() {
    // Stall injection: two consumers, one of which parks mid-batch
    // without acking. The producer's watchdog must classify the stall as
    // consumer-straggler, name the offending consumer id in its verdict,
    // and surface both through the scraped stats snapshot (verdict +
    // `watchdog.stalls.consumer` counter + the uptime/snapshot
    // stamps).
    const STRAGGLER: u64 = 7777;
    let endpoint = ipc_endpoint("watchdog");
    let ctx = TsContext::host_only();
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(2)
        .watchdog_stall_multiple(1.0)
        // Admit the late-joining healthy consumer with a full replay
        // instead of parking it at the epoch barrier (which the paused
        // straggler would never let the stream reach).
        .rubberband_cutoff(1.0)
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn(loader(64, 4, 0))
        .expect("spawn producer");

    // The straggler attaches first (with a pinned id), then a healthy
    // consumer that acks everything promptly — so once both saw the
    // stuck batch, only the straggler still owes its ack.
    let (slow, reached, go) = paused_consumer_with_id(&ctx, &endpoint, 4, Some(STRAGGLER));
    reached
        .recv_timeout(Duration::from_secs(60))
        .expect("straggler reached the pause point");
    // The straggler holds the window at its 4th batch; with the default
    // publish window the producer can run only a couple of batches
    // further, so 5 is as far as the healthy consumer can get.
    let (fast, fast_reached, fast_go) = paused_consumer(&ctx, &endpoint, 5);
    fast_reached
        .recv_timeout(Duration::from_secs(60))
        .expect("healthy consumer caught up");
    fast_go.send(()).unwrap();

    let scrape_ctx = TsContext::host_only();
    let stats = scrape_until(&scrape_ctx, &endpoint, Duration::from_secs(30), |s| {
        s.verdict.contains("consumer-straggler")
    });
    assert!(
        stats
            .verdict
            .contains(&format!("consumer-straggler consumer={STRAGGLER}")),
        "verdict must name the straggler: {:?}",
        stats.verdict
    );
    assert!(
        stats.counter("watchdog.stalls.consumer").unwrap_or(0) >= 1,
        "the stall must be counted"
    );
    assert!(stats.uptime_ns > 0, "snapshots carry producer uptime");
    assert!(
        stats.snapshot_ns > 0,
        "snapshots carry a monotonic snapshot stamp"
    );

    go.send(()).unwrap();
    let slow_consumed = slow.join().expect("straggler thread");
    let fast_consumed = fast.join().expect("healthy thread");
    assert_eq!(slow_consumed, 32, "2 epochs × 16 batches");
    assert_eq!(fast_consumed, 32);
    let final_stats = producer.join().expect("producer join");
    assert_eq!(final_stats.batches_published, 32);
    assert_eq!(final_stats.consumers_detached, 0);
}
