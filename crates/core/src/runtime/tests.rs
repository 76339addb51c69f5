//! End-to-end tests of the threaded runtime: producer + consumers over real
//! threads, real sockets, real payload sharing — through the
//! `Producer`/`Consumer` builders; where a test plays the producer itself
//! on raw sockets it answers the HELLO too (`fake_welcome`).

use crate::protocol::order::OrderConfig;
use crate::runtime::builder::{ConsumerBuilder, Producer};
use crate::runtime::config::{FlexibleConfig, ProducerConfig};
use crate::runtime::consumer::{Consumer, StopReason};
use crate::runtime::context::TsContext;
use crate::runtime::producer::EpochSource;
use crate::{HandshakeError, TsError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use ts_data::{DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample};
use ts_device::DeviceId;
use ts_tensor::Tensor;

/// A tiny dataset where `label == index` and the single field encodes the
/// index, so tests can check coverage and identity exactly.
struct IndexDataset {
    len: usize,
}

impl Dataset for IndexDataset {
    fn len(&self) -> usize {
        self.len
    }
    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        if index >= self.len {
            return Err(ts_data::DataError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
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
        "index"
    }
}

fn loader(n: usize, batch: usize) -> DataLoader {
    DataLoader::new(
        Arc::new(IndexDataset { len: n }),
        DataLoaderConfig {
            batch_size: batch,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    )
}

fn producer_cfg(endpoint: &str, epochs: u64) -> ProducerConfig {
    ProducerConfig {
        endpoint: endpoint.to_string(),
        epochs,
        heartbeat_timeout: Duration::from_millis(500),
        first_consumer_timeout: Some(Duration::from_secs(5)),
        ..Default::default()
    }
}

fn spawn(
    source: impl EpochSource,
    ctx: &TsContext,
    cfg: ProducerConfig,
) -> crate::Result<Producer> {
    Producer::builder().context(ctx).config(cfg).spawn(source)
}

fn spawn_sharded(
    sources: Vec<DataLoader>,
    ctx: &TsContext,
    cfg: ProducerConfig,
) -> crate::Result<Producer> {
    Producer::builder()
        .context(ctx)
        .config(cfg)
        .spawn_sharded(sources)
}

/// A consumer builder in `ctx` with test-sized timings; everything else
/// comes from the handshake.
fn consumer(ctx: &TsContext) -> ConsumerBuilder {
    Consumer::builder()
        .context(ctx)
        .heartbeat_interval(Duration::from_millis(50))
        .recv_timeout(Duration::from_secs(5))
}

/// The WELCOME of a test that plays the producer itself on raw sockets:
/// `shards` shards, no arena, no log.
fn fake_welcome(publisher: &ts_socket::PubSocket, token: u64, shards: u32) {
    use crate::protocol::messages::{topics, DataMsg, WelcomeInfo, WIRE_VERSION};
    let info = WelcomeInfo {
        version: WIRE_VERSION,
        shards,
        batch_size: 4,
        flex_producer_batch: 0,
        flex_order: Default::default(),
        staging: 0,
        arena: None,
        endpoint_overrides: Vec::new(),
        log: None,
    };
    let welcome = DataMsg::Welcome { token, info };
    let frame = ts_socket::Multipart::single(welcome.encode());
    publisher.send(&topics::hello(token), frame).unwrap();
}

/// ... and its answer to a JOIN: admitted at seq 0 of epoch 0.
fn fake_admit(publisher: &ts_socket::PubSocket, consumer_id: u64) {
    use crate::protocol::messages::{topics, DataMsg, JoinDecision};
    let decision = JoinDecision::AdmitReplay {
        epoch: 0,
        replay_from: 0,
        num_batches: 100,
        start_seq: 0,
        index: 0,
    };
    let reply = DataMsg::JoinReply {
        consumer_id,
        decision,
    };
    let frame = ts_socket::Multipart::single(reply.encode());
    publisher
        .send(&topics::consumer(consumer_id), frame)
        .unwrap();
}

/// A loader over `IndexDataset` with an explicit pipeline shape.
fn loader_with_workers(n: usize, batch: usize, workers: usize) -> DataLoader {
    DataLoader::new(
        Arc::new(IndexDataset { len: n }),
        DataLoaderConfig {
            batch_size: batch,
            num_workers: workers,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    )
}

/// (epoch, index_in_epoch, labels, last_in_epoch) per received batch.
type BatchTrace = Vec<(u64, u64, Vec<i64>, bool)>;

#[test]
fn pipelined_producer_preserves_batch_order_across_worker_counts() {
    // The pipelined producer (num_workers >= 1, feeder thread + hand-off
    // queue) must publish the exact same batch stream as the serial one
    // (num_workers == 0, inline loading).
    let mut streams: Vec<BatchTrace> = Vec::new();
    for workers in [0usize, 1, 4] {
        let ctx = TsContext::host_only();
        let ep = format!("inproc://order-w{workers}");
        let producer = spawn(
            loader_with_workers(64, 4, workers),
            &ctx,
            producer_cfg(&ep, 2),
        )
        .unwrap();
        let mut consumer = consumer(&ctx).connect(&ep).unwrap();
        let mut stream = Vec::new();
        for b in consumer.by_ref().flatten() {
            stream.push((
                b.epoch,
                b.index_in_epoch,
                b.labels.to_vec_i64().unwrap(),
                b.last_in_epoch,
            ));
        }
        assert_eq!(consumer.stop_reason(), Some(StopReason::End));
        let stats = producer.join().unwrap();
        assert_eq!(stats.batches_published, 32, "workers={workers}");
        streams.push(stream);
    }
    assert_eq!(streams[0].len(), 32);
    assert_eq!(streams[0], streams[1], "1 worker must match serial");
    assert_eq!(streams[0], streams[2], "4 workers must match serial");
}

#[test]
fn pipelined_flexible_mode_matches_serial_stream() {
    // Same invariance under flexible sizing, where the feeder also fuses
    // loader batches into producer batches.
    let mut streams: Vec<Vec<(u64, u64, Vec<i64>)>> = Vec::new();
    for workers in [0usize, 3] {
        let ctx = TsContext::host_only();
        let ep = format!("inproc://order-flex-w{workers}");
        let mut cfg = producer_cfg(&ep, 1);
        cfg.flexible = Some(FlexibleConfig::new(16));
        let producer = spawn(loader_with_workers(64, 8, workers), &ctx, cfg).unwrap();
        let mut consumer = consumer(&ctx).batch_size(4).connect(&ep).unwrap();
        let mut stream = Vec::new();
        for b in consumer.by_ref().flatten() {
            stream.push((b.epoch, b.index_in_epoch, b.labels.to_vec_i64().unwrap()));
        }
        producer.join().unwrap();
        streams.push(stream);
    }
    assert_eq!(streams[0].len(), 16); // 4 producer batches × 4 carved
    assert_eq!(streams[0], streams[1]);
}

#[test]
fn steady_state_publish_recycles_arena_slots_without_allocating() {
    // With an arena + slot pool bound, the warmed-up publish path must
    // perform zero arena allocations: every placement after warmup is a
    // recycled slot (pool hit), asserted via the pool counters.
    let ctx = TsContext::host_only();
    let arena_path = std::env::temp_dir().join(format!(
        "ts-producer-pool-steady-{}.arena",
        std::process::id()
    ));
    // Sized the way `ProducerBuilder::arena` sizes it — window (2) + pin
    // (1) + everything that owns its slots ahead of the publish cursor
    // (inside the loader 2 workers × (2 prefetched + 1 being built), a
    // feeder queue of 2 workers × 2 prefetch, the staging hand-off's 2, one
    // item in the feeder's hand, one in the pump's) + margin = 18 batches,
    // one slot each — so the loader's workers lease from it, and warmed by
    // pre-reserving the pool, so "warm" does not depend on how far ahead
    // the loader happened to get in the first 8 batches: with a cold pool
    // every new high-water mark of the in-flight set is a fresh
    // allocation, whenever it is reached.
    ctx.create_arena(&arena_path, 24, 4096, &[18]).unwrap();
    let pool = ctx.registry.shard_slot_pool(0).unwrap();
    assert_eq!(pool.preallocate(18), 18);
    let ep = "inproc://pool-steady";
    let mut cfg = producer_cfg(ep, 2);
    // Small join window: pins (and their slots) return to the pool early.
    cfg.rubberband_cutoff = 0.02;
    let producer = spawn(loader_with_workers(64, 4, 2), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut consumed = 0u64;
    let mut warmed_misses = None;
    for _ in consumer.by_ref().flatten() {
        consumed += 1;
        if consumed == 8 {
            // Warmup over: window-depth many slots have cycled through.
            warmed_misses = Some(pool.stats().misses);
        }
    }
    assert_eq!(consumed, 32, "2 epochs × 16 batches");
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 32);
    let end = pool.stats();
    let warmed = warmed_misses.unwrap();
    assert_eq!(
        end.misses, warmed,
        "steady-state publishing allocated arena slots: {warmed} misses at warmup, {} at end \
         (hits {}, busy discards {})",
        end.misses, end.hits, end.busy_discards
    );
    // Each announce places 1 storage (field and labels in one slot);
    // everything beyond the warmup set was a recycled slot.
    assert!(end.hits >= 32 - warmed, "hits {} too low", end.hits);
    assert_eq!(ctx.metrics.counter("stage.loader_unbound").get(), 0);
    // After the run every slot is back in the pool; draining it empties
    // the arena completely.
    assert!(ctx.registry.is_empty());
    pool.drain();
    assert_eq!(ctx.arena().unwrap().slots_in_use(), 0);
}

#[test]
fn gpu_staged_stream_is_byte_identical_to_the_cpu_only_stream() {
    // What a consumer sees under device staging is the CPU-only stream —
    // itself what the loader yields, the reference — apart from device
    // placement, in both pipeline shapes; and after the run every slab and
    // every arena slot is back.
    for workers in [0usize, 2] {
        let reference = reference_trace(&[loader_with_workers(48, 4, workers)], 2);
        for (on, device) in [("cpu", DeviceId::Cpu), ("gpu", DeviceId::Gpu(0))] {
            let tag = format!("{on} workers={workers}");
            let ctx = TsContext::with_gpus(1, 1 << 30, false);
            let ep = format!("inproc://stage-id-{on}-w{workers}");
            let mut cfg = producer_cfg(&ep, 2);
            cfg.device = device;
            let producer = Producer::builder()
                .context(&ctx)
                .config(cfg)
                .arena(arena_path(&format!("stage-id-{on}-w{workers}")))
                .spawn(loader_with_workers(48, 4, workers))
                .unwrap();
            let arena = producer.arena().unwrap().clone();
            let mut consumer = consumer(&ctx).connect(&ep).unwrap();
            let mut trace: ByteTrace = Vec::new();
            for b in consumer.by_ref().flatten() {
                assert_eq!(b.fields[0].device(), device, "{tag}");
                trace.push((
                    b.epoch,
                    b.shard,
                    b.index_in_epoch,
                    b.labels.to_vec_i64().unwrap(),
                    b.fields[0].gather_bytes(),
                    b.last_in_epoch,
                ));
            }
            assert_eq!(consumer.stop_reason(), Some(StopReason::End), "{tag}");
            drop(consumer);
            let stats = producer.join().unwrap();
            assert_eq!(stats.batches_published, 24, "{tag}");
            // One slot per batch, copied whole: fields (4 samples × 2 f32)
            // at 0, labels (4 × i64) at 64; nothing on the CPU.
            let staged = u64::from(device.is_gpu()) * 24 * (64 + 4 * 8);
            assert_eq!(stats.bytes_staged, staged, "{tag}");
            let vram = ctx.devices.memory(DeviceId::Gpu(0)).unwrap();
            assert_eq!(vram.in_use(), 0, "{tag}: a slab is still out");
            assert_eq!(arena.slots_in_use(), 0, "{tag}: a slot is still out");
            assert!(trace == reference, "{tag} saw another stream");
        }
    }
}

#[test]
fn a_gpu_the_context_does_not_have_fails_the_spawn_not_the_first_batch() {
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let mut cfg = producer_cfg("inproc://no-such-gpu", 1);
    cfg.device = DeviceId::Gpu(9);
    match spawn(loader(16, 4), &ctx, cfg.clone()) {
        Err(TsError::Config(why)) => assert!(why.contains("cuda:9"), "{why}"),
        other => panic!("spawned on a device that is not there: {other:?}"),
    }
    // Nothing was bound on the way out: the endpoint is free for a
    // producer the context can serve.
    cfg.device = DeviceId::Gpu(0);
    let producer = spawn(loader(16, 4), &ctx, cfg).unwrap();
    producer.abort();
    producer.join().unwrap();
}

#[test]
fn a_second_arena_producer_on_one_context_is_refused() {
    let ctx = TsContext::host_only();
    let builder = |name: &str| {
        let cfg = producer_cfg(&format!("inproc://{name}"), 1);
        let arena = arena_path(name);
        Producer::builder()
            .context(&ctx)
            .config(cfg)
            .arena_sized(arena, 8, 4096)
    };
    let first = builder("arena-first").spawn(loader(16, 4)).unwrap();
    let pool = ctx.registry.shard_slot_pool(0).expect("shard 0's pool");
    match builder("arena-second").spawn(loader(16, 4)) {
        Err(TsError::Config(why)) => assert!(why.contains("own context"), "{why}"),
        other => panic!("two arena producers on one context: {other:?}"),
    }
    // The first producer's pool is still the one bound, over its arena.
    let bound = ctx.registry.shard_slot_pool(0).unwrap();
    assert!(Arc::ptr_eq(bound.arena(), pool.arena()));
    assert!(Arc::ptr_eq(bound.arena(), first.arena().unwrap()));
    first.abort();
    first.join().unwrap();
}

#[test]
fn steady_state_staging_performs_zero_device_allocations() {
    // Acceptance criterion: after warm-up, the slab rotation serves every
    // staged batch without touching the device allocator — asserted via
    // the MemoryBook allocation counter. The epoch is long enough that
    // the rubberband pin set (ceil(256 × 0.02) = 6 batches, whose slabs
    // stay leased past full acknowledgement) exceeds any small fixed
    // headroom: the rotation must be sized from the real pin limit.
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let ep = "inproc://stage-zero-alloc";
    let mut cfg = producer_cfg(ep, 2);
    cfg.device = DeviceId::Gpu(0);
    let producer = spawn(loader_with_workers(1024, 4, 2), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let book = ctx.devices.memory(DeviceId::Gpu(0)).unwrap().clone();
    let mut consumed = 0u64;
    let mut warmed_allocs = None;
    for _ in consumer.by_ref().flatten() {
        consumed += 1;
        if consumed == 16 {
            warmed_allocs = Some(book.alloc_count());
        }
    }
    assert_eq!(consumed, 512, "2 epochs × 256 batches");
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 512);
    let warmed = warmed_allocs.unwrap();
    assert!(warmed > 0, "warm-up allocated the rotation");
    assert_eq!(
        book.alloc_count(),
        warmed,
        "steady-state staging allocated device memory after warm-up"
    );
    assert_eq!(book.in_use(), 0, "rotation drained after the run");
    assert!(book.peak() > 0);
    // The staging metrics flowed through the shared registry.
    let m = &ctx.metrics;
    assert_eq!(
        m.counter("staging.h2d_bytes").get(),
        stats.bytes_staged,
        "every published byte went through the copy stage"
    );
    assert_eq!(m.gauge("staging.slab_occupancy").get(), 0.0);
    assert_eq!(m.gauge("staging.copy_queue_depth").get(), 0.0);
    assert!(m.gauge("staging.h2d_bytes_per_sec").get() > 0.0);
}

#[test]
fn single_consumer_sees_all_batches_in_order() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t1";
    let producer = spawn(loader(32, 4), &ctx, producer_cfg(ep, 2)).unwrap();
    let consumer = consumer(&ctx).connect(ep).unwrap();
    let mut labels_seen: Vec<i64> = Vec::new();
    let mut last_flags = 0;
    let mut consumer = consumer;
    for batch in consumer.by_ref().flatten() {
        assert_eq!(batch.batch_size(), 4);
        labels_seen.extend(batch.labels.to_vec_i64().unwrap());
        if batch.last_in_epoch {
            last_flags += 1;
        }
    }
    assert_eq!(consumer.stop_reason(), Some(StopReason::End));
    // 2 epochs × 32 samples, sequential sampler
    let expected: Vec<i64> = (0..32).chain(0..32).map(|i| i as i64).collect();
    assert_eq!(labels_seen, expected);
    assert_eq!(last_flags, 2);
    let stats = producer.join().unwrap();
    assert_eq!(stats.epochs_completed, 2);
    assert_eq!(stats.batches_published, 16);
    assert_eq!(stats.peak_consumers, 1);
}

#[test]
fn two_consumers_share_storage_zero_copy() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t2";
    let mut cfg = producer_cfg(ep, 1);
    // Keep the whole (tiny) epoch inside the join window so the second
    // consumer is admitted regardless of connect timing.
    cfg.rubberband_cutoff = 1.0;
    let producer = spawn(loader(16, 4), &ctx, cfg).unwrap();
    let c1 = consumer(&ctx).connect(ep).unwrap();
    let c2 = consumer(&ctx).connect(ep).unwrap();
    let h1 = std::thread::spawn(move || {
        let mut ids = Vec::new();
        let mut c1 = c1;
        for b in c1.by_ref().flatten() {
            ids.push((b.seq, b.fields[0].storage_id()));
        }
        ids
    });
    let h2 = std::thread::spawn(move || {
        let mut ids = Vec::new();
        let mut c2 = c2;
        for b in c2.by_ref().flatten() {
            ids.push((b.seq, b.fields[0].storage_id()));
        }
        ids
    });
    let ids1 = h1.join().unwrap();
    let ids2 = h2.join().unwrap();
    producer.join().unwrap();
    assert_eq!(ids1.len(), 4);
    // identical storage ids: the data was shared, not copied
    assert_eq!(ids1, ids2);
}

#[test]
fn memory_is_released_after_run() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t3";
    let producer = spawn(loader(16, 4), &ctx, producer_cfg(ep, 1)).unwrap();
    let consumer = consumer(&ctx).connect(ep).unwrap();
    let n = consumer.flatten().count();
    assert_eq!(n, 4);
    producer.join().unwrap();
    assert!(
        ctx.registry.is_empty(),
        "registry still holds {} storages",
        ctx.registry.len()
    );
}

#[test]
fn slow_consumer_bounds_producer_drift() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t4";
    let mut cfg = producer_cfg(ep, 1);
    cfg.buffer_size = 2;
    let producer = spawn(loader(64, 4), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut max_buffered = 0usize;
    while let Some(_b) = consumer.next() {
        // The local buffer (socket queue + decoded queue) can never exceed
        // the window: the producer stops at N unacked.
        max_buffered = max_buffered.max(consumer.buffered());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        max_buffered <= 2,
        "buffered {max_buffered} exceeded window of 2"
    );
    producer.join().unwrap();
}

#[test]
fn gpu_staging_accounts_traffic_and_releases_vram() {
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let ep = "inproc://t5";
    let mut cfg = producer_cfg(ep, 1);
    cfg.device = DeviceId::Gpu(0);
    let producer = spawn(loader(16, 4), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut batches = 0;
    for b in consumer.by_ref().flatten() {
        assert_eq!(b.fields[0].device(), DeviceId::Gpu(0));
        batches += 1;
    }
    assert_eq!(batches, 4);
    let stats = producer.join().unwrap();
    // fields: 4 samples × 2 f32 = 32 B; labels: 4 × 8 = 32 B; ×4 batches
    assert_eq!(stats.bytes_staged, 4 * 64);
    let pcie = ctx
        .devices
        .traffic()
        .bytes(ts_device::traffic::Channel::Pcie(0));
    assert_eq!(pcie, 4 * 64);
    // all VRAM released after the run
    assert_eq!(ctx.devices.memory(DeviceId::Gpu(0)).unwrap().in_use(), 0);
    assert!(ctx.devices.memory(DeviceId::Gpu(0)).unwrap().peak() > 0);
}

#[test]
fn flexible_batch_sizes_fig5() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t6";
    let mut cfg = producer_cfg(ep, 1);
    cfg.flexible = Some(FlexibleConfig::new(16));
    // tiny epoch: keep the join window open for all three consumers
    cfg.rubberband_cutoff = 1.0;
    // 64 samples, loader batches of 8, producer batches of 16 → 4 producer
    // batches per epoch.
    let producer = spawn(loader(64, 8), &ctx, cfg).unwrap();

    // Connect every consumer before any of them starts consuming, so the
    // tiny epoch cannot finish before the later joins arrive.
    let connect = |bs: usize| consumer(&ctx).batch_size(bs).connect(ep).unwrap();
    let spawn_consumer = |mut c: Consumer| {
        std::thread::spawn(move || {
            let mut per_pb: HashMap<u64, Vec<i64>> = HashMap::new();
            let mut sizes = Vec::new();
            for b in c.by_ref().flatten() {
                sizes.push(b.batch_size());
                per_pb
                    .entry(b.index_in_epoch)
                    .or_default()
                    .extend(b.labels.to_vec_i64().unwrap());
            }
            assert_eq!(c.stop_reason(), Some(StopReason::End));
            (sizes, per_pb)
        })
    };
    let (c4, c7, c6) = (connect(4), connect(7), connect(6));
    let h4 = spawn_consumer(c4);
    let h7 = spawn_consumer(c7);
    let h6 = spawn_consumer(c6);
    let (sizes4, pb4) = h4.join().unwrap();
    let (sizes7, pb7) = h7.join().unwrap();
    let (sizes6, pb6) = h6.join().unwrap();
    producer.join().unwrap();

    // Figure 5: consumers receive ceil(16/b) batches of exactly b samples
    // per producer batch.
    assert_eq!(sizes4, vec![4; 16]);
    assert_eq!(sizes7, vec![7; 12]);
    assert_eq!(sizes6, vec![6; 12]);

    // Every consumer covers every sample of every producer batch; repeats
    // stay within ceil(P/b)*b - P.
    for (pb, expected_repeats) in [(&pb4, 0usize), (&pb7, 5), (&pb6, 2)] {
        assert_eq!(pb.len(), 4, "4 producer batches");
        for labels in pb.values() {
            let unique: BTreeSet<i64> = labels.iter().copied().collect();
            assert_eq!(unique.len(), 16, "full coverage of the producer batch");
            assert_eq!(labels.len(), 16 + expected_repeats);
        }
    }

    // All consumers saw the same sample universe (same data, same rate).
    let all4: BTreeSet<i64> = pb4.values().flatten().copied().collect();
    let all7: BTreeSet<i64> = pb7.values().flatten().copied().collect();
    assert_eq!(all4, all7);
    assert_eq!(all4.len(), 64);
}

#[test]
fn flexible_rejects_oversized_consumer_batch() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t7";
    let mut cfg = producer_cfg(ep, 1);
    cfg.flexible = Some(FlexibleConfig::new(8));
    cfg.first_consumer_timeout = Some(Duration::from_millis(400));
    let producer = spawn(loader(16, 4), &ctx, cfg).unwrap();
    let err = consumer(&ctx).batch_size(64).connect(ep).unwrap_err();
    assert!(matches!(err, crate::TsError::Join(_)), "{err:?}");
    let stats = producer.join().unwrap();
    assert_eq!(stats.joins_rejected, 1);
}

#[test]
fn order_variation_decorrelates_consumers() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t8";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0;
    cfg.flexible = Some(FlexibleConfig {
        producer_batch: 16,
        order: OrderConfig {
            offsets: true,
            shuffle: true,
            seed: 7,
        },
    });
    let producer = spawn(loader(32, 8), &ctx, cfg).unwrap();
    let connect = |id: u64| {
        consumer(&ctx)
            .batch_size(4)
            .consumer_id(id)
            .connect(ep)
            .unwrap()
    };
    let spawn_consumer = |mut c: Consumer| {
        std::thread::spawn(move || {
            let mut batches: Vec<Vec<i64>> = Vec::new();
            for b in c.by_ref().flatten() {
                batches.push(b.labels.to_vec_i64().unwrap());
            }
            batches
        })
    };
    // connect both before either consumes (the epoch is tiny)
    let (c1, c2) = (connect(11), connect(22));
    let h1 = spawn_consumer(c1);
    let h2 = spawn_consumer(c2);
    let b1 = h1.join().unwrap();
    let b2 = h2.join().unwrap();
    producer.join().unwrap();
    assert_eq!(b1.len(), 8); // 2 producer batches × 4 carved batches
    assert_eq!(b2.len(), 8);
    // Different offsets/shuffles: the batch streams must differ...
    assert_ne!(b1, b2);
    // ...but the sample universe is identical.
    let s1: BTreeSet<i64> = b1.iter().flatten().copied().collect();
    let s2: BTreeSet<i64> = b2.iter().flatten().copied().collect();
    assert_eq!(s1, s2);
    assert_eq!(s1.len(), 32);
}

#[test]
fn rubberband_admits_and_replays_early_joiner() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t9";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 0.25; // generous window: 4 of 16 batches
    cfg.buffer_size = 2;
    let producer = spawn(loader(64, 4), &ctx, cfg).unwrap();
    // First consumer starts immediately and consumes slowly.
    let mut c1 = consumer(&ctx).connect(ep).unwrap();
    let mut first_labels: Vec<i64> = Vec::new();
    for _ in 0..2 {
        let b = c1.next().unwrap().unwrap();
        first_labels.extend(b.labels.to_vec_i64().unwrap());
    }
    // Late joiner inside the window: must see the epoch from the start.
    let mut c2 = consumer(&ctx).connect(ep).unwrap();
    let h1 = std::thread::spawn(move || {
        let mut labels = first_labels;
        for b in c1.by_ref().flatten() {
            labels.extend(b.labels.to_vec_i64().unwrap());
        }
        labels
    });
    let mut labels2: Vec<i64> = Vec::new();
    for b in c2.by_ref().flatten() {
        labels2.extend(b.labels.to_vec_i64().unwrap());
    }
    let labels1 = h1.join().unwrap();
    let stats = producer.join().unwrap();
    let expected: Vec<i64> = (0..64).collect();
    assert_eq!(labels1, expected);
    assert_eq!(labels2, expected, "late joiner replayed the epoch prefix");
    assert!(stats.batches_replayed > 0);
}

#[test]
fn late_joiner_waits_for_next_epoch() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t10";
    let mut cfg = producer_cfg(ep, 2);
    cfg.rubberband_cutoff = 0.02; // 16 batches/epoch → window of 1 batch
    let producer = spawn(loader(64, 4), &ctx, cfg).unwrap();
    let mut c1 = consumer(&ctx).connect(ep).unwrap();
    // Drive well past the join window.
    let mut consumed = 0;
    let mut first_epochs: Vec<u64> = Vec::new();
    for b in c1.by_ref().flatten() {
        consumed += 1;
        first_epochs.push(b.epoch);
        if consumed == 6 {
            break;
        }
    }
    let h2 = {
        let ctx = ctx.clone();
        let ep = ep.to_string();
        std::thread::spawn(move || {
            let mut c2 = consumer(&ctx).connect(&ep).unwrap();
            let joined = c2.joined_epoch();
            let mut labels = Vec::new();
            let mut epochs = BTreeSet::new();
            for b in c2.by_ref().flatten() {
                epochs.insert(b.epoch);
                labels.extend(b.labels.to_vec_i64().unwrap());
            }
            (joined, labels, epochs)
        })
    };
    // keep consuming to let epoch 0 finish
    for _ in c1.by_ref().flatten() {}
    drop(c1);
    let (joined, labels2, epochs2) = h2.join().unwrap();
    producer.join().unwrap();
    assert_eq!(joined, 1, "join deferred to the next epoch");
    assert_eq!(epochs2, BTreeSet::from([1]));
    assert_eq!(labels2, (0..64).collect::<Vec<i64>>());
}

#[test]
fn dead_consumer_is_detached_and_others_continue() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t11";
    let mut cfg = producer_cfg(ep, 1);
    cfg.heartbeat_timeout = Duration::from_millis(150);
    cfg.rubberband_cutoff = 1.0; // admit the hand-rolled consumer whenever it joins
    let producer = spawn(loader(64, 4), &ctx, cfg).unwrap();
    let mut good = consumer(&ctx).connect(ep).unwrap();
    // A "dead" consumer: joins by hand, then never acks or heartbeats.
    {
        use crate::protocol::messages::{CtrlMsg, PayloadMode};
        let sub = ts_socket::SubSocket::connect(&ctx.sockets, &format!("{ep}/data"));
        sub.subscribe(&crate::protocol::messages::topics::consumer(999));
        let push = ts_socket::PushSocket::connect(&ctx.sockets, &format!("{ep}/ctrl"));
        push.send(ts_socket::Multipart::single(
            CtrlMsg::Join {
                consumer_id: 999,
                batch_size: 0,
                mode: PayloadMode::Shm,
            }
            .encode(),
        ))
        .unwrap();
        // wait for the admit reply, subscribe, declare ready, then vanish
        let (_, _) = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        sub.subscribe(crate::protocol::messages::topics::BATCH);
        push.send(ts_socket::Multipart::single(
            CtrlMsg::Ready { consumer_id: 999 }.encode(),
        ))
        .unwrap();
        // sockets drop here — consumer 999 is gone without a Leave
    }
    let mut n = 0;
    for _ in good.by_ref().flatten() {
        n += 1;
    }
    assert_eq!(n, 16, "surviving consumer finished the epoch");
    assert_eq!(good.stop_reason(), Some(StopReason::End));
    let stats = producer.join().unwrap();
    assert_eq!(stats.consumers_detached, 1);
}

#[test]
fn dropping_a_consumer_is_prompt_and_no_beat_reaches_a_producer_outside_its_membership() {
    // The beat used to sleep out its interval while `drop` joined it (197
    // to 200 ms of every drop), and ran on a socket of its own: its first
    // frame could overtake the Join and its last trail the Leave, each
    // counted as a frame from an unknown consumer.
    let interval = Duration::from_millis(200);
    let ipc = std::env::temp_dir().join(format!("ts-drop-{}.sock", std::process::id()));
    for ep in [
        "inproc://prompt-drop".to_string(),
        format!("ipc://{}", ipc.display()),
    ] {
        let ctx = TsContext::host_only();
        let mut cfg = producer_cfg(&ep, 1);
        cfg.heartbeat_timeout = Duration::from_secs(5);
        let producer = spawn(loader(256, 4), &ctx, cfg).unwrap();
        for round in 0..20 {
            let mut c = consumer(&ctx)
                .heartbeat_interval(interval)
                .connect(&ep)
                .unwrap();
            c.next().expect("a batch").unwrap(); // dropped with it in hand
            let started = std::time::Instant::now();
            drop(c);
            let took = started.elapsed();
            assert!(
                took < interval / 2,
                "{ep} round {round}: drop took {took:?}"
            );
        }
        producer.abort();
        let stats = producer.join().unwrap();
        assert_eq!(stats.consumers_detached, 0, "{ep}: every one of them left");
        let strays = ctx.metrics.counter("producer.ctrl_unknown_consumer").get();
        assert_eq!(strays, 0, "{ep}: a frame outside a membership");
    }
}

#[test]
fn a_trainer_holding_a_batch_past_the_heartbeat_timeout_is_not_detached() {
    // Between two `next()` calls the consumer's thread is the trainer's:
    // liveness must not depend on it.
    let ctx = TsContext::host_only();
    let ep = "inproc://long-step";
    let mut cfg = producer_cfg(ep, 1);
    cfg.heartbeat_timeout = Duration::from_millis(150);
    let producer = spawn(loader(32, 4), &ctx, cfg).unwrap();
    let mut c = consumer(&ctx)
        .heartbeat_interval(Duration::from_millis(30))
        .connect(ep)
        .unwrap();
    let held = c.next().expect("a batch").unwrap();
    std::thread::sleep(Duration::from_millis(450)); // 3 x the timeout
    drop(held);
    assert_eq!(c.by_ref().flatten().count(), 7, "the rest of the epoch");
    assert_eq!(c.stop_reason(), Some(StopReason::End));
    assert_eq!(producer.join().unwrap().consumers_detached, 0);
}

#[test]
fn a_surviving_shard_keeps_getting_beats_after_the_other_shards_producer_is_gone() {
    use crate::protocol::messages::CtrlMsg;
    use ts_socket::{EndpointMap, PubSocket, PullSocket};

    let ctx = TsContext::host_only();
    let ep = "inproc://half-dead-group";
    let map = EndpointMap::new(ep, 2);
    let bind = |shard| {
        let publisher = PubSocket::bind(&ctx.sockets, &map.data(shard)).unwrap();
        let ctrl = PullSocket::bind(&ctx.sockets, &map.ctrl(shard)).unwrap();
        (publisher, ctrl)
    };
    let shards = [bind(0), bind(1)];
    // Two fake shards: shard 0 answers the HELLO, each admits its joiner;
    // once both heard Ready, shard 1 crashes (its sockets drop) and shard 0
    // reports the beats it keeps hearing.
    let fake = std::thread::spawn(move || {
        let [(pub0, ctrl0), (pub1, ctrl1)] = shards;
        let mut ready = [false; 2];
        while ready != [true; 2] {
            for (shard, (publisher, ctrl)) in [(&pub0, &ctrl0), (&pub1, &ctrl1)].iter().enumerate()
            {
                let Ok(msg) = ctrl.recv_timeout(Duration::from_millis(5)) else {
                    continue;
                };
                match CtrlMsg::decode(&msg.frames()[0]).unwrap() {
                    CtrlMsg::Hello { token, .. } => fake_welcome(publisher, token, 2),
                    CtrlMsg::Join { consumer_id, .. } => fake_admit(publisher, consumer_id),
                    CtrlMsg::Ready { .. } => ready[shard] = true,
                    _ => {}
                }
            }
        }
        drop((pub1, ctrl1));
        let mut beats = 0;
        while beats < 5 {
            let msg = ctrl0.recv_timeout(Duration::from_secs(2)).expect("a beat");
            let msg = CtrlMsg::decode(&msg.frames()[0]).unwrap();
            beats += usize::from(matches!(msg, CtrlMsg::Heartbeat { .. }));
        }
    });
    let c = consumer(&ctx)
        .heartbeat_interval(Duration::from_millis(10))
        .connect(ep)
        .unwrap();
    assert_eq!(c.num_shards(), 2);
    fake.join().expect("shard 0 kept hearing from the consumer");
}

#[test]
fn a_detach_or_a_close_on_shard_1_ends_a_wait_on_idle_shard_0_at_once() {
    use crate::protocol::messages::{topics, CtrlMsg, DataMsg};
    use ts_socket::{EndpointMap, Multipart, PubSocket, PullSocket};

    let ctx = TsContext::host_only();
    let ipc = |tag| {
        let name = format!("ts-wait-any-{}-{tag}.sock", std::process::id());
        format!("ipc://{}", std::env::temp_dir().join(name).display())
    };
    let cases = [
        ("inproc://wait-any-detach".to_string(), true),
        ("inproc://wait-any-close".to_string(), false),
        (ipc("detach"), true),
        (ipc("close"), false),
    ];
    for (ep, detach) in cases {
        let map = EndpointMap::new(&ep, 2);
        let bind = |shard| {
            let publisher = PubSocket::bind(&ctx.sockets, &map.data(shard)).unwrap();
            let ctrl = PullSocket::bind(&ctx.sockets, &map.ctrl(shard)).unwrap();
            (publisher, ctrl)
        };
        let shards = [bind(0), bind(1)];
        let (done, finished) = std::sync::mpsc::channel::<()>();
        // Two fake shards admit the consumer. Then shard 0 — whose batch is
        // next — stays up and silent, and shard 1 detaches the consumer or
        // crashes.
        let fake = std::thread::spawn(move || {
            let [(pub0, ctrl0), (pub1, ctrl1)] = shards;
            let mut ready = [None; 2];
            while ready.contains(&None) {
                for (shard, (publisher, ctrl)) in
                    [(&pub0, &ctrl0), (&pub1, &ctrl1)].iter().enumerate()
                {
                    let Ok(msg) = ctrl.recv_timeout(Duration::from_millis(5)) else {
                        continue;
                    };
                    match CtrlMsg::decode(&msg.frames()[0]).unwrap() {
                        CtrlMsg::Hello { token, .. } => fake_welcome(publisher, token, 2),
                        CtrlMsg::Join { consumer_id, .. } => fake_admit(publisher, consumer_id),
                        CtrlMsg::Ready { consumer_id } => ready[shard] = Some(consumer_id),
                        _ => {}
                    }
                }
            }
            // Let the consumer fall asleep waiting for shard 0.
            std::thread::sleep(Duration::from_millis(100));
            match (detach, ready[1]) {
                (true, Some(consumer_id)) => {
                    let detached = DataMsg::Detached { consumer_id }.encode();
                    let topic = topics::consumer(consumer_id);
                    pub1.send(&topic, Multipart::single(detached)).unwrap();
                    let _ = finished.recv();
                }
                _ => {
                    drop((pub1, ctrl1));
                    let _ = finished.recv();
                }
            }
            drop((pub0, ctrl0));
        });
        let mut c = consumer(&ctx)
            .recv_timeout(Duration::from_secs(30))
            .connect(&ep)
            .unwrap();
        let started = std::time::Instant::now();
        let err = c.next().expect("an error, not the end").unwrap_err();
        let took = started.elapsed();
        done.send(()).unwrap();
        fake.join().unwrap();
        // The receive timeout is 30 s: a close found at a tick would take it.
        assert!(took < Duration::from_secs(5), "{ep}: {took:?}");
        let (reason, error) = match detach {
            true => (StopReason::Detached, TsError::Detached),
            false => (
                StopReason::ProducerGone,
                TsError::Socket("producer disconnected".into()),
            ),
        };
        assert_eq!((c.stop_reason(), err), (Some(reason), error), "{ep}");
    }
}

#[test]
fn a_welcome_with_an_absurd_shard_count_or_a_malformed_override_is_refused() {
    use crate::protocol::messages::{topics, CtrlMsg, DataMsg, WelcomeInfo, WIRE_VERSION};
    use ts_socket::{EndpointMap, Multipart, PubSocket, PullSocket};

    let ctx = TsContext::host_only();
    let cases = [
        (u32::MAX, Vec::new()),
        (2, vec![(1, "tcp://no-port".to_string())]),
    ];
    for (i, (shards, endpoint_overrides)) in cases.into_iter().enumerate() {
        let ep = format!("inproc://hostile-welcome-{i}");
        let map = EndpointMap::new(&ep, 1);
        let publisher = PubSocket::bind(&ctx.sockets, &map.data(0)).unwrap();
        let ctrl = PullSocket::bind(&ctx.sockets, &map.ctrl(0)).unwrap();
        let info = WelcomeInfo {
            version: WIRE_VERSION,
            shards,
            batch_size: 4,
            flex_producer_batch: 0,
            flex_order: Default::default(),
            staging: 0,
            arena: None,
            endpoint_overrides,
            log: None,
        };
        // Shard 0 answers every HELLO with the WELCOME until the consumer
        // gave up.
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let fake = std::thread::spawn(move || {
            while finished.try_recv().is_err() {
                let Ok(msg) = ctrl.recv_timeout(Duration::from_millis(5)) else {
                    continue;
                };
                if let Ok(CtrlMsg::Hello { token, .. }) = CtrlMsg::decode(&msg.frames()[0]) {
                    let welcome = DataMsg::Welcome {
                        token,
                        info: info.clone(),
                    };
                    let frame = Multipart::single(welcome.encode());
                    publisher.send(&topics::hello(token), frame).unwrap();
                }
            }
        });
        let refused = consumer(&ctx).connect(&ep).map(|_| ()).unwrap_err();
        done.send(()).unwrap();
        match i {
            0 => assert!(matches!(refused, TsError::Wire(_)), "{refused:?}"),
            _ => assert!(matches!(refused, TsError::Endpoint(_)), "{refused:?}"),
        }
        fake.join().unwrap();
    }
}

#[test]
fn producer_without_consumers_times_out() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t12";
    let mut cfg = producer_cfg(ep, 1);
    cfg.first_consumer_timeout = Some(Duration::from_millis(100));
    let producer = spawn(loader(16, 4), &ctx, cfg).unwrap();
    let stats = producer.join().unwrap();
    assert_eq!(stats.epochs_completed, 0);
    assert_eq!(stats.batches_published, 0);
}

#[test]
fn consumer_connect_times_out_without_producer() {
    let ctx = TsContext::host_only();
    let timeout = Duration::from_millis(200);
    let started = std::time::Instant::now();
    let err = consumer(&ctx)
        .handshake_timeout(timeout)
        .connect("inproc://t13")
        .unwrap_err();
    assert!(matches!(err, crate::TsError::Timeout(_)));
    // One deadline covers the subscription and the HELLO: not one each.
    let took = started.elapsed();
    assert!(took < timeout * 3 / 2, "connect gave up after {took:?}");
}

#[test]
fn consumer_drop_mid_epoch_lets_producer_finish() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t14";
    let mut cfg = producer_cfg(ep, 1);
    // Tiny test epochs (16 batches) make the default 2% join window a
    // single batch; widen it so the second consumer joins epoch 0.
    cfg.rubberband_cutoff = 0.5;
    let producer = spawn(loader(64, 4), &ctx, cfg).unwrap();
    let mut c1 = consumer(&ctx).connect(ep).unwrap();
    let mut c2 = consumer(&ctx).connect(ep).unwrap();
    let _ = c1.next().unwrap();
    let _ = c1.next().unwrap();
    drop(c1); // clean leave
    let mut n = 2; // c1 consumed 2
    for _ in c2.by_ref().flatten() {
        n += 1;
    }
    assert_eq!(n - 2, 16, "c2 saw the whole epoch");
    let stats = producer.join().unwrap();
    assert_eq!(stats.epochs_completed, 1);
    assert_eq!(stats.peak_consumers, 2);
}

#[test]
fn local_pipeline_transforms_privately() {
    use ts_data::{Pipeline, RandomCrop};

    // Dataset field is [2] f32 — too small for crops; build an image
    // dataset instead.
    let ctx = TsContext::host_only();
    let ep = "inproc://t15";
    let dataset =
        Arc::new(ts_data::SyntheticImageDataset::new(32, 16, 16, 3).with_encoded_len(256));
    let image_loader = ts_data::DataLoader::new(
        dataset,
        ts_data::DataLoaderConfig {
            batch_size: 8,
            num_workers: 0,
            shuffle: false,
            ..Default::default()
        },
    );
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0;
    let producer = spawn(image_loader, &ctx, cfg).unwrap();

    // Both attach before either consumes: the epoch is four batches.
    let pipeline = Arc::new(Pipeline::new(7).with(RandomCrop { out_h: 8, out_w: 8 }));
    let cropped = consumer(&ctx).local_pipeline(pipeline).connect(ep).unwrap();
    let raw = consumer(&ctx).connect(ep).unwrap();
    let collect = |mut c: Consumer| {
        std::thread::spawn(move || {
            let mut shapes = Vec::new();
            let mut storages = Vec::new();
            let mut labels = Vec::new();
            for b in c.by_ref().flatten() {
                shapes.push(b.fields[0].shape().to_vec());
                storages.push(b.fields[0].storage_id());
                labels.extend(b.labels.to_vec_i64().unwrap());
            }
            (shapes, storages, labels)
        })
    };
    let (cropped, raw) = (collect(cropped), collect(raw));
    let (crop_shapes, crop_storages, crop_labels) = cropped.join().unwrap();
    let (raw_shapes, raw_storages, raw_labels) = raw.join().unwrap();
    producer.join().unwrap();
    // the cropped consumer trains on private 8x8 copies...
    assert!(crop_shapes.iter().all(|s| s == &[8, 3, 8, 8]));
    // ...while the raw consumer keeps the shared 16x16 storage
    assert!(raw_shapes.iter().all(|s| s == &[8, 3, 16, 16]));
    assert!(crop_storages.iter().zip(&raw_storages).all(|(a, b)| a != b));
    // same samples in the same order underneath
    assert_eq!(crop_labels, raw_labels);
}

#[test]
fn vec_source_round_trips_custom_batches() {
    use crate::runtime::producer::VecSource;

    let ctx = TsContext::host_only();
    let ep = "inproc://t16";
    // "Hugging-Face-style" batches built by hand
    let batches: Vec<ts_data::Batch> = (0..5)
        .map(|i| ts_data::Batch {
            epoch: 0,
            index: i,
            fields: vec![Tensor::from_f32(
                &[(i * 2) as f32, (i * 2 + 1) as f32],
                &[2, 1],
                DeviceId::Cpu,
            )
            .unwrap()],
            labels: Tensor::from_i64(&[i as i64, i as i64], &[2], DeviceId::Cpu).unwrap(),
            sample_indices: vec![i * 2, i * 2 + 1],
            last_in_epoch: i == 4,
        })
        .collect();
    let source = VecSource::new(batches).unwrap();
    let producer = spawn(source, &ctx, producer_cfg(ep, 2)).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut per_epoch = vec![0u32; 2];
    for b in consumer.by_ref().flatten() {
        per_epoch[b.epoch as usize] += 1;
    }
    assert_eq!(per_epoch, vec![5, 5]);
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 10);
}

#[test]
fn vec_source_rejects_ragged_batches() {
    use crate::runtime::producer::VecSource;
    let mk = |n: usize| ts_data::Batch {
        epoch: 0,
        index: 0,
        fields: vec![Tensor::zeros(&[n, 1], ts_tensor::DType::F32, DeviceId::Cpu)],
        labels: Tensor::zeros(&[n], ts_tensor::DType::I64, DeviceId::Cpu),
        sample_indices: (0..n).collect(),
        last_in_epoch: false,
    };
    assert!(VecSource::new(vec![]).is_err());
    assert!(VecSource::new(vec![mk(4), mk(3)]).is_err());
    assert!(VecSource::new(vec![mk(4), mk(4)]).is_ok());
}

#[test]
fn aborted_producer_ends_consumers_cleanly() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t17";
    let producer = spawn(loader(4096, 4), &ctx, producer_cfg(ep, 8)).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut seen = 0u64;
    for _ in consumer.by_ref().flatten().take(3) {
        seen += 1;
    }
    producer.abort();
    // drain whatever is still in flight; must terminate with End, not hang
    for _ in consumer.by_ref().flatten() {
        seen += 1;
    }
    assert_eq!(consumer.stop_reason(), Some(StopReason::End));
    assert!(seen < 2048, "abort must cut the run short, saw {seen}");
    let stats = producer.join().unwrap();
    assert!(stats.batches_published < 2048);
    assert!(ctx.registry.is_empty());
}

#[test]
fn flexible_mode_covers_multiple_epochs() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t18";
    let mut cfg = producer_cfg(ep, 2);
    cfg.flexible = Some(FlexibleConfig::new(8));
    cfg.rubberband_cutoff = 1.0;
    let producer = spawn(loader(32, 4), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).batch_size(5).connect(ep).unwrap();
    let mut per_epoch: HashMap<u64, BTreeSet<i64>> = HashMap::new();
    for b in consumer.by_ref().flatten() {
        assert_eq!(b.batch_size(), 5);
        per_epoch
            .entry(b.epoch)
            .or_default()
            .extend(b.labels.to_vec_i64().unwrap());
    }
    producer.join().unwrap();
    assert_eq!(per_epoch.len(), 2);
    for (epoch, labels) in per_epoch {
        assert_eq!(labels, (0..32).collect::<BTreeSet<i64>>(), "epoch {epoch}");
    }
}

#[test]
fn metrics_registry_tracks_producer_and_consumers() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t20";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0;
    let producer = spawn(loader(32, 4), &ctx, cfg).unwrap();
    let mut c1 = consumer(&ctx).connect(ep).unwrap();
    let mut c2 = consumer(&ctx).connect(ep).unwrap();
    let h = std::thread::spawn(move || c2.by_ref().flatten().count());
    let n1 = c1.by_ref().flatten().count();
    let n2 = h.join().unwrap();
    drop(c1);
    let stats = producer.join().unwrap();
    assert_eq!(n1 + n2, 16);
    let m = &ctx.metrics;
    assert_eq!(m.counter("producer.batches").get(), stats.batches_published);
    assert_eq!(m.counter("consumer.batches").get(), 16);
    assert_eq!(m.counter("consumer.samples").get(), 64);
    assert!(m.counter("consumer.acks").get() >= 14);
    assert_eq!(m.counter("producer.detached").get(), 0);
}

#[test]
fn producer_crash_surfaces_as_producer_gone() {
    let ctx = TsContext::host_only();
    let ep = "inproc://t21";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0;
    let producer = spawn(loader(64, 4), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let _ = consumer.next().unwrap();
    // Simulate a producer crash: drop the handle without clean shutdown.
    // Drop aborts + joins the thread, which still publishes End — so to
    // model a *hard* crash we instead look at what happens when the socket
    // vanishes: kill via abort and drain.
    producer.abort();
    for _ in consumer.by_ref() {}
    // Clean abort still ends with End; the ProducerGone path is covered by
    // the socket-level test below.
    assert!(matches!(
        consumer.stop_reason(),
        Some(StopReason::End) | Some(StopReason::ProducerGone)
    ));
}

#[test]
fn socket_teardown_mid_stream_is_producer_gone() {
    use crate::protocol::messages::CtrlMsg;
    use ts_socket::{PubSocket, PullSocket};

    let ctx = TsContext::host_only();
    let ep = "inproc://t22";
    let publisher = PubSocket::bind(&ctx.sockets, &format!("{ep}/data")).unwrap();
    let ctrl = PullSocket::bind(&ctx.sockets, &format!("{ep}/ctrl")).unwrap();
    let fake = std::thread::spawn(move || {
        // admit the first joiner, then drop both sockets (hard crash)
        loop {
            let Ok(msg) = ctrl.recv_timeout(Duration::from_secs(2)) else {
                return;
            };
            let msg = CtrlMsg::decode(&msg.frames()[0]);
            if let Ok(CtrlMsg::Hello { token, .. }) = msg {
                fake_welcome(&publisher, token, 1);
            }
            if let Ok(CtrlMsg::Join { consumer_id, .. }) = msg {
                fake_admit(&publisher, consumer_id);
                // wait for the Ready confirmation, then "crash"
                loop {
                    let Ok(m) = ctrl.recv_timeout(Duration::from_secs(2)) else {
                        return;
                    };
                    if matches!(CtrlMsg::decode(&m.frames()[0]), Ok(CtrlMsg::Ready { .. })) {
                        return; // sockets drop: crash
                    }
                }
            }
        }
    });
    let mut consumer = consumer(&ctx)
        .recv_timeout(Duration::from_secs(2))
        .connect(ep)
        .unwrap();
    fake.join().unwrap();
    match consumer.next() {
        Some(Err(e)) => assert_eq!(e, TsError::Socket("producer disconnected".into())),
        other => panic!("expected the one Err item, got {other:?}"),
    }
    assert!(consumer.next().is_none());
    assert_eq!(consumer.stop_reason(), Some(StopReason::ProducerGone));
}

/// Full per-batch trace including payload bytes, for byte-identity
/// assertions: (epoch, shard, index, labels, field bytes, last).
type ByteTrace = Vec<(u64, usize, u64, Vec<i64>, Vec<u8>, bool)>;

fn consume_trace(mut consumer: Consumer) -> (ByteTrace, Option<StopReason>) {
    let mut trace = Vec::new();
    for b in consumer.by_ref() {
        let b = b.expect("clean stream");
        trace.push((
            b.epoch,
            b.shard,
            b.index_in_epoch,
            b.labels.to_vec_i64().unwrap(),
            b.fields[0].gather_bytes(),
            b.last_in_epoch,
        ));
    }
    (trace, consumer.stop_reason())
}

fn sharded_loaders(n: usize, batch: usize, shards: usize, shuffle: bool) -> Vec<DataLoader> {
    DataLoader::sharded(
        Arc::new(IndexDataset { len: n }),
        DataLoaderConfig {
            batch_size: batch,
            num_workers: 0,
            shuffle,
            seed: 7,
            drop_last: true,
            ..Default::default()
        },
        shards,
    )
}

/// The stream the `(epoch, index_in_epoch, shard)` contract prescribes,
/// computed by iterating the shard loaders directly — no producer, socket,
/// arena or staging involved. The delivery paths are compared against it.
fn reference_trace(loaders: &[DataLoader], epochs: u64) -> ByteTrace {
    let mut trace = Vec::new();
    for epoch in 0..epochs {
        let mut rows: ByteTrace = Vec::new();
        for (shard, loader) in loaders.iter().enumerate() {
            rows.extend(loader.epoch(epoch).map(|b| {
                (
                    b.epoch,
                    shard,
                    b.index as u64,
                    b.labels.to_vec_i64().unwrap(),
                    b.fields[0].gather_bytes(),
                    b.last_in_epoch,
                )
            }));
        }
        rows.sort_by_key(|r| (r.2, r.1));
        trace.extend(rows);
    }
    trace
}

#[test]
fn sharded_group_covers_each_epoch_exactly_once_and_is_bit_stable() {
    // 2 and 3 shards over a shuffled epoch: the interleaved stream covers
    // the dataset exactly once per epoch, in an order that is identical
    // across independent runs (bit-stability of the (epoch, shard, seq)
    // interleave).
    for shards in [2usize, 3] {
        let mut runs: Vec<ByteTrace> = Vec::new();
        for run in 0..2 {
            let ctx = TsContext::host_only();
            let ep = format!("inproc://shard-cover-{shards}-{run}");
            let group = spawn_sharded(
                sharded_loaders(48, 4, shards, true),
                &ctx,
                producer_cfg(&ep, 2),
            )
            .unwrap();
            let consumer = consumer(&ctx).connect(&ep).unwrap();
            assert_eq!(consumer.num_shards(), shards);
            let (trace, reason) = consume_trace(consumer);
            assert_eq!(reason, Some(StopReason::End), "shards={shards} run={run}");
            let stats = group.join_shards().unwrap();
            assert_eq!(stats.len(), shards);
            for (s, st) in stats.iter().enumerate() {
                assert_eq!(st.epochs_completed, 2, "shard {s}");
            }
            // Coverage: every epoch delivers all 48 labels exactly once.
            let mut per_epoch: HashMap<u64, Vec<i64>> = HashMap::new();
            for (epoch, _, _, labels, _, _) in &trace {
                per_epoch.entry(*epoch).or_default().extend(labels);
            }
            assert_eq!(per_epoch.len(), 2);
            for (epoch, mut labels) in per_epoch {
                labels.sort_unstable();
                assert_eq!(
                    labels,
                    (0..48).collect::<Vec<i64>>(),
                    "epoch {epoch} shards {shards}"
                );
            }
            // Interleave contract: delivery is sorted by (epoch, index, shard).
            let keys: Vec<(u64, u64, usize)> =
                trace.iter().map(|(e, s, i, ..)| (*e, *i, *s)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "(epoch, shard, seq) order violated");
            runs.push(trace);
        }
        assert_eq!(
            runs[0], runs[1],
            "shards={shards}: stream must be bit-stable"
        );
    }
}

#[test]
fn sharded_mid_epoch_join_replays_every_shard() {
    // Acceptance criterion: a consumer joining mid-epoch replays a
    // consistent full epoch from *all* shards, not just the shard that
    // processed its join first.
    let ctx = TsContext::host_only();
    let ep = "inproc://shard-midjoin";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0; // whole epoch joinable
    cfg.buffer_size = 2;
    let group = spawn_sharded(sharded_loaders(64, 4, 2, false), &ctx, cfg).unwrap();
    // First consumer starts the epoch and consumes a few batches.
    let mut c1 = consumer(&ctx).connect(ep).unwrap();
    let mut labels1: Vec<i64> = Vec::new();
    for _ in 0..4 {
        let b = c1.next().unwrap().unwrap();
        labels1.extend(b.labels.to_vec_i64().unwrap());
    }
    // Second consumer joins mid-epoch: the group must admit it ONCE and
    // replay the epoch prefix of both shards.
    let c2 = consumer(&ctx).connect(ep).unwrap();
    let h1 = std::thread::spawn(move || {
        for b in c1.by_ref().flatten() {
            labels1.extend(b.labels.to_vec_i64().unwrap());
        }
        (labels1, c1.stop_reason())
    });
    let (trace2, reason2) = consume_trace(c2);
    let (labels1, reason1) = h1.join().unwrap();
    let stats = group.join_shards().unwrap();
    assert_eq!(reason1, Some(StopReason::End));
    assert_eq!(reason2, Some(StopReason::End));
    // Both consumers saw the complete epoch (all 64 samples).
    let mut sorted1 = labels1.clone();
    sorted1.sort_unstable();
    assert_eq!(sorted1, (0..64).collect::<Vec<i64>>());
    let mut labels2: Vec<i64> = trace2.iter().flat_map(|t| t.3.clone()).collect();
    labels2.sort_unstable();
    assert_eq!(
        labels2,
        (0..64).collect::<Vec<i64>>(),
        "mid-epoch joiner must replay the full epoch from every shard"
    );
    // The joiner really got batches from both shards, via replay.
    let shards_seen: BTreeSet<usize> = trace2.iter().map(|t| t.1).collect();
    assert_eq!(shards_seen, BTreeSet::from([0, 1]));
    assert!(
        stats.iter().all(|s| s.batches_replayed > 0),
        "every shard replayed its prefix: {stats:?}"
    );
}

#[test]
fn sharded_staging_engines_report_per_shard_gauges() {
    // Each shard pipeline owns its own staging engine + slab rotation;
    // gauges are namespaced `staging.s<shard>.*` so one shard finishing
    // (and zeroing its gauges) cannot clobber another's, while the
    // `staging.h2d_bytes` counter aggregates across shards.
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let ep = "inproc://shard-staging";
    let mut cfg = producer_cfg(ep, 1);
    cfg.device = DeviceId::Gpu(0);
    let group = spawn_sharded(sharded_loaders(64, 4, 2, false), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut batches = 0u64;
    for b in consumer.by_ref().flatten() {
        assert_eq!(b.fields[0].device(), DeviceId::Gpu(0));
        batches += 1;
    }
    assert_eq!(batches, 16, "2 shards × 8 batches");
    let stats = group.join_shards().unwrap();
    let gauges: std::collections::HashMap<String, f64> =
        ctx.metrics.gauge_snapshot().into_iter().collect();
    for shard in 0..2 {
        for name in ["slab_occupancy", "copy_queue_depth", "h2d_bytes_per_sec"] {
            assert!(
                gauges.contains_key(&format!("staging.s{shard}.{name}")),
                "missing staging.s{shard}.{name} in {gauges:?}"
            );
        }
    }
    assert_eq!(
        ctx.metrics.counter("staging.h2d_bytes").get(),
        stats.iter().map(|s| s.bytes_staged).sum::<u64>(),
        "counter aggregates both shards"
    );
    assert_eq!(ctx.devices.memory(DeviceId::Gpu(0)).unwrap().in_use(), 0);
}

#[test]
fn sharded_group_recycles_per_shard_arena_slots() {
    // Each shard's publish pipeline recycles through its own slot pool.
    let ctx = TsContext::host_only();
    let arena_path =
        std::env::temp_dir().join(format!("ts-sharded-pool-{}.arena", std::process::id()));
    ctx.create_arena(&arena_path, 32, 4096, &[8, 8]).unwrap();
    let pools: Vec<_> = (0..2)
        .map(|s| ctx.registry.shard_slot_pool(s).unwrap())
        .collect();
    let ep = "inproc://shard-pools";
    let mut cfg = producer_cfg(ep, 2);
    cfg.rubberband_cutoff = 0.02;
    let group = spawn_sharded(sharded_loaders(64, 4, 2, false), &ctx, cfg).unwrap();
    let consumer = consumer(&ctx).connect(ep).unwrap();
    let (trace, reason) = consume_trace(consumer);
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace.len(), 32, "2 epochs × 2 shards × 8 batches");
    group.join().unwrap();
    for (s, pool) in pools.iter().enumerate() {
        let stats = pool.stats();
        assert!(stats.hits > 0, "shard {s} never recycled a slot: {stats:?}");
        assert!(stats.returned > 0, "shard {s} never reclaimed: {stats:?}");
    }
    assert!(ctx.registry.is_empty());
    for pool in &pools {
        pool.drain();
    }
    assert_eq!(ctx.arena().unwrap().slots_in_use(), 0);
}

#[test]
fn aborted_producer_join_returns_partial_stats_promptly() {
    // Regression: `join` on an aborted producer must return the partial
    // ProducerStats instead of erroring or blocking out the ack-drain
    // timeout.
    let ctx = TsContext::host_only();
    let ep = "inproc://abort-join";
    let mut cfg = producer_cfg(ep, 8);
    cfg.heartbeat_timeout = Duration::from_secs(30); // a hang would be obvious
    let producer = spawn(loader(4096, 4), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut seen = 0u64;
    for _ in consumer.by_ref().flatten().take(3) {
        seen += 1;
    }
    assert_eq!(seen, 3);
    // Abort mid-epoch with acks still outstanding, then join immediately.
    producer.abort();
    let started = std::time::Instant::now();
    let stats = producer.join().expect("abort + join must yield stats");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "join blocked {:?} after abort",
        started.elapsed()
    );
    assert_eq!(stats.epochs_completed, 0, "aborted mid first epoch");
    assert!(stats.batches_published >= 3, "partial counters preserved");
    assert!(stats.batches_published < 1024);
    assert_eq!(stats.peak_consumers, 1);
    // The consumer still ends cleanly on the producer's End, even when
    // the abort raced ahead and left stale announces in flight (their
    // payloads are skipped, not fatal).
    let errors: Vec<_> = consumer.by_ref().filter_map(Result::err).collect();
    assert_eq!(
        consumer.stop_reason(),
        Some(StopReason::End),
        "errors: {errors:?}"
    );
}

#[test]
fn stale_announces_from_an_aborted_producer_are_skipped_not_fatal() {
    // An aborting producer releases every live batch the moment `join`
    // is called — announces already on the wire for those batches now
    // reference freed payloads. The consumer must skip them (counted in
    // consumer.dangling_skipped) and still end on the producer's End
    // instead of wedging with a Protocol stop.
    let ctx = TsContext::host_only();
    let ep = "inproc://abort-stale";
    let producer = spawn(loader(4096, 4), &ctx, producer_cfg(ep, 8)).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    // Take one batch without ever acking it: the producer fills its
    // publish window (buffer_size ahead of the oldest unacked) and
    // parks, so at least one announced batch is guaranteed to be
    // unconsumed when the abort releases it.
    assert!(matches!(consumer.next(), Some(Ok(_))));
    std::thread::sleep(Duration::from_millis(200));
    producer.abort();
    let stats = producer.join().expect("abort + join must yield stats");
    assert!(stats.batches_published >= 2, "window never filled");
    let errors: Vec<_> = consumer.by_ref().filter_map(Result::err).collect();
    assert_eq!(
        consumer.stop_reason(),
        Some(StopReason::End),
        "errors: {errors:?}"
    );
    assert!(
        ctx.metrics.counter("consumer.dangling_skipped").get() >= 1,
        "the stale announce was not skipped"
    );
}

#[test]
fn producer_map_runs_once_per_batch() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let ctx = TsContext::host_only();
    let ep = "inproc://t23";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0;
    let calls = Arc::new(AtomicU64::new(0));
    let calls_in_map = calls.clone();
    // The Figure-7 pattern as API: a frozen "encoder" replacing the raw
    // field with an embedding, computed once per batch in the producer.
    cfg.producer_map = Some(Arc::new(move |mut batch: ts_data::Batch| {
        calls_in_map.fetch_add(1, Ordering::Relaxed);
        let values: Vec<f32> = batch
            .labels
            .to_vec_i64()
            .unwrap()
            .iter()
            .map(|&l| l as f32 * 0.5)
            .collect();
        batch.fields = vec![Tensor::from_f32(&values, &[values.len(), 1], DeviceId::Cpu).unwrap()];
        batch
    }));
    let producer = spawn(loader(16, 4), &ctx, cfg).unwrap();
    let c1 = consumer(&ctx).connect(ep).unwrap();
    let c2 = consumer(&ctx).connect(ep).unwrap();
    let h = std::thread::spawn(move || {
        let mut c2 = c2;
        let mut embeddings = Vec::new();
        for b in c2.by_ref().flatten() {
            embeddings.push(b.fields[0].to_vec_f32().unwrap());
        }
        embeddings
    });
    let mut c1 = c1;
    let mut embeddings1 = Vec::new();
    for b in c1.by_ref().flatten() {
        assert_eq!(b.fields[0].shape(), &[4, 1]);
        embeddings1.push(b.fields[0].to_vec_f32().unwrap());
    }
    let embeddings2 = h.join().unwrap();
    producer.join().unwrap();
    assert_eq!(
        embeddings1, embeddings2,
        "both trained on the same embeddings"
    );
    assert_eq!(embeddings1[0], vec![0.0, 0.5, 1.0, 1.5]);
    // once per batch — NOT once per batch per consumer
    assert_eq!(calls.load(Ordering::Relaxed), 4);
}

// ---------------------------------------------------------------------------
// Attach handshake: topology learned, streams identical to the reference
// ---------------------------------------------------------------------------

#[test]
fn endpoint_only_stream_matches_the_reference_at_one_and_many_shards() {
    // A consumer built with only `Consumer::builder().connect(endpoint)`
    // sees exactly the bytes the interleave contract prescribes, at 1
    // shard and at N shards — the consumer is NOT told the shard count;
    // the handshake is.
    for shards in [1usize, 2, 3] {
        let ctx = TsContext::host_only();
        let ep = format!("inproc://builder-id-{shards}");
        let producer = spawn_sharded(
            sharded_loaders(48, 4, shards, true),
            &ctx,
            producer_cfg(&ep, 2),
        )
        .unwrap();
        assert_eq!(producer.num_shards(), shards);
        let consumer = consumer(&ctx).connect(&ep).unwrap();
        // The topology was learned, not configured.
        assert_eq!(consumer.num_shards(), shards);
        assert_eq!(consumer.welcome().shards as usize, shards);
        assert_eq!(consumer.welcome().batch_size, 4);
        assert!(consumer.welcome().arena.is_none());
        let (trace, reason) = consume_trace(consumer);
        assert_eq!(reason, Some(StopReason::End));
        let stats = producer.join().unwrap();
        assert_eq!(stats.epochs_completed, 2);
        assert_eq!(
            trace,
            reference_trace(&sharded_loaders(48, 4, shards, true), 2),
            "stream must be byte-identical to the reference at {shards} shard(s)"
        );
    }
}

#[test]
fn builder_auto_arena_endpoint_only_attach_over_ipc() {
    // The zero-configuration attach: the producer auto-sizes and creates
    // the arena from the loader's geometry; the consumer gets NOTHING but
    // the endpoint URI — a fresh default context, no arena path, no shard
    // count — and learns everything over the handshake.
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let ep = format!("ipc://{}", tmp.join(format!("ts-bld-{tag}.sock")).display());
    let arena_path = tmp.join(format!("ts-bld-{tag}.arena"));
    let producer = Producer::builder()
        .config(producer_cfg(&ep, 2))
        .arena(&arena_path)
        .spawn(loader(32, 4))
        .unwrap();
    let arena = producer.arena().expect("builder provisioned arena").clone();
    assert!(arena.nslots() >= 2, "auto-sized slot count");
    assert!(
        arena.slot_size() >= 4 * 2 * 4,
        "slot must hold the 4x2 f32 field"
    );

    // Endpoint-only: fresh context, no shard count, no arena path.
    let consumer = Consumer::builder()
        .heartbeat_interval(Duration::from_millis(50))
        .recv_timeout(Duration::from_secs(5))
        .connect(&ep)
        .unwrap();
    let ad = consumer.welcome().arena.clone().expect("arena advertised");
    assert_eq!(ad.path, arena.path().display().to_string());
    assert_eq!(ad.nslots as usize, arena.nslots());
    assert_eq!(ad.slot_size as usize, arena.slot_size());
    let (trace, reason) = consume_trace(consumer);
    assert_eq!(reason, Some(StopReason::End));
    producer.join().unwrap();
    assert_eq!(arena.slots_in_use(), 0, "arena fully drained");
    assert_eq!(
        trace,
        reference_trace(&[loader(32, 4)], 2),
        "the arena-backed ipc stream must be byte-identical to the reference"
    );
}

/// `t` as a consumer process holds it after rebuilding it out of another
/// producer's arena: its bytes in a slot of `arena`, the tensor a view of
/// that slot under the remote storage id `id`.
pub(crate) fn in_foreign_arena(t: &Tensor, arena: &Arc<ts_shm::ShmArena>, id: u64) -> Tensor {
    let handle = arena.alloc(&t.gather_bytes()).unwrap();
    let remote = ts_tensor::SharedRegistry::new();
    remote.bind_arena(arena.clone());
    let storage = remote.resolve(id, Some(handle), t.device()).unwrap();
    // The view holds the slot now, as a rebuilt tensor's does.
    arena.release(handle);
    let strides = ts_tensor::contiguous_strides(t.shape());
    Tensor::from_parts(storage, t.dtype(), t.shape().to_vec(), strides, 0).unwrap()
}

#[test]
fn batches_viewing_another_arena_are_leased_into_the_producers_own() {
    // The chained case: a process re-shares what it consumed, so its
    // source yields tensors that are views of ANOTHER producer's arena.
    // The producer must still place every byte in its own arena — a
    // consumer in another context can map nothing else — and the
    // consumer must get every batch, bit-identical, none skipped.
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let foreign = ts_shm::ShmArena::create(tmp.join(format!("ts-up-{tag}.arena")), 16, 4096)
        .expect("upstream arena");
    let mut ids = 1u64 << 40..;
    let mut view = |t: &Tensor| in_foreign_arena(t, &foreign, ids.next().unwrap());
    let batches: Vec<ts_data::Batch> = loader(32, 4)
        .epoch(0)
        .map(|mut b| {
            b.fields = b.fields.iter().map(&mut view).collect();
            b.labels = view(&b.labels);
            b
        })
        .collect();
    assert!(batches[0].fields[0].storage().is_shared_memory());
    let source = crate::runtime::producer::VecSource::new(batches).unwrap();

    let ep = format!(
        "ipc://{}",
        tmp.join(format!("ts-chain-{tag}.sock")).display()
    );
    let producer = Producer::builder()
        .config(producer_cfg(&ep, 2))
        .arena_sized(tmp.join(format!("ts-chain-{tag}.arena")), 16, 4096)
        .spawn(source)
        .unwrap();
    let arena = producer.arena().expect("arena bound").clone();
    // A consumer with its own context: it resolves handles, not ids.
    let consumer_ctx = TsContext::host_only();
    let (trace, reason) = consume_trace(consumer(&consumer_ctx).connect(&ep).unwrap());
    assert_eq!(reason, Some(StopReason::End));
    let dangling = consumer_ctx.metrics.counter("consumer.dangling_skipped");
    assert_eq!(dangling.get(), 0, "a batch went out without a handle");
    assert_eq!(trace, reference_trace(&[loader(32, 4)], 2));
    producer.join().unwrap();
    assert_eq!(arena.slots_in_use(), 0, "arena fully drained");
}

#[test]
fn stream_consumer_dropped_mid_stream_leaves_no_slot_pinned() {
    // Streamed frames borrow the arena slots their tensors were collated
    // into. A stream-mode consumer that stops reading and then leaves,
    // with frames for it still queued in the producer's socket, must not
    // strand any of them: the slots free as the queue lets go, the other
    // consumer sees the whole stream, and nothing was copied on the way.
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let ep = format!("ipc://{}", tmp.join(format!("ts-pin-{tag}.sock")).display());
    let ctx = TsContext::host_only();
    // 48 KiB batches: far above the size a frame borrows a tensor at.
    let loader = || {
        DataLoader::new(
            Arc::new(ts_data::SyntheticImageDataset::new(96, 64, 64, 3).with_encoded_len(256)),
            DataLoaderConfig {
                batch_size: 4,
                num_workers: 1,
                drop_last: true,
                ..Default::default()
            },
        )
    };
    let mut cfg = producer_cfg(&ep, 2);
    cfg.rubberband_cutoff = 1.0;
    cfg.buffer_size = 12;
    cfg.heartbeat_timeout = Duration::from_secs(5);
    let producer = Producer::builder()
        .context(&ctx)
        .config(cfg)
        .arena(tmp.join(format!("ts-pin-{tag}.arena")))
        .spawn(loader())
        .unwrap();
    let arena = producer.arena().expect("builder provisioned arena").clone();
    let survivor = consumer(&ctx).connect(&ep).unwrap();
    // The quitter keeps one message locally, so what it does not read
    // backs up through the socket into the producer's peer queue.
    let mut slow_ctx = TsContext::host_only();
    slow_ctx.sockets = ts_socket::Context::with_hwm(1);
    let mut quitter = consumer(&slow_ctx)
        .payload_mode(crate::PayloadMode::Stream)
        .connect(&ep)
        .unwrap();
    let survivor = std::thread::spawn(move || consume_trace(survivor));
    let first = quitter.next().unwrap().expect("first streamed batch");
    assert!(
        !first.fields[0].storage().is_shared_memory(),
        "the quitter really is on the byte path"
    );
    // Everyone now waits on the quitter: the window is full of batches
    // whose frames it has not read.
    let published = ctx.metrics.counter("producer.batches");
    let mut seen = published.get();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = published.get();
        if now == seen {
            break;
        }
        seen = now;
    }
    assert!(seen < 48, "the stalled quitter must gate the stream");
    drop(first);
    drop(quitter);
    let (trace, reason) = survivor.join().unwrap();
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace.len(), 48, "2 epochs × 24 batches");
    producer.join().unwrap();
    assert_eq!(arena.slots_in_use(), 0, "a queued frame kept a slot pinned");
    assert_eq!(ctx.metrics.counter("stage.stream_copy_bytes").get(), 0);
    assert_eq!(ctx.metrics.counter("stage.stream_tx_errors").get(), 0);
    assert!(ctx.metrics.counter("stage.stream_tx_bytes").get() > 0);
}

#[test]
fn builder_flexible_mode_carves_consumer_batches() {
    let ctx = TsContext::host_only();
    let ep = "inproc://builder-flex";
    let producer = Producer::builder()
        .context(&ctx)
        .config(producer_cfg(ep, 1))
        .flexible(FlexibleConfig::new(8))
        .spawn(loader(32, 4))
        .unwrap();
    let mut consumer = consumer(&ctx).batch_size(2).connect(ep).unwrap();
    assert_eq!(consumer.welcome().flex_producer_batch, 8);
    let mut samples = 0u64;
    for b in consumer.by_ref() {
        let b = b.expect("clean stream");
        assert_eq!(b.batch_size(), 2);
        samples += b.batch_size() as u64;
    }
    assert_eq!(consumer.stop_reason(), Some(StopReason::End));
    assert_eq!(samples, 32, "full epoch at the carved batch size");
    producer.join().unwrap();
}

#[test]
fn builder_consumer_surfaces_timeout_as_err_item() {
    // The Result-iterator contract: an abnormal stop yields exactly one
    // Err item, then the stream ends. A fake producer answers the attach
    // handshake, admits the join, and then starves the consumer.
    use crate::protocol::messages::CtrlMsg;
    use ts_socket::{PubSocket, PullSocket};

    let ctx = TsContext::host_only();
    let ep = "inproc://builder-timeout";
    let publisher = PubSocket::bind(&ctx.sockets, &format!("{ep}/data")).unwrap();
    let ctrl = PullSocket::bind(&ctx.sockets, &format!("{ep}/ctrl")).unwrap();
    let fake = std::thread::spawn(move || loop {
        let Ok(msg) = ctrl.recv_timeout(Duration::from_secs(2)) else {
            return;
        };
        let Ok(m) = CtrlMsg::decode(&msg.frames()[0]) else {
            continue;
        };
        match m {
            CtrlMsg::Hello { token, .. } => fake_welcome(&publisher, token, 1),
            // ...and never publish any batch
            CtrlMsg::Join { consumer_id, .. } => fake_admit(&publisher, consumer_id),
            _ => {}
        }
    });
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .recv_timeout(Duration::from_millis(200))
        .connect(ep)
        .unwrap();
    let mut errs = 0;
    for item in consumer.by_ref() {
        match item {
            Ok(_) => panic!("no batch was ever published"),
            Err(e) => {
                errs += 1;
                assert_eq!(e, TsError::Timeout("batch from producer"));
            }
        }
    }
    assert_eq!(errs, 1, "exactly one Err item, then None");
    assert!(consumer.next().is_none(), "stream stays ended");
    assert_eq!(consumer.stop_reason(), Some(StopReason::Timeout));
    drop(consumer);
    fake.join().unwrap();
}

#[test]
fn sample_geometry_hints_match_the_decoded_batch() {
    use crate::runtime::producer::EpochSource;
    let l = loader(16, 4);
    let g = l.sample_geometry().expect("loader reports geometry");
    assert_eq!(g.field_bytes, vec![8], "2 x f32 per sample");
    assert_eq!(g.label_bytes, 8);
    // 4 x 8 B of fields at 0, 4 x 8 B of labels at the next 64-byte
    // boundary: one slot of 96 bytes holds the batch, two of 32 B do not.
    assert_eq!(g.batch_bytes(4), 64 + 32);
    assert_eq!(g.slots_per_batch(4, 4096), Some(1));
    assert_eq!(g.slots_per_batch(4, 32), Some(2));
    assert_eq!(g.slots_per_batch(4, 31), None);
}

#[test]
fn builder_shards_override_mismatch_is_a_typed_error() {
    let ctx = TsContext::host_only();
    let ep = "inproc://builder-topology-mismatch";
    let producer = Producer::builder()
        .context(&ctx)
        .config(producer_cfg(ep, 1))
        .spawn_sharded(sharded_loaders(16, 4, 2, false))
        .unwrap();
    let err = Consumer::builder()
        .context(&ctx)
        .shards(3)
        .handshake_timeout(Duration::from_secs(5))
        .connect(ep)
        .unwrap_err();
    assert_eq!(
        err,
        TsError::Handshake(HandshakeError::Topology {
            requested: 3,
            advertised: 2,
        })
    );
    // The correct override attaches fine.
    let consumer = consumer(&ctx).shards(2).connect(ep).unwrap();
    let (_, reason) = consume_trace(consumer);
    assert_eq!(reason, Some(StopReason::End));
    producer.join().unwrap();
}

#[test]
fn two_standalone_gpu_producers_get_disjoint_gauge_namespaces() {
    // Two collocated standalone GPU producers in ONE context must not
    // clobber each other's staging gauges: the first keeps the bare
    // `staging.` names, the second gets `staging.p1.` — like two shards
    // of a group get `staging.s<n>.`.
    let ctx = TsContext::with_gpus(1, 64 << 20, false);
    let spawn = |ep: &str| {
        let mut cfg = producer_cfg(ep, 1);
        cfg.device = DeviceId::Gpu(0);
        Producer::builder()
            .context(&ctx)
            .config(cfg)
            .spawn(loader_with_workers(16, 4, 1))
            .unwrap()
    };
    let pa = spawn("inproc://gauge-ns-a");
    let pb = spawn("inproc://gauge-ns-b");
    for ep in ["inproc://gauge-ns-a", "inproc://gauge-ns-b"] {
        let consumer = consumer(&ctx).connect(ep).unwrap();
        let (_, reason) = consume_trace(consumer);
        assert_eq!(reason, Some(StopReason::End));
    }
    pa.join().unwrap();
    pb.join().unwrap();
    assert!(
        ctx.metrics.gauge("staging.h2d_bytes_per_sec").get() > 0.0,
        "first engine reports under the bare namespace"
    );
    assert!(
        ctx.metrics.gauge("staging.p1.h2d_bytes_per_sec").get() > 0.0,
        "second standalone engine reports under its own namespace"
    );
}

// ---------------------------------------------------------------------------
// Zero-copy publish: lease-placed announcements, cursor coalescing, and the
// detach-under-replay fix.
// ---------------------------------------------------------------------------

#[test]
fn steady_state_publish_moves_zero_payload_bytes() {
    // With an arena + slot pool bound, batches are written straight into
    // leased slots and the publish loop only adopts the placements: it has
    // no way to copy a payload byte, and the leases recycle.
    let ctx = TsContext::host_only();
    let arena_path =
        std::env::temp_dir().join(format!("ts-zero-copy-steady-{}.arena", std::process::id()));
    ctx.create_arena(&arena_path, 64, 4096, &[16]).unwrap();
    let pool = ctx.registry.shard_slot_pool(0).unwrap();
    let ep = "inproc://zero-copy-steady";
    let mut cfg = producer_cfg(ep, 2);
    cfg.rubberband_cutoff = 0.02;
    let producer = spawn(loader_with_workers(64, 4, 2), &ctx, cfg).unwrap();
    let consumer = consumer(&ctx).connect(ep).unwrap();
    let consumed = consumer.flatten().count();
    assert_eq!(consumed, 32, "2 epochs × 16 batches");
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 32);
    // The zero-copy path still recycles: leases come out of the pool.
    let ps = pool.stats();
    assert!(ps.hits > 0, "no leased slot was recycled: {ps:?}");
    assert!(ctx.registry.is_empty());
    pool.drain();
    assert_eq!(ctx.arena().unwrap().slots_in_use(), 0);
}

/// A fresh arena path for one test.
fn arena_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ts-rt-{tag}-{}.arena", std::process::id()))
}

#[test]
fn loader_built_batches_reach_the_arena_without_a_feeder_copy() {
    // The headline shape (ts-e2e's `shared_decode`): a `DataLoader` with 2
    // workers over an auto-sized arena, the whole epoch inside the join
    // window. Its workers lease the slot first and decode into it, so the
    // feeder adopts every batch as it arrives — `stage.collate_copy_bytes`
    // counts the payload bytes it copies into a slot when a batch does NOT
    // arrive placed, and stays 0 — and nothing is left to copy at publish.
    let ctx = TsContext::host_only();
    let ep = "inproc://built-in-place";
    let mut cfg = producer_cfg(ep, 2);
    cfg.rubberband_cutoff = 1.0;
    let loader = loader_with_workers(64, 4, 2);
    let built = loader.metrics().clone();
    let producer = Producer::builder()
        .context(&ctx)
        .config(cfg)
        .arena(arena_path("built-in-place"))
        .spawn(loader)
        .unwrap();
    let (trace, reason) = consume_trace(consumer(&ctx).connect(ep).unwrap());
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace, reference_trace(&[loader_with_workers(64, 4, 2)], 2));
    let arena = producer.arena().unwrap().clone();
    producer.join().unwrap();
    assert_eq!(built.counter("loader.in_place_batches").get(), 32);
    assert_eq!(built.counter("loader.heap_batches").get(), 0);
    assert_eq!(ctx.metrics.counter("stage.collate_copy_bytes").get(), 0);
    assert_eq!(ctx.metrics.counter("stage.loader_unbound").get(), 0);
    assert!(ctx.registry.is_empty());
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn an_auto_sized_arena_is_one_slot_per_live_batch() {
    // Two shards over an auto-sized arena: a slot is one packed batch
    // (fields at 0, labels at the next 64-byte boundary), page-rounded,
    // and there are exactly as many slots as batches live at once — the
    // window, the pins and what the loader and feeder hold ahead of it —
    // summed over the shards, each shard's pool as deep as its share.
    use crate::runtime::producer::batches_ahead_of_publish;
    let ctx = TsContext::host_only();
    let ep = "inproc://auto-one-slot";
    let cfg = producer_cfg(ep, 2);
    let loaders = |workers| {
        let cfg = DataLoaderConfig {
            batch_size: 4,
            num_workers: workers,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        };
        DataLoader::sharded(Arc::new(IndexDataset { len: 64 }), cfg, 2)
    };
    let live: Vec<usize> = loaders(2)
        .iter()
        .map(|l| {
            let loader = (l.batches_per_epoch() as u64, 4);
            let ahead = batches_ahead_of_publish(&cfg, l.pipeline_hint());
            cfg.buffer_size + cfg.pinned_per_epoch(loader) + ahead + 1
        })
        .collect();
    let geometry = loaders(2)[0].sample_geometry().unwrap();
    assert_eq!(geometry.batch_bytes(4), 64 + 4 * 8);
    let group = Producer::builder()
        .context(&ctx)
        .config(cfg)
        .arena(arena_path("auto-one-slot"))
        .spawn_sharded(loaders(2))
        .unwrap();
    let arena = group.arena().unwrap().clone();
    assert_eq!(arena.slot_size(), (64 + 4 * 8usize).next_multiple_of(4096));
    assert_eq!(arena.nslots(), live.iter().sum::<usize>());
    for (s, &live) in live.iter().enumerate() {
        assert_eq!(
            ctx.registry.shard_slot_pool(s as u32).unwrap().depth(),
            live
        );
    }
    let (trace, reason) = consume_trace(consumer(&ctx).connect(ep).unwrap());
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace, reference_trace(&loaders(0), 2));
    group.join().unwrap();
    for s in 0..2 {
        let name = format!("stage.s{s}.collate_copy_bytes");
        assert_eq!(
            ctx.metrics.counter(&name).get(),
            0,
            "{name}: built in place"
        );
        let pool = ctx.registry.shard_slot_pool(s).unwrap().stats();
        assert_eq!(pool.returned, 16, "shard {s}: a slot per batch: {pool:?}");
        assert_eq!(
            ctx.metrics.gauge(&format!("stage.s{s}.slots_live")).get(),
            0.0
        );
    }
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn slots_narrower_than_a_batch_pack_it_first_fit_into_two() {
    // An explicit geometry whose 64-byte slots hold a batch's 32-byte field
    // but not its labels too (they would start at 64): each batch takes
    // two slots, fields in one, labels in the next. The loader still
    // builds in place, and a consumer with its own context — resolving
    // handles, not ids — gets the reference stream.
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let ep = format!(
        "ipc://{}",
        tmp.join(format!("ts-two-slots-{tag}.sock")).display()
    );
    let ctx = TsContext::host_only();
    let loader = loader_with_workers(64, 4, 2);
    let built = loader.metrics().clone();
    let producer = Producer::builder()
        .context(&ctx)
        .config(producer_cfg(&ep, 2))
        .arena_sized(arena_path("two-slots"), 128, 64)
        .spawn(loader)
        .unwrap();
    let arena = producer.arena().unwrap().clone();
    let consumer_ctx = TsContext::host_only();
    let mut consumer = consumer(&consumer_ctx).connect(&ep).unwrap();
    let mut trace: ByteTrace = Vec::new();
    for b in consumer.by_ref().flatten() {
        assert!(
            !Arc::ptr_eq(b.fields[0].storage(), b.labels.storage()),
            "two slots"
        );
        assert_eq!(b.labels.offset(), 0, "the labels start their slot");
        trace.push((
            b.epoch,
            b.shard,
            b.index_in_epoch,
            b.labels.to_vec_i64().unwrap(),
            b.fields[0].gather_bytes(),
            b.last_in_epoch,
        ));
    }
    assert_eq!(consumer.stop_reason(), Some(StopReason::End));
    drop(consumer);
    producer.join().unwrap();
    assert_eq!(trace, reference_trace(&[loader_with_workers(64, 4, 2)], 2));
    assert_eq!(built.counter("loader.in_place_batches").get(), 32);
    assert_eq!(ctx.metrics.counter("stage.loader_unbound").get(), 0);
    assert_eq!(ctx.metrics.counter("stage.collate_copy_bytes").get(), 0);
    let pool = ctx.registry.shard_slot_pool(0).unwrap().stats();
    assert_eq!(pool.returned, 2 * 32, "two slots a batch: {pool:?}");
    assert_eq!(ctx.metrics.gauge("stage.slots_live").get(), 0.0);
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn batches_that_do_not_arrive_placed_cost_one_feeder_copy() {
    // A `VecSource` hands out heap batches: the feeder collates each into
    // a leased slot — once, so the counter reads exactly the payload.
    use crate::runtime::producer::VecSource;
    let ctx = TsContext::host_only();
    let ep = "inproc://feeder-copy";
    let batches: Vec<ts_data::Batch> = loader(20, 4).epoch(0).collect();
    let payload: usize = batches
        .iter()
        .flat_map(|b| b.fields.iter().chain([&b.labels]))
        .map(|t| t.view_bytes())
        .sum();
    let producer = Producer::builder()
        .context(&ctx)
        .config(producer_cfg(ep, 2))
        .arena(arena_path("feeder-copy"))
        .spawn(VecSource::new(batches).unwrap())
        .unwrap();
    let (trace, reason) = consume_trace(consumer(&ctx).connect(ep).unwrap());
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace.len(), 10, "2 epochs × 5 batches");
    let arena = producer.arena().unwrap().clone();
    producer.join().unwrap();
    let copied = ctx.metrics.counter("stage.collate_copy_bytes").get();
    assert_eq!(copied, 2 * payload as u64, "one copy of every byte");
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn flexible_sizing_over_an_arena_still_publishes_zero_copy() {
    // Trap: loader batches built in slots are not parts the flexible fuse
    // can lease for — it would fall to the heap and the publish step would
    // copy. Under flexible sizing the loader is therefore not offered the
    // pool: its batches arrive on the heap and the fuse IS the placement.
    let ctx = TsContext::host_only();
    let ep = "inproc://flex-zero-copy";
    let mut cfg = producer_cfg(ep, 1);
    cfg.flexible = Some(FlexibleConfig {
        producer_batch: 8,
        order: OrderConfig::default(),
    });
    let loader = loader_with_workers(64, 4, 2);
    let built = loader.metrics().clone();
    let producer = Producer::builder()
        .context(&ctx)
        .config(cfg)
        .arena(arena_path("flex-zero-copy"))
        .spawn(loader)
        .unwrap();
    let mut consumer = consumer(&ctx).batch_size(4).connect(ep).unwrap();
    let mut labels: Vec<i64> = Vec::new();
    for b in consumer.by_ref() {
        labels.extend(b.expect("clean stream").labels.to_vec_i64().unwrap());
    }
    labels.sort_unstable();
    assert_eq!(labels, (0..64).collect::<Vec<i64>>(), "exactly once");
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 8, "eight producer batches");
    assert_eq!(built.counter("loader.in_place_batches").get(), 0);
    // The fuse copied every sample into its producer batch's slot, once.
    let copied = ctx.metrics.counter("stage.collate_copy_bytes").get();
    assert_eq!(copied, 64 * (2 * 4 + 8));
}

#[test]
fn an_arena_smaller_than_the_loaders_appetite_still_completes() {
    // Trap: 6 slots hold the publish window, the batch in the feeder's
    // hand and little more (a slot a batch). Were the 4 loader workers allowed to
    // lease from it, batches BEHIND the head of the stream would take every
    // slot while the head — built on the heap by a worker that found the
    // pool dry — waits in the feeder for a slot only a publish can free.
    // An arena without room for the loader's in-flight set keeps the
    // feeder-collated path instead, and says so.
    let ctx = TsContext::host_only();
    let ep = "inproc://small-arena";
    let producer = Producer::builder()
        .context(&ctx)
        .config(producer_cfg(ep, 1))
        .arena_sized(arena_path("small-arena"), 6, 4096)
        .spawn(loader_with_workers(512, 4, 4))
        .unwrap();
    let consumer = consumer(&ctx).connect(ep).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let _ = done_tx.send(consume_trace(consumer));
    });
    let Ok((trace, reason)) = done_rx.recv_timeout(Duration::from_secs(20)) else {
        producer.abort();
        panic!("the stream wedged: every slot held behind a batch that needs one");
    };
    reader.join().unwrap();
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace, reference_trace(&[loader_with_workers(512, 4, 4)], 1));
    let arena = producer.arena().unwrap().clone();
    producer.join().unwrap();
    assert_eq!(ctx.metrics.counter("stage.loader_unbound").get(), 1);
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn a_dry_arena_under_a_leasing_loader_still_waits_sheds_pins_and_delivers_once() {
    // Room for the window and everything the loader keeps in flight (so
    // its workers lease), but not for an epoch, and the whole epoch is
    // inside the join window: acked pins end up holding every slot. A
    // worker that finds the pool dry builds on the heap, the feeder's
    // dry-arena wait takes over exactly as before — wait state `arena`,
    // pins shed — and every batch is delivered once.
    let ctx = TsContext::host_only();
    let ep = "inproc://dry-leasing";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0;
    let loader = loader_with_workers(256, 4, 2);
    let built = loader.metrics().clone();
    let producer = Producer::builder()
        .context(&ctx)
        .config(cfg)
        .arena_sized(arena_path("dry-leasing"), 36, 4096)
        .spawn(loader)
        .unwrap();
    let (trace, reason) = consume_trace(consumer(&ctx).connect(ep).unwrap());
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace, reference_trace(&[loader_with_workers(256, 4, 2)], 1));
    let arena = producer.arena().unwrap().clone();
    producer.join().unwrap();
    let count = |name: &str| ctx.metrics.counter(name).get();
    assert_eq!(count("stage.loader_unbound"), 0, "the loader leased");
    assert!(built.counter("loader.in_place_batches").get() > 0);
    assert!(
        count("stage.arena_parked_ns") > 0,
        "never waited on the arena"
    );
    assert!(count("stage.pins_shed_for_arena") > 0, "no pin was shed");
    // Every batch was either built in place or collated by the feeder.
    let heap = built.counter("loader.heap_batches").get();
    assert_eq!(count("stage.collate_copy_bytes"), heap * 64);
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn aborting_mid_epoch_and_replacing_a_field_both_give_every_slot_back() {
    let ctx = TsContext::host_only();
    let ep = "inproc://slot-conservation";
    let mut cfg = producer_cfg(ep, 4);
    // The Figure-7 pattern: the field the loader built in a slot is
    // replaced by an embedding; the slot must not outlive the tensor.
    cfg.producer_map = Some(Arc::new(|mut batch: ts_data::Batch| {
        let rows = batch.batch_size();
        batch.fields = vec![Tensor::zeros(
            &[rows, 3],
            ts_tensor::DType::F32,
            DeviceId::Cpu,
        )];
        batch
    }));
    let loader = loader_with_workers(4096, 4, 3);
    let built = loader.metrics().clone();
    let producer = Producer::builder()
        .context(&ctx)
        .config(cfg)
        .arena(arena_path("slot-conservation"))
        .spawn(loader)
        .unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    for b in consumer.by_ref().flatten().take(40) {
        assert_eq!(b.fields[0].shape(), &[4, 3]);
    }
    // Mid-epoch: placed batches sit in the worker channels, the feeder
    // queue and the window.
    producer.abort();
    for _ in consumer.by_ref().flatten() {}
    assert_eq!(consumer.stop_reason(), Some(StopReason::End));
    drop(consumer);
    let arena = producer.arena().unwrap().clone();
    let stats = producer.join().unwrap();
    assert!(
        stats.batches_published < 1024,
        "the abort cut the run short"
    );
    assert!(built.counter("loader.in_place_batches").get() >= 40);
    // The replaced field is a heap tensor, so the batch did not arrive
    // placed: the feeder copied it whole into one slot, the replaced field
    // and the labels the loader had placed.
    let copied = ctx.metrics.counter("stage.collate_copy_bytes").get();
    assert_eq!(copied, stats.batches_published * (4 * 3 * 4 + 4 * 8));
    assert!(ctx.registry.is_empty());
    assert_eq!(arena.slots_in_use(), 0, "a slot outlived its batch");
}

#[test]
fn each_shards_loader_leases_from_its_own_pool() {
    let ctx = TsContext::host_only();
    let ep = "inproc://sharded-in-place";
    let loaders = sharded_loaders(128, 4, 2, true);
    let built: Vec<_> = loaders.iter().map(|l| l.metrics().clone()).collect();
    let group = Producer::builder()
        .context(&ctx)
        .config(producer_cfg(ep, 2))
        .arena(arena_path("sharded-in-place"))
        .spawn_sharded(loaders)
        .unwrap();
    let (trace, reason) = consume_trace(consumer(&ctx).connect(ep).unwrap());
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace, reference_trace(&sharded_loaders(128, 4, 2, true), 2));
    for (s, built) in built.iter().enumerate() {
        assert_eq!(built.counter("loader.in_place_batches").get(), 32);
        let pool = ctx.registry.shard_slot_pool(s as u32).unwrap().stats();
        // A lease and a reclaim per batch: fields and labels in one slot.
        assert!(pool.hits + pool.misses >= 32, "shard {s} leased: {pool:?}");
        assert!(pool.returned >= 32, "shard {s} reclaimed: {pool:?}");
        let name = format!("stage.s{s}.collate_copy_bytes");
        assert_eq!(ctx.metrics.counter(&name).get(), 0, "{name}");
    }
    let arena = group.arena().unwrap().clone();
    group.join().unwrap();
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn sharded_gpu_staged_publish_stays_zero_copy() {
    // The CI smoke scenario: a sharded GPU-staged run with per-shard slot
    // pools. The feeder leases and collates on the host, staging H2D-reads
    // from the leased slot, and publish adopts the placement: every slot
    // and every VRAM byte comes back.
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let arena_path =
        std::env::temp_dir().join(format!("ts-gpu-zero-copy-{}.arena", std::process::id()));
    ctx.create_arena(&arena_path, 64, 4096, &[8, 8]).unwrap();
    let pools: Vec<_> = (0..2)
        .map(|s| ctx.registry.shard_slot_pool(s).unwrap())
        .collect();
    let ep = "inproc://gpu-zero-copy";
    let mut cfg = producer_cfg(ep, 2);
    cfg.device = DeviceId::Gpu(0);
    cfg.rubberband_cutoff = 0.02;
    let group = spawn_sharded(sharded_loaders(64, 4, 2, false), &ctx, cfg).unwrap();
    let consumer = consumer(&ctx).connect(ep).unwrap();
    let (trace, reason) = consume_trace(consumer);
    assert_eq!(reason, Some(StopReason::End));
    assert_eq!(trace.len(), 32, "2 epochs × 2 shards × 8 batches");
    let stats = group.join_shards().unwrap();
    assert!(stats.iter().all(|s| s.bytes_staged > 0), "staging ran");
    assert!(ctx.registry.is_empty());
    for pool in &pools {
        pool.drain();
    }
    assert_eq!(ctx.arena().unwrap().slots_in_use(), 0);
    assert_eq!(ctx.devices.memory(DeviceId::Gpu(0)).unwrap().in_use(), 0);
}

#[test]
fn zero_copy_publish_is_byte_identical_across_shards_staging_and_payload() {
    // Acceptance criterion: the lease-placed stream is byte-identical to
    // the heap-published stream across shards {1,2} × device {CPU, GPU
    // staged} × payload modes {shm,streamed}.
    use crate::protocol::messages::PayloadMode;
    for shards in [1usize, 2] {
        for (stag_tag, device) in [("cpu", DeviceId::Cpu), ("gpu", DeviceId::Gpu(0))] {
            for (mode_tag, payload_mode) in
                [("shm", PayloadMode::Shm), ("stream", PayloadMode::Stream)]
            {
                let tag = format!("shards={shards} staging={stag_tag} payload={mode_tag}");
                let mut traces: Vec<ByteTrace> = Vec::new();
                for leased in [false, true] {
                    let ctx = TsContext::with_gpus(1, 1 << 30, false);
                    if leased {
                        let arena_path = std::env::temp_dir().join(format!(
                            "ts-ident-{shards}-{stag_tag}-{mode_tag}-{}.arena",
                            std::process::id()
                        ));
                        ctx.create_arena(&arena_path, 64, 4096, &vec![8; shards])
                            .unwrap();
                    }
                    let ep = format!("inproc://ident-{shards}-{stag_tag}-{mode_tag}-{leased}");
                    let mut cfg = producer_cfg(&ep, 2);
                    cfg.device = device;
                    let group =
                        spawn_sharded(sharded_loaders(48, 4, shards, false), &ctx, cfg).unwrap();
                    let consumer = consumer(&ctx)
                        .payload_mode(payload_mode)
                        .connect(&ep)
                        .unwrap();
                    let (trace, reason) = consume_trace(consumer);
                    assert_eq!(reason, Some(StopReason::End), "{tag} leased={leased}");
                    assert_eq!(trace.len(), 24, "{tag} leased={leased}");
                    group.join().unwrap();
                    traces.push(trace);
                }
                assert_eq!(traces[0], traces[1], "lease-placed stream differs: {tag}");
            }
        }
    }
}

#[test]
fn stream_consumer_leaving_mid_replay_stops_the_stream_encoder() {
    // Regression: a stream-mode consumer that detaches mid-replay used to
    // leave the replay branch encoding (and sending) every remaining
    // pinned batch to a topic nobody read, until the next ctrl poll. The
    // replay loop now polls control between batches and bails the moment
    // the consumer is gone — `stage.stream_tx_bytes` must stop growing.
    use crate::protocol::messages::{topics, CtrlMsg, DataMsg, JoinDecision, PayloadMode};
    let ctx = TsContext::host_only();
    let ep = "inproc://replay-detach";
    let mut cfg = producer_cfg(ep, 1);
    cfg.rubberband_cutoff = 1.0; // the whole epoch stays replayable
                                 // Big batches (16×16×3 f32 images, 12 KiB of field payload per batch)
                                 // so a runaway replay is unmistakable in the byte counter.
    let dataset =
        Arc::new(ts_data::SyntheticImageDataset::new(96, 16, 16, 3).with_encoded_len(256));
    let image_loader = ts_data::DataLoader::new(
        dataset,
        ts_data::DataLoaderConfig {
            batch_size: 4,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    );
    let producer = spawn(image_loader, &ctx, cfg).unwrap();
    let mut good = consumer(&ctx).connect(ep).unwrap();
    let mut consumed = 0usize;
    for _ in good.by_ref().flatten() {
        consumed += 1;
        if consumed == 20 {
            break;
        }
    }
    let tx = ctx.metrics.counter("stage.stream_tx_bytes");
    assert_eq!(tx.get(), 0, "the shm consumer never streams");
    // A stream-mode consumer joins (admitted with a 20-batch replay),
    // declares ready, and leaves immediately — the Leave lands while the
    // replay is starting.
    {
        let sub = ts_socket::SubSocket::connect(&ctx.sockets, &format!("{ep}/data"));
        sub.subscribe(&topics::consumer(4242));
        let push = ts_socket::PushSocket::connect(&ctx.sockets, &format!("{ep}/ctrl"));
        push.send(ts_socket::Multipart::single(
            CtrlMsg::Join {
                consumer_id: 4242,
                batch_size: 0,
                mode: PayloadMode::Stream,
            }
            .encode(),
        ))
        .unwrap();
        let (_, m) = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        match DataMsg::decode(&m.frames()[0]) {
            Ok(DataMsg::JoinReply {
                decision: JoinDecision::AdmitReplay { replay_from, .. },
                ..
            }) => assert_eq!(replay_from, 0, "cutoff 1.0 replays the whole epoch"),
            other => panic!("expected AdmitReplay, got {other:?}"),
        }
        push.send(ts_socket::Multipart::single(
            CtrlMsg::Ready { consumer_id: 4242 }.encode(),
        ))
        .unwrap();
        push.send(ts_socket::Multipart::single(
            CtrlMsg::Leave { consumer_id: 4242 }.encode(),
        ))
        .unwrap();
    }
    for _ in good.by_ref().flatten() {
        consumed += 1;
    }
    assert_eq!(consumed, 24);
    assert_eq!(good.stop_reason(), Some(StopReason::End));
    producer.join().unwrap();
    let per_batch = 4 * 16 * 16 * 3 * 4; // field payload bytes per batch
    let full_replay = (20 * per_batch) as u64;
    let sent = tx.get();
    assert!(
        sent < full_replay / 2,
        "replay kept encoding after the leave: {sent} bytes streamed \
         (a full 20-batch replay is ≥ {full_replay})"
    );
}

#[test]
fn publish_cursor_broadcasts_coalesce_to_latest_wins() {
    // Every publish offers (epoch, seq, index) into the coalescing cell;
    // the housekeeping flush broadcasts at most one Cursor per 25ms. Under
    // a fast publish loop most offers are displaced (coalesced), and a
    // consumer holds exactly one latest-wins snapshot per shard — not a
    // backlog.
    let ctx = TsContext::host_only();
    let ep = "inproc://cursor-coalesce";
    let producer = spawn(loader_with_workers(1024, 4, 2), &ctx, producer_cfg(ep, 2)).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let mut consumed = 0u64;
    for _ in consumer.by_ref().flatten() {
        consumed += 1;
        // Stretch the run across several 25ms flush windows.
        if consumed.is_multiple_of(64) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert_eq!(consumed, 512, "2 epochs × 256 batches");
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 512);
    assert!(
        ctx.metrics.counter("stage.cursor_coalesced").get() > 0,
        "512 publishes in well under 512 flush windows must displace stale cursors"
    );
    let (epoch, seq, index) = consumer
        .latest_cursor(0)
        .expect("the consumer saw at least one cursor broadcast");
    assert!(epoch <= 1, "cursor epoch {epoch} out of range");
    assert!(seq < 512, "cursor seq {seq} out of range");
    assert!(index < 256, "cursor index {index} out of range");
    assert!(ctx.metrics.gauge("consumer.cursor_lag").get() >= 0.0);
}

#[test]
fn cursor_cadence_bounds_lag_and_never_moves_backwards_across_epochs() {
    // The cadence contract of the cursor channel, observed across epoch
    // boundaries: under a publisher running flat out the coalescing cell
    // keeps displacing stale positions (`stage.cursor_coalesced` grows),
    // the consumer's observed lag stays bounded by the publish window
    // (the producer cannot outrun its unacked buffer), and the
    // latest-wins cursor state never steps backwards in `(epoch, seq)` —
    // not even when `index_in_epoch` resets to 0 at an epoch boundary.
    let ctx = TsContext::host_only();
    let ep = "inproc://cursor-cadence";
    let mut cfg = producer_cfg(ep, 3);
    cfg.buffer_size = 4;
    let buffer_size = cfg.buffer_size;
    let producer = spawn(loader_with_workers(512, 4, 2), &ctx, cfg).unwrap();
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    let lag_gauge = ctx.metrics.gauge("consumer.cursor_lag");
    let mut consumed = 0u64;
    let mut max_lag = 0.0f64;
    let mut prev_cursor: Option<(u64, u64, u64)> = None;
    let mut epochs_observed = BTreeSet::new();
    while consumer.next().is_some() {
        consumed += 1;
        max_lag = max_lag.max(lag_gauge.get());
        if let Some(cur @ (epoch, seq, _)) = consumer.latest_cursor(0) {
            epochs_observed.insert(epoch);
            if let Some((pe, ps, _)) = prev_cursor {
                assert!(
                    (epoch, seq) >= (pe, ps),
                    "cursor moved backwards: ({pe},{ps}) -> ({epoch},{seq})"
                );
            }
            prev_cursor = Some(cur);
        }
        // Stretch each epoch across several 25ms flush windows so cursors
        // from every epoch (and the boundary itself) get broadcast.
        if consumed.is_multiple_of(16) {
            std::thread::sleep(Duration::from_millis(8));
        }
    }
    assert_eq!(consumed, 384, "3 epochs × 128 batches");
    let stats = producer.join().unwrap();
    assert_eq!(stats.batches_published, 384);
    assert!(
        ctx.metrics.counter("stage.cursor_coalesced").get() > 0,
        "a fast publisher must displace stale cursor positions"
    );
    assert!(
        prev_cursor.is_some(),
        "the consumer never observed a cursor broadcast"
    );
    assert!(
        epochs_observed.len() >= 2,
        "cursors were only observed in epochs {epochs_observed:?}; the \
         never-backwards assertion did not cross an epoch boundary"
    );
    assert!(
        max_lag <= (buffer_size + 2) as f64,
        "cursor lag {max_lag} exceeded the publish window ({buffer_size})"
    );
}

#[test]
fn unknown_data_tag_is_counted_and_skipped_by_the_consumer() {
    // Forward compatibility on the consumer's data path: a "newer"
    // producer broadcasting a message kind this build does not know must
    // be counted under `consumer.data_unknown` and skipped — the stream
    // still ends cleanly on the real End frame behind it.
    use crate::protocol::messages::{topics, CtrlMsg, DataMsg};
    use ts_socket::{Multipart, PubSocket, PullSocket};

    let ctx = TsContext::host_only();
    let ep = "inproc://unknown-data-tag";
    let publisher = PubSocket::bind(&ctx.sockets, &format!("{ep}/data")).unwrap();
    let ctrl = PullSocket::bind(&ctx.sockets, &format!("{ep}/ctrl")).unwrap();
    let fake = std::thread::spawn(move || {
        let mut sent = false;
        loop {
            let Ok(msg) = ctrl.recv_timeout(Duration::from_secs(2)) else {
                return;
            };
            let Ok(m) = CtrlMsg::decode(&msg.frames()[0]) else {
                continue;
            };
            match m {
                CtrlMsg::Hello { token, .. } => fake_welcome(&publisher, token, 1),
                CtrlMsg::Join { consumer_id, .. } => fake_admit(&publisher, consumer_id),
                CtrlMsg::Ready { .. } if !sent => {
                    sent = true;
                    // Tag 99 does not exist in this build: a valid-length
                    // frame from a future protocol version, then End.
                    publisher
                        .send(
                            topics::BATCH,
                            Multipart::single(bytes::Bytes::from_static(&[
                                99, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7,
                            ])),
                        )
                        .unwrap();
                    publisher
                        .send(topics::BATCH, Multipart::single(DataMsg::End.encode()))
                        .unwrap();
                }
                _ => {}
            }
        }
    });
    let mut consumer = consumer(&ctx).connect(ep).unwrap();
    assert!(consumer.next().is_none(), "only an End was ever published");
    assert_eq!(consumer.stop_reason(), Some(StopReason::End));
    assert_eq!(
        ctx.metrics.counter("consumer.data_unknown").get(),
        1,
        "the alien frame must be counted exactly once"
    );
    drop(consumer);
    fake.join().unwrap();
}

#[test]
fn replay_start_never_panics_when_retention_outruns_the_splice_point() {
    use crate::runtime::producer::replay_start;
    // The regression: `Ord::clamp(rmin, live_seq)` asserts min <= max and
    // panicked the producer control loop when retention had trimmed past
    // a rubberband joiner's splice point (rmin > live_seq). The resolver
    // must degrade to "nothing replayable behind the splice point".
    assert_eq!(replay_start(96, 96, 0), 0, "cursor-less want = rmin");
    assert_eq!(replay_start(0, 96, 40), 40, "explicit seq behind retention");
    assert_eq!(replay_start(u64::MAX, 96, 40), 40, "absurd remote seq");
    // Ordinary resolutions are unchanged.
    assert_eq!(replay_start(5, 2, 10), 5, "in-range want wins");
    assert_eq!(replay_start(1, 2, 10), 2, "floored at retained_min");
    assert_eq!(replay_start(50, 2, 10), 10, "capped at the splice point");
    assert_eq!(replay_start(7, 7, 7), 7);
}
