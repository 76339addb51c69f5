//! Property-based tests of the protocol invariants and substrate algebra.

use bytes::Bytes;
use proptest::prelude::*;
use tensorsocket::protocol::flex::{carve, covers_producer_batch, plan_flex};
use tensorsocket::protocol::messages::{
    AnnounceContent, ArenaAd, BatchAnnounce, CtrlMsg, DataMsg, JoinDecision, LogAd, PayloadMode,
    ReplayFrom, StatsPayload, StreamedTensor, TracePayload, WelcomeInfo,
};
use tensorsocket::protocol::order::OrderConfig;
use ts_baselines::DependentSampler;
use ts_device::DeviceId;
use ts_tensor::{DType, SharedRegistry, Tensor, TensorPayload};

// ---------------------------------------------------------------------------
// flexible batch planning (§3.2.6)
// ---------------------------------------------------------------------------

/// The carve as the producer ran it for each consumer and batch before
/// the consumer took it over, kept as the reference: `(start, len)` row
/// segments per carved batch, in delivery order.
fn producer_side_carve(
    p: usize,
    requested: usize,
    order: &OrderConfig,
    (index, members): (usize, usize),
    consumer_id: u64,
    seq: u64,
) -> Vec<Vec<(usize, usize)>> {
    let bs = requested.min(p).max(1);
    let offset = order.offset_for(index, members.max(1), p);
    let plan = plan_flex(p, bs, offset).unwrap();
    let visits = order.visit_order(consumer_id, seq, plan.batches.len());
    let rows = |k: usize| plan.batches[k].segments.iter().map(|s| (s.start, s.len));
    visits.into_iter().map(|k| rows(k).collect()).collect()
}

proptest! {
    /// The consumer's carve — rows and visit order — is the one the
    /// producer made, for any producer batch, batch size, place among any
    /// number of members, consumer, seq and order variation.
    #[test]
    fn the_consumers_carve_is_the_producers(
        p in 1usize..256,
        b_raw in 1usize..256,
        index in 0usize..16,
        members in 0usize..16,
        consumer_id in any::<u64>(),
        seq in any::<u64>(),
        offsets in any::<bool>(),
        shuffle in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let order = OrderConfig { offsets, shuffle, seed };
        let b = b_raw.min(p);
        let reference = producer_side_carve(p, b, &order, (index, members), consumer_id, seq);
        let carved = carve(p, b, &order, (index, members), consumer_id, seq).unwrap();
        let carved: Vec<Vec<(usize, usize)>> = carved
            .iter()
            .map(|batch| batch.segments.iter().map(|s| (s.start, s.len)).collect())
            .collect();
        prop_assert_eq!(carved, reference);
    }
}

proptest! {
    /// Every plan covers the producer batch exactly, delivers batches of
    /// exactly the requested size, and repeats fewer than `b` samples.
    #[test]
    fn flex_plan_invariants(p in 1usize..512, b_raw in 1usize..512, offset in 0usize..1024) {
        let b = b_raw.min(p);
        let plan = plan_flex(p, b, offset).unwrap();
        prop_assert!(covers_producer_batch(&plan));
        prop_assert!(plan.batches.iter().all(|pb| pb.len() == b));
        prop_assert!(plan.repeated() < b);
        prop_assert_eq!(plan.batches.len(), p.div_ceil(b));
        // segments stay in range
        for pb in &plan.batches {
            for s in &pb.segments {
                prop_assert!(s.start + s.len <= p);
                prop_assert!(s.len > 0);
            }
        }
    }

    /// The lockstep rate invariant: every consumer finishes one producer
    /// batch per round regardless of its batch size.
    #[test]
    fn flex_all_consumers_same_rate(p in 1usize..256, sizes in prop::collection::vec(1usize..256, 1..6)) {
        for b in sizes {
            let b = b.min(p);
            let plan = plan_flex(p, b, 0).unwrap();
            prop_assert_eq!(plan.delivered(), plan.batches.len() * b);
            prop_assert!(plan.delivered() >= p);
        }
    }
}

// ---------------------------------------------------------------------------
// wire codec
// ---------------------------------------------------------------------------

/// Deterministic value source for the message generators below: one
/// proptest seed expands into every variant of both message enums, nested
/// types included.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| item(self)).collect()
    }

    fn string(&mut self) -> String {
        let chars = ['a', 'Z', '7', '/', ' ', 'é', 'ю', '樹'];
        self.vec(12, |g| chars[g.below(chars.len())])
            .into_iter()
            .collect()
    }

    fn payload(&mut self) -> TensorPayload {
        let shape = (0..1 + self.below(3))
            .map(|_| 1 + self.below(63))
            .collect::<Vec<_>>();
        TensorPayload {
            storage_id: self.u64(),
            device: match self.below(4) {
                0 => DeviceId::Cpu,
                gpu => DeviceId::Gpu(gpu as u8),
            },
            dtype: DType::U8,
            strides: ts_tensor::contiguous_strides(&shape),
            shape,
            offset: self.below(1 << 16),
            // both in-process and cross-process payloads
            shm: self.flag().then(|| ts_shm::ShmHandle {
                slot: self.u32(),
                generation: self.u32() | 1,
                len: self.u64(),
            }),
        }
    }

    fn streamed(&mut self) -> StreamedTensor {
        // Mostly small blobs; one in eight is past the size at which the
        // codec emits a blob as a segment of its own.
        let len = match self.below(8) {
            0 => 4096 + self.below(64),
            _ => self.below(25),
        };
        StreamedTensor {
            dtype: [DType::U8, DType::F32, DType::I64][self.below(3)],
            shape: self.vec(3, |g| g.u64()),
            bytes: Bytes::from((0..len).map(|_| self.u64() as u8).collect::<Vec<u8>>()),
        }
    }

    fn content(&mut self, kind: usize) -> AnnounceContent {
        match kind {
            0 => AnnounceContent::Shared {
                fields: self.vec(3, Gen::payload),
                labels: self.payload(),
            },
            _ => AnnounceContent::Streamed {
                fields: self.vec(3, Gen::streamed),
                labels: self.streamed(),
            },
        }
    }

    fn named<T>(&mut self, mut value: impl FnMut(&mut Gen) -> T) -> Vec<(String, T)> {
        self.vec(3, |g| (g.string(), value(g)))
    }
}

const CTRL_KINDS: usize = 12;

fn ctrl_msg(kind: usize, g: &mut Gen) -> CtrlMsg {
    match kind {
        0 => CtrlMsg::Join {
            consumer_id: g.u64(),
            batch_size: g.u32(),
            mode: if g.flag() {
                PayloadMode::Stream
            } else {
                PayloadMode::Shm
            },
        },
        1 => CtrlMsg::Ready {
            consumer_id: g.u64(),
        },
        2 => CtrlMsg::Ack {
            consumer_id: g.u64(),
            seq: g.u64(),
        },
        3 => CtrlMsg::Heartbeat {
            consumer_id: g.u64(),
        },
        4 => CtrlMsg::Leave {
            consumer_id: g.u64(),
        },
        5 => CtrlMsg::Hello {
            token: g.u64(),
            version: g.u32(),
            caps: g.u32(),
        },
        6 => CtrlMsg::StatsRequest {
            token: g.u64(),
            version: g.u32(),
            seq: g.u32(),
        },
        7 => CtrlMsg::TraceRequest {
            token: g.u64(),
            version: g.u32(),
            seq: g.u32(),
            max: g.u32(),
        },
        8..=10 => CtrlMsg::Replay {
            consumer_id: g.u64(),
            group: g.string(),
            from: match kind {
                8 => ReplayFrom::Cursor,
                9 => ReplayFrom::Oldest,
                _ => ReplayFrom::Seq(g.u64()),
            },
        },
        _ => CtrlMsg::Unknown {
            tag: 9 + g.below(247) as u8,
        },
    }
}

const DATA_KINDS: usize = 16;

fn data_msg(kind: usize, g: &mut Gen) -> DataMsg {
    match kind {
        0 => DataMsg::EpochStart {
            epoch: g.u64(),
            num_batches: g.u64(),
        },
        1 | 2 => DataMsg::Batch(BatchAnnounce {
            seq: g.u64(),
            epoch: g.u64(),
            index_in_epoch: g.u64(),
            last_in_epoch: g.flag(),
            content: g.content(kind - 1),
        }),
        3 => DataMsg::Members {
            seq: g.u64(),
            count: g.u32(),
        },
        4..=6 => DataMsg::JoinReply {
            consumer_id: g.u64(),
            decision: match kind {
                4 => JoinDecision::AdmitReplay {
                    epoch: g.u64(),
                    replay_from: g.u64(),
                    num_batches: g.u64(),
                    start_seq: g.u64(),
                    index: g.u32(),
                },
                5 => JoinDecision::WaitEpoch {
                    epoch: g.u64(),
                    index: g.u32(),
                },
                _ => JoinDecision::Reject { reason: g.string() },
            },
        },
        7 => DataMsg::Detached {
            consumer_id: g.u64(),
        },
        8 => DataMsg::End,
        // Welcome: bare, and with arena + overrides + log.
        9 | 10 => DataMsg::Welcome {
            token: g.u64(),
            info: WelcomeInfo {
                version: g.u32(),
                shards: g.u32(),
                batch_size: g.u32(),
                flex_producer_batch: g.u32(),
                flex_order: OrderConfig {
                    offsets: g.flag(),
                    shuffle: g.flag(),
                    seed: g.u64(),
                },
                staging: g.u64() as u8,
                arena: (kind == 10).then(|| ArenaAd {
                    path: g.string(),
                    nslots: g.u64(),
                    slot_size: g.u64(),
                }),
                endpoint_overrides: if kind == 10 {
                    g.named(Gen::u32)
                } else {
                    Vec::new()
                }
                .into_iter()
                .map(|(uri, shard)| (shard, uri))
                .collect(),
                log: (kind == 10).then(|| LogAd {
                    retained_min: g.u64(),
                    retained_max: g.u64(),
                }),
            },
        },
        11 => DataMsg::Stats {
            token: g.u64(),
            payload: StatsPayload {
                version: g.u32(),
                counters: g.named(Gen::u64),
                gauge_bits: g.named(Gen::u64),
                histograms: g.named(|g| ts_metrics::HistogramSnapshot {
                    count: g.u64(),
                    sum: g.u64(),
                    max: g.u64(),
                    buckets: g.vec(4, |g| (g.u32(), g.u64())),
                }),
                uptime_ns: g.u64(),
                snapshot_ns: g.u64(),
                verdict: g.string(),
            },
            seq: g.u32(),
        },
        12 => DataMsg::Cursor {
            shard: g.u32(),
            epoch: g.u64(),
            seq: g.u64(),
            index_in_epoch: g.u64(),
        },
        13 => DataMsg::Trace {
            token: g.u64(),
            payload: TracePayload {
                version: g.u32(),
                now_ns: g.u64(),
                records: g.vec(3, |g| ts_metrics::TraceRecordSnap {
                    epoch: g.u64(),
                    shard: g.u32(),
                    seq: g.u64(),
                    complete: g.flag(),
                    spans: g.vec(4, |g| (g.u64() as u8, g.u64(), g.u64())),
                }),
            },
            seq: g.u32(),
        },
        14 => DataMsg::LogInfo {
            consumer_id: g.u64(),
            start_seq: g.u64(),
            start_epoch: g.u64(),
            start_index: g.u64(),
            live_seq: g.u64(),
            retained_min: g.u64(),
            retained_max: g.u64(),
        },
        _ => DataMsg::Unknown {
            tag: 11 + g.below(245) as u8,
        },
    }
}

/// The frame-level properties every message must have, through both
/// decode entries: the borrowing one the runtime uses on received frames
/// and the `&[u8]` one.
fn assert_frame_properties<M: PartialEq + std::fmt::Debug>(
    msg: &M,
    wire: &Bytes,
    decode: fn(&[u8]) -> tensorsocket::Result<M>,
    decode_shared: fn(&Bytes) -> tensorsocket::Result<M>,
    garbage: &[u8],
) {
    assert_eq!(&decode(wire).unwrap(), msg, "round trip");
    assert_eq!(&decode_shared(wire).unwrap(), msg, "shared round trip");
    for cut in 0..wire.len() {
        assert!(
            decode(&wire[..cut]).is_err() && decode_shared(&wire.slice(..cut)).is_err(),
            "{msg:?} cut to {cut} of {} bytes decoded",
            wire.len()
        );
    }
    let padded = Bytes::from([wire, garbage].concat());
    assert_eq!(&decode(&padded).unwrap(), msg, "trailing bytes are ignored");
    assert_eq!(&decode_shared(&padded).unwrap(), msg, "...by both entries");
}

/// Every blob of a decoded streamed batch, in wire order.
fn blobs(msg: &DataMsg) -> Vec<&Bytes> {
    match msg {
        DataMsg::Batch(BatchAnnounce {
            content: AnnounceContent::Streamed { fields, labels },
            ..
        }) => fields.iter().chain([labels]).map(|t| &t.bytes).collect(),
        _ => Vec::new(),
    }
}

proptest! {
    /// Every variant of both enums, nested types included: round-trips,
    /// is rejected at every strict prefix, and ignores appended bytes.
    #[test]
    fn every_message_round_trips_rejects_truncation_and_ignores_trailing_bytes(
        seed in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let mut g = Gen(seed);
        for kind in 0..CTRL_KINDS {
            let m = ctrl_msg(kind, &mut g);
            assert_frame_properties(
                &m,
                &m.encode(),
                CtrlMsg::decode,
                CtrlMsg::decode_shared,
                &garbage,
            );
        }
        for kind in 0..DATA_KINDS {
            let m = data_msg(kind, &mut g);
            assert_frame_properties(
                &m,
                &m.encode(),
                DataMsg::decode,
                DataMsg::decode_shared,
                &garbage,
            );
        }
    }

    /// The frame is one thing however it is produced or consumed: the
    /// segments concatenate to `encode()` (so what a gather write puts on
    /// the socket, and what the log stores, are the same bytes), a blob
    /// large enough to be borrowed is a segment that IS the field's
    /// buffer, and every blob `decode_shared` returns lies inside the
    /// frame it was decoded from.
    #[test]
    fn segments_concatenate_to_the_frame_and_decoded_blobs_alias_it(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for kind in 0..DATA_KINDS {
            let m = data_msg(kind, &mut g);
            let segments = m.encode_segments();
            let wire = m.encode();
            prop_assert_eq!(&segments.concat()[..], &wire[..]);
            for blob in blobs(&m).into_iter().filter(|b| b.len() >= 4096) {
                prop_assert!(
                    segments.iter().any(|s| s.as_ptr_range() == blob.as_ptr_range()),
                    "a {}-byte blob was copied into the frame", blob.len()
                );
            }
            let decoded = DataMsg::decode_shared(&wire).unwrap();
            let frame = wire.as_ptr_range();
            for blob in blobs(&decoded) {
                let at = blob.as_ptr_range();
                prop_assert!(
                    blob.is_empty() || (frame.start <= at.start && at.end <= frame.end),
                    "a decoded {}-byte blob is a copy", blob.len()
                );
            }
        }
    }

    /// Neither arbitrary byte soup nor a valid frame with one byte
    /// overwritten ever panics a decoder (a wrong answer is fine: `Err`,
    /// or some other well-formed message).
    #[test]
    fn decoders_tolerate_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        seed in any::<u64>(),
        at in any::<u32>(),
        byte in any::<u8>(),
    ) {
        let _ = CtrlMsg::decode(&bytes);
        let _ = DataMsg::decode(&bytes);
        let _ = TensorPayload::decode(&bytes);
        let mut g = Gen(seed);
        for kind in 0..DATA_KINDS {
            let mut wire = data_msg(kind, &mut g).encode().to_vec();
            let at = at as usize % wire.len();
            wire[at] = byte;
            let _ = DataMsg::decode(&wire);
        }
        for kind in 0..CTRL_KINDS {
            let mut wire = ctrl_msg(kind, &mut g).encode().to_vec();
            let at = at as usize % wire.len();
            wire[at] = byte;
            let _ = CtrlMsg::decode(&wire);
        }
    }
}

proptest! {
    /// The metrics snapshot a scrape carries, under the damage the log's
    /// segments are tested with — ranges flipped, zeroed, the frame cut
    /// short. The frame has no checksum, so a damaged one may well decode;
    /// what it may never do is panic or fail untyped, and what does decode
    /// is the registry up to the damage: every counter, gauge and
    /// histogram whose bytes end ahead of the first damaged one comes out
    /// bit for bit, in order, and what a scraper computes from the rest
    /// (quantiles, means) does not panic either.
    #[test]
    fn a_damaged_stats_snapshot_is_a_typed_error_or_the_registry_up_to_the_damage(
        counters in prop::collection::vec(any::<u64>(), 0..6),
        gauges in prop::collection::vec(any::<u64>(), 0..6),
        samples in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..8), 0..4),
        damage in prop::collection::vec((0u32..3, 0u32..10_000, 1usize..48, 1u8..255), 1..4),
    ) {
        let registry = ts_metrics::Registry::new();
        for (i, v) in counters.iter().enumerate() {
            registry.counter(&format!("stage.s{i}.count")).add(*v);
        }
        for (i, bits) in gauges.iter().enumerate() {
            registry.gauge(&format!("stage.s{i}.level")).set(f64::from_bits(*bits));
        }
        for (i, values) in samples.iter().enumerate() {
            let h = registry.histogram(&format!("stage.s{i}.wait_ns"));
            values.iter().for_each(|v| h.record(*v));
        }
        let payload = StatsPayload::from_registry(&registry);
        let intact = DataMsg::Stats { token: 7, payload: payload.clone(), seq: 3 };
        let wire = intact.encode();
        prop_assert_eq!(&DataMsg::decode(&wire).unwrap(), &intact);
        // Where each entry ends in the frame: tag, token, version, then
        // three counted lists of length-prefixed names and fixed-width
        // values. The last line checks this arithmetic against the codec.
        let named = |name: &String, value: usize| 4 + name.len() + value;
        let mut at = 1 + 8 + 4;
        let mut ends = [Vec::new(), Vec::new(), Vec::new()];
        let sizes = [
            payload.counters.iter().map(|(n, _)| named(n, 8)).collect::<Vec<_>>(),
            payload.gauge_bits.iter().map(|(n, _)| named(n, 8)).collect(),
            payload.histograms.iter().map(|(n, h)| named(n, 3 * 8 + 4 + 12 * h.buckets.len())).collect(),
        ];
        for (list, sizes) in sizes.iter().enumerate() {
            at += 4;
            for size in sizes {
                at += size;
                ends[list].push(at);
            }
        }
        prop_assert_eq!(at + 8 + 8 + 4 + 4, wire.len(), "the test's picture of the layout");
        let mut bytes = wire.to_vec();
        let mut first = bytes.len();
        for &(kind, at, len, flip) in &damage {
            let at = (at as usize * wire.len() / 10_000).min(bytes.len());
            let end = (at + len).min(bytes.len());
            first = first.min(at);
            match kind {
                0 => bytes[at..end].iter_mut().for_each(|b| *b ^= flip),
                1 => bytes[at..end].fill(0),
                _ => bytes.truncate(at),
            }
        }
        match DataMsg::decode(&bytes) {
            Err(tensorsocket::TsError::Wire(_)) => {}
            Err(other) => panic!("damage must read as a wire error, got: {other}"),
            Ok(DataMsg::Stats { payload: got, .. }) => {
                let ahead = |list: usize| ends[list].iter().take_while(|end| **end <= first).count();
                let (c, g, h) = (ahead(0), ahead(1), ahead(2));
                prop_assert!(got.counters.len() >= c && got.counters[..c] == payload.counters[..c]);
                prop_assert!(got.gauge_bits.len() >= g && got.gauge_bits[..g] == payload.gauge_bits[..g]);
                prop_assert!(got.histograms.len() >= h && got.histograms[..h] == payload.histograms[..h]);
                for (_, h) in &got.histograms {
                    let _ = (h.mean(), h.p50(), h.p99(), h.quantile(1.0));
                }
                let _ = got.gauges();
            }
            // The tag itself was hit: some other well-formed message.
            Ok(_) => prop_assert_eq!(first, 0),
        }
    }
}

// A hostile element count must fail on the count, before the decoder
// reserves anything for it; a streamed batch must cross the codec and the
// socket without being copied. Measured, not inferred: the allocator
// records what the measured thread allocates, and counts batch-sized
// allocations on every thread.

struct CountingAlloc;

/// What one thread allocated while it was being measured.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Largest single allocation.
    peak: usize,
    /// Sum of all allocations.
    total: usize,
}

thread_local! {
    /// This thread's tally since it was armed (`None` = not recording).
    static TALLY: std::cell::Cell<Option<Tally>> = const { std::cell::Cell::new(None) };
}

/// An allocation this large can only be a copy of (or a buffer for) the
/// 1.5 MiB batch of the copy-budget tests.
const BATCH_SIZED: usize = 1 << 20;
/// Batch-sized allocations on any thread while `WATCHING_ALL_THREADS`.
static BATCH_SIZED_ALLOCATIONS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);
static WATCHING_ALL_THREADS: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);
/// Held by every test that allocates batch-sized buffers, so that one
/// test's batch is not counted against another's budget.
static BATCH_SIZED_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only additions are a read and write of a const-initialised, destructor-
// free thread-local `Cell` and of two atomics, none of which allocates or
// unwinds.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        use std::sync::atomic::Ordering::Relaxed;
        let _ = TALLY.try_with(|tally| {
            if let Some(t) = tally.get() {
                tally.set(Some(Tally {
                    peak: t.peak.max(layout.size()),
                    total: t.total + layout.size(),
                }));
            }
        });
        if layout.size() >= BATCH_SIZED && WATCHING_ALL_THREADS.load(Relaxed) {
            BATCH_SIZED_ALLOCATIONS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through as is.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with what this thread allocated
/// meanwhile.
fn tally<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    (out, TALLY.with(|t| t.take()).expect("armed above"))
}

/// Runs `f` and returns the largest single allocation it made.
fn peak_allocation(f: impl FnOnce()) -> usize {
    tally(f).1.peak
}

#[test]
fn hostile_counts_fail_before_anything_is_reserved() {
    let million = (1u32 << 20).to_le_bytes();
    // A 31-byte pointer announce claiming 2^20 fields (a reservation of
    // 2^20 × size_of::<TensorPayload>() = 96 MiB if the count were
    // trusted)...
    let mut batch = vec![1u8];
    batch.extend_from_slice(&[0; 24]); // seq, epoch, index_in_epoch
    batch.extend_from_slice(&[0, 0]); // last_in_epoch, content kind: Shared
    batch.extend_from_slice(&million);
    assert_eq!(batch.len(), 31);
    // ...and a 21-byte stats reply claiming 2^20 counters (32 MiB).
    let mut stats = vec![6u8];
    stats.extend_from_slice(&7u64.to_le_bytes());
    stats.extend_from_slice(&tensorsocket::WIRE_VERSION.to_le_bytes());
    stats.extend_from_slice(&million);
    stats.extend_from_slice(&[0; 4]);
    assert_eq!(stats.len(), 21);
    for frame in [batch, stats] {
        let peak = peak_allocation(|| assert!(DataMsg::decode(&frame).is_err()));
        assert!(
            peak <= 1024,
            "a {}-byte frame made the decoder allocate {peak} bytes at once",
            frame.len()
        );
    }
}

/// The `streamed_bytes` shape: a contiguous 32 x 3x128x128 u8 batch
/// (1.5 MiB) and its labels.
fn batch_1_5_mib() -> (Tensor, Tensor) {
    let field = Tensor::rand_u8(&[32, 3, 128, 128], DeviceId::Cpu, 7);
    let labels = Tensor::from_i64(&(0..32).collect::<Vec<i64>>(), &[32], DeviceId::Cpu).unwrap();
    (field, labels)
}

fn streamed_batch(field: &Tensor, labels: &Tensor) -> DataMsg {
    DataMsg::Batch(BatchAnnounce {
        seq: 9,
        epoch: 1,
        index_in_epoch: 9,
        last_in_epoch: false,
        content: AnnounceContent::Streamed {
            fields: vec![StreamedTensor::from_tensor(field)],
            labels: StreamedTensor::from_tensor(labels),
        },
    })
}

#[test]
fn a_contiguous_batch_crosses_the_codec_without_being_copied() {
    let _exclusive = BATCH_SIZED_TESTS.lock().unwrap();
    let (field, labels) = batch_1_5_mib();
    // Producer side: capture the tensors and encode for a gather write.
    let (segments, sending) = tally(|| streamed_batch(&field, &labels).encode_segments());
    assert!(
        sending.total < 4096,
        "building and encoding a {} B batch allocated {} B",
        field.view_bytes(),
        sending.total
    );
    // Consumer side: the frame as the socket hands it over, decoded and
    // rebuilt into tensors.
    let frame = Bytes::from(segments.concat());
    assert!(frame.len() > field.view_bytes());
    let (rebuilt, receiving) = tally(|| {
        let Ok(DataMsg::Batch(BatchAnnounce {
            content: AnnounceContent::Streamed { fields, labels },
            ..
        })) = DataMsg::decode_shared(&frame)
        else {
            panic!("not a streamed batch");
        };
        (
            fields[0].to_tensor(DeviceId::Cpu).unwrap(),
            labels.to_tensor(DeviceId::Cpu).unwrap(),
        )
    });
    assert!(
        receiving.total < 4096,
        "decoding and rebuilding allocated {} B",
        receiving.total
    );
    assert!(rebuilt.0.data_eq(&field) && rebuilt.1.data_eq(&labels));
    // A view that is not contiguous is the one thing still gathered.
    let strided = field.narrow(3, 0, 64).unwrap();
    let (_, gathered) = tally(|| StreamedTensor::from_tensor(&strided));
    assert!(gathered.total >= strided.view_bytes());
}

#[test]
fn a_frame_crosses_ipc_with_one_receive_buffer_and_no_send_buffer() {
    use std::sync::atomic::Ordering::SeqCst;
    use ts_socket::{Context, Multipart, PubSocket, SubSocket};
    let _exclusive = BATCH_SIZED_TESTS.lock().unwrap();
    let ctx = Context::new();
    let endpoint = format!(
        "ipc://{}",
        std::env::temp_dir()
            .join(format!("ts-copy-budget-{}.sock", std::process::id()))
            .display()
    );
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    let (field, labels) = batch_1_5_mib();
    let frames: Vec<Multipart> = (0..4)
        .map(|_| Multipart::chunked(streamed_batch(&field, &labels).encode_segments()))
        .collect();
    let expect = frames[0].clone().into_contiguous();
    // From here on every thread is watched: the writer thread of the
    // publisher, the reader thread of the subscriber, and this one.
    BATCH_SIZED_ALLOCATIONS.store(0, SeqCst);
    WATCHING_ALL_THREADS.store(true, SeqCst);
    for frame in frames {
        publisher.send(b"cons/1", frame).unwrap();
        let (_, got) = sub
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(got.frames()[0].len(), expect.byte_len());
        assert!(got == expect, "frame bytes differ");
    }
    WATCHING_ALL_THREADS.store(false, SeqCst);
    assert_eq!(
        BATCH_SIZED_ALLOCATIONS.load(SeqCst),
        4,
        "4 frames of {} B: one receive buffer each and nothing else",
        expect.byte_len()
    );
}

// ---------------------------------------------------------------------------
// tensor payload round trips
// ---------------------------------------------------------------------------

proptest! {
    /// pack → registry → unpack reproduces any narrow view bit-exactly.
    #[test]
    fn payload_pack_unpack_views(
        rows in 1usize..32,
        cols in 1usize..32,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let t = Tensor::rand_u8(&[rows, cols], DeviceId::Gpu(0), 99);
        let start = ((rows - 1) as f64 * start_frac) as usize;
        let len = 1 + ((rows - start - 1) as f64 * len_frac) as usize;
        let view = t.narrow(0, start, len).unwrap();
        let reg = SharedRegistry::new();
        reg.register(t.storage());
        let payload = TensorPayload::pack(&view);
        let decoded = TensorPayload::decode(&payload.encode()).unwrap();
        let rebuilt = decoded.unpack(&reg).unwrap();
        prop_assert!(rebuilt.data_eq(&view));
        prop_assert_eq!(rebuilt.storage_id(), t.storage_id());
    }
}

// ---------------------------------------------------------------------------
// dependent sampling (Joader)
// ---------------------------------------------------------------------------

proptest! {
    /// For aligned jobs the sampler loads each sample exactly once and
    /// delivers it to every job; per-job visit sets are exact permutations.
    #[test]
    fn dependent_sampler_exactness(len in 1usize..64, jobs in 1usize..5, seed in any::<u64>()) {
        let mut s = DependentSampler::new(len, seed);
        let ids: Vec<u64> = (0..jobs).map(|_| s.add_job()).collect();
        let mut per_job: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        while let Some(d) = s.next() {
            for j in &d.jobs {
                per_job.entry(*j).or_default().push(d.sample);
            }
        }
        prop_assert_eq!(s.loads(), len as u64);
        for id in ids {
            let mut visited = per_job.remove(&id).unwrap_or_default();
            visited.sort_unstable();
            prop_assert_eq!(visited, (0..len).collect::<Vec<_>>());
        }
        prop_assert!((s.sharing_factor() - jobs as f64).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// heartbeat monitor
// ---------------------------------------------------------------------------

proptest! {
    /// A consumer expires exactly once, only after silence longer than the
    /// timeout, and never while it keeps beating.
    #[test]
    fn heartbeat_expiry_is_correct_and_single(
        timeout in 1u64..1000,
        beats in prop::collection::vec((0u64..8, 0u64..10_000), 1..100)
    ) {
        use tensorsocket::HeartbeatMonitor;
        let mut hb = HeartbeatMonitor::new(timeout);
        let mut beats = beats;
        beats.sort_by_key(|&(_, t)| t);
        let mut last_seen: std::collections::HashMap<u64, u64> = Default::default();
        let mut expired: std::collections::HashSet<u64> = Default::default();
        let mut now = 0;
        for (id, t) in beats {
            now = t;
            // expiries the monitor reports at `now`
            for dead in hb.expire(now) {
                let silent_for = now - last_seen[&dead];
                prop_assert!(silent_for > timeout, "expired after only {silent_for}");
                prop_assert!(expired.insert(dead), "double expiry of {dead}");
            }
            if !expired.contains(&id) {
                hb.beat(id, now);
                last_seen.insert(id, now);
            }
        }
        // everyone still tracked is fresh within the timeout at `now`
        for (&id, &seen) in &last_seen {
            if !expired.contains(&id) && now.saturating_sub(seen) <= timeout {
                prop_assert!(hb.is_alive(id, now));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// rubberband policy
// ---------------------------------------------------------------------------

/// How a producer of one shard, with a consumer training, admits a join
/// after `published` of `batches` batches.
fn admit_alone(
    p: tensorsocket::RubberbandPolicy,
    published: u64,
    batches: u64,
) -> tensorsocket::protocol::rubberband::Admission {
    use tensorsocket::protocol::rubberband::{admission, ShardStand};
    admission([ShardStand {
        at_barrier: false,
        published,
        pinned: p.pinned_batches(batches),
        members: 1,
    }])
}

proptest! {
    /// Admission is monotone: if a join at progress p is deferred, any
    /// later join is deferred too; the pinned prefix always covers every
    /// admitted join.
    #[test]
    fn rubberband_admission_monotone(cutoff in 0.0f64..1.0, batches in 1u64..10_000) {
        use tensorsocket::protocol::rubberband::{Admission, RubberbandPolicy};
        let p = RubberbandPolicy { cutoff };
        let pinned = p.pinned_batches(batches);
        prop_assert!(pinned <= batches.max(1));
        let mut seen_wait = false;
        for published in 0..=batches.min(200) {
            match admit_alone(p, published, batches) {
                Admission::EpochStart => {
                    prop_assert!(!seen_wait, "admit after wait at {published}");
                    // everything the joiner must replay is pinned
                    prop_assert!(published <= pinned || published == 0);
                    prop_assert!(p.window_open(published, batches));
                }
                Admission::NextEpoch => {
                    seen_wait = true;
                }
                Admission::Current => prop_assert!(false, "somebody is training"),
            }
        }
    }

    /// The exact window boundary: a join arriving when `published ==
    /// pinned_batches` is the *last* one admitted — one batch later is
    /// deferred to the next epoch.
    #[test]
    fn rubberband_boundary_is_inclusive(cutoff in 0.0001f64..1.0, batches in 1u64..10_000) {
        use tensorsocket::protocol::rubberband::{Admission, RubberbandPolicy};
        let p = RubberbandPolicy { cutoff };
        let pinned = p.pinned_batches(batches);
        prop_assert!(pinned >= 1, "positive cutoff pins at least one batch");
        prop_assert_eq!(
            admit_alone(p, pinned, batches),
            Admission::EpochStart,
            "join at the boundary (published == pinned == {}) must be admitted", pinned
        );
        if pinned < batches {
            prop_assert_eq!(
                admit_alone(p, pinned + 1, batches),
                Admission::NextEpoch,
                "one past the boundary must wait"
            );
        }
    }

    /// Cutoffs at or above 1.0 keep the join window open for the whole
    /// epoch: every mid-epoch join is admitted with a full replay, and the
    /// pin set covers the entire epoch.
    #[test]
    fn rubberband_cutoff_at_least_one_admits_all_epoch(
        cutoff in 1.0f64..4.0,
        batches in 1u64..10_000,
        published_frac in 0.0f64..1.0,
    ) {
        use tensorsocket::protocol::rubberband::{Admission, RubberbandPolicy};
        let p = RubberbandPolicy { cutoff };
        prop_assert!(p.pinned_batches(batches) >= batches, "whole epoch stays pinned");
        let published = ((batches as f64) * published_frac) as u64;
        prop_assert_eq!(
            admit_alone(p, published, batches),
            Admission::EpochStart,
            "cutoff {} must admit a join at {}/{} batches", cutoff, published, batches
        );
        // ...including one arriving exactly at the last published batch.
        prop_assert_eq!(admit_alone(p, batches, batches), Admission::EpochStart);
    }
}

// ---------------------------------------------------------------------------
// ack cursors: release (§3.2.3) and the publish window (§3.2.5)
// ---------------------------------------------------------------------------

/// The reference for [`Cursors`]: the per-batch owner-set rule it
/// replaced. Every published batch remembers who still owes it an ack; a
/// joiner owes every batch from its start seq on, and a batch is released
/// when nobody owes it.
#[derive(Default)]
struct OwnerSets {
    members: Vec<u64>,
    owers: Vec<std::collections::HashSet<u64>>,
}

impl OwnerSets {
    fn publish(&mut self) {
        self.owers.push(self.members.iter().copied().collect());
    }

    fn join(&mut self, id: u64, at: u64) {
        self.members.push(id);
        for owers in &mut self.owers[at as usize..] {
            owers.insert(id);
        }
    }

    fn ack(&mut self, id: u64, seq: u64) {
        if let Some(owers) = self.owers.get_mut(seq as usize) {
            owers.remove(&id);
        }
    }

    fn leave(&mut self, id: u64) {
        self.members.retain(|&m| m != id);
        for owers in &mut self.owers {
            owers.remove(&id);
        }
    }

    fn released(&self) -> Vec<u64> {
        let seqs = self.owers.iter().enumerate();
        seqs.filter(|(_, o)| o.is_empty())
            .map(|(s, _)| s as u64)
            .collect()
    }
}

proptest! {
    /// Under random schedules of publishes, in-order, duplicate, stale and
    /// past-the-head acks, joins at the current seq and at an earlier one,
    /// and leaves, the cursor table releases exactly what the owner sets
    /// release, at the same step: after every step its released set
    /// (`seq < frontier`) is the model's, each range it returns is exactly
    /// what the step newly released, and every batch is released once per
    /// time it was held. No publish takes the slowest consumer past N.
    #[test]
    fn cursors_release_what_owner_sets_release(
        n in 1usize..5,
        first in 1u64..4,
        script in prop::collection::vec((0u8..8, 0usize..8, 0u64..64), 0..300)
    ) {
        use tensorsocket::Cursors;
        let mut table = Cursors::new(n);
        let mut model = OwnerSets::default();
        // Per member: the next seq it will ack, in delivery order.
        let mut next_ack: Vec<(u64, u64)> = Vec::new();
        let mut new_id = 0u64;
        for _ in 0..first {
            table.add(new_id, 0);
            model.join(new_id, 0);
            next_ack.push((new_id, 0));
            new_id += 1;
        }
        let mut held: Vec<u64> = Vec::new();
        let mut freed: Vec<u64> = Vec::new();
        for (op, pick, arg) in script {
            let before = model.released();
            let head = table.next_seq();
            let member = (!next_ack.is_empty()).then(|| pick % next_ack.len());
            let mut got = 0..0;
            match (op, member) {
                (0 | 1, _) if table.can_publish() => {
                    prop_assert_eq!(table.published(), head);
                    model.publish();
                    held.push(1);
                    freed.push(0);
                    prop_assert!(table.outstanding() <= n as u64, "past the window");
                }
                (2 | 3, Some(m)) if next_ack[m].1 < head => {
                    let (id, seq) = next_ack[m];
                    next_ack[m].1 += 1;
                    model.ack(id, seq);
                    got = table.ack(id, seq).expect("published");
                }
                (4, Some(m)) if next_ack[m].1 > 0 => {
                    // a duplicate (`next - 1`) or stale ack
                    let (id, next) = next_ack[m];
                    let seq = next - 1 - arg % next;
                    model.ack(id, seq);
                    got = table.ack(id, seq).expect("published");
                }
                (5, Some(m)) => {
                    let id = next_ack[m].0;
                    prop_assert_eq!(table.ack(id, head + arg), None, "past the head");
                }
                (6, _) if next_ack.len() < 6 => {
                    let at = if pick % 2 == 0 { head } else { arg % (head + 1) };
                    let rehold = at..table.frontier().max(at);
                    for seq in rehold {
                        held[seq as usize] += 1;
                    }
                    table.add(new_id, at);
                    model.join(new_id, at);
                    next_ack.push((new_id, at));
                    new_id += 1;
                }
                (7, Some(m)) => {
                    let (id, _) = next_ack.swap_remove(m);
                    model.leave(id);
                    got = table.remove(id);
                }
                _ => {}
            }
            let after = model.released();
            prop_assert_eq!(&after, &(0..table.frontier()).collect::<Vec<_>>());
            let newly: Vec<u64> = after.iter().filter(|s| !before.contains(s)).copied().collect();
            prop_assert_eq!(got.clone().collect::<Vec<_>>(), newly);
            for seq in got {
                freed[seq as usize] += 1;
                prop_assert!(freed[seq as usize] <= held[seq as usize], "double release of {}", seq);
            }
        }
        // Everyone leaves: whatever was still held goes, once.
        for (id, _) in next_ack {
            for seq in table.remove(id) {
                freed[seq as usize] += 1;
            }
        }
        prop_assert_eq!(table.outstanding(), 0);
        prop_assert_eq!(freed, held, "released once per hold");
    }
}

proptest! {
    /// Under arbitrary interleavings of publishes and per-consumer in-order
    /// acks, no consumer ever holds more than N outstanding batches and
    /// drift, the gap between the fastest and the slowest consumer, stays
    /// within N.
    #[test]
    fn window_bounds_drift(
        n in 1usize..5,
        consumers in 1usize..5,
        script in prop::collection::vec((0usize..5usize, prop::bool::ANY), 1..200)
    ) {
        use tensorsocket::Cursors;
        let mut w = Cursors::new(n);
        for c in 0..consumers {
            w.add(c as u64, 0);
        }
        let mut acked = vec![0u64; consumers];
        for (pick, do_publish) in script {
            if do_publish && w.can_publish() {
                w.published();
            } else {
                let c = pick % consumers;
                if acked[c] < w.next_seq() {
                    prop_assert!(w.ack(c as u64, acked[c]).is_some());
                    acked[c] += 1;
                }
            }
            prop_assert!(w.outstanding() <= n as u64);
            for &a in &acked {
                prop_assert!(w.next_seq() - a <= n as u64, "a consumer holds more than N");
            }
            let drift = acked.iter().max().unwrap() - acked.iter().min().unwrap();
            prop_assert!(drift <= n as u64);
        }
    }
}

proptest! {
    /// Every batch is released exactly once, regardless of the ack/detach
    /// interleaving, and only after every surviving consumer acked it.
    /// Acks are cumulative, so an ack of `seq` covers every seq before it.
    #[test]
    fn ack_tracker_releases_exactly_once(
        consumers in 1usize..5,
        batches in 1u64..20,
        script in prop::collection::vec((0usize..5usize, 0u64..20u64, prop::bool::ANY), 0..300)
    ) {
        use tensorsocket::Cursors;
        let mut t = Cursors::new(batches as usize);
        for c in 0..consumers as u64 {
            t.add(c, 0);
        }
        for seq in 0..batches {
            prop_assert_eq!(t.published(), seq);
        }
        // Per consumer: the first seq it has not acked.
        let mut acked_through = vec![0u64; consumers];
        let mut released: std::collections::HashSet<u64> = Default::default();
        let mut detached: std::collections::HashSet<u64> = Default::default();
        for (c, seq, detach) in script {
            let c = (c % consumers) as u64;
            if detached.contains(&c) {
                continue;
            }
            let freed = if detach {
                detached.insert(c);
                t.remove(c)
            } else {
                let seq = seq % batches;
                let through = &mut acked_through[c as usize];
                *through = (*through).max(seq + 1);
                t.ack(c, seq).expect("published")
            };
            for seq in freed {
                prop_assert!(released.insert(seq), "double release of {}", seq);
                for s in (0..consumers as u64).filter(|s| !detached.contains(s)) {
                    prop_assert!(acked_through[s as usize] > seq, "{} released before {} acked it", seq, s);
                }
            }
        }
        // finish everything: detach all remaining consumers
        for c in 0..consumers as u64 {
            if !detached.contains(&c) {
                for seq in t.remove(c) {
                    prop_assert!(released.insert(seq), "double release of {}", seq);
                }
            }
        }
        prop_assert_eq!(released.len() as u64, batches, "all batches released");
        prop_assert_eq!(t.outstanding(), 0);
    }
}

// ---------------------------------------------------------------------------
// shard partitioning (multi-producer sharding)
// ---------------------------------------------------------------------------

proptest! {
    /// For shard counts {1, 2, 3, 5}: the union of the shards' partitions
    /// is exactly the unsharded epoch permutation — no duplicates, no
    /// drops — including uneven `len % shards != 0` tails, and every
    /// shard's slice is balanced to within one sample.
    #[test]
    fn shard_partitions_are_a_permutation(len in 1usize..200, seed in any::<u64>(), epoch in 0u64..5) {
        use std::sync::Arc;
        use ts_data::{Sampler, ShardedSampler, ShuffleSampler};
        let inner: Arc<dyn Sampler> = Arc::new(ShuffleSampler { seed });
        let full = inner.epoch_indices(epoch, len);
        for count in [1usize, 2, 3, 5] {
            let mut union: Vec<usize> = Vec::new();
            for shard in 0..count {
                let s = ShardedSampler { inner: inner.clone(), shard, count };
                let part = s.epoch_indices(epoch, len);
                prop_assert!(
                    part.len() >= len / count && part.len() <= len / count + 1,
                    "unbalanced shard {shard}/{count}: {} of {len}", part.len()
                );
                union.extend(part);
            }
            // Concatenation reproduces the full permutation exactly: the
            // shards are disjoint AND complete.
            prop_assert_eq!(&union, &full, "count {}", count);
        }
    }

    /// Sharding commutes with determinism: the same (seed, epoch, shard)
    /// always yields the same slice, and shard 0 of 1 IS the permutation.
    #[test]
    fn shard_slices_are_deterministic(len in 1usize..100, seed in any::<u64>()) {
        use std::sync::Arc;
        use ts_data::{Sampler, ShardedSampler, ShuffleSampler};
        let inner: Arc<dyn Sampler> = Arc::new(ShuffleSampler { seed });
        let one = ShardedSampler { inner: inner.clone(), shard: 0, count: 1 };
        prop_assert_eq!(one.epoch_indices(2, len), inner.epoch_indices(2, len));
        let s = ShardedSampler { inner: inner.clone(), shard: 1, count: 3 };
        prop_assert_eq!(s.epoch_indices(4, len), s.epoch_indices(4, len));
    }
}

// ---------------------------------------------------------------------------
// the (epoch, shard, seq) interleave
// ---------------------------------------------------------------------------

proptest! {
    /// Driving a ShardInterleave over shards with arbitrary (uneven)
    /// per-epoch batch counts delivers every announcement exactly once,
    /// in exactly the (epoch, index, shard) sort order — the contract
    /// that makes a sharded group's merged stream bit-stable.
    #[test]
    fn shard_interleave_is_the_sorted_order(
        counts in prop::collection::vec(1u64..6, 1..5),
        epochs in 1u64..4,
    ) {
        use tensorsocket::ShardInterleave;
        let mut il = ShardInterleave::new(vec![(0, 0); counts.len()]);
        let mut delivered: Vec<(u64, u64, usize)> = Vec::new();
        while let Some(s) = il.next_shard() {
            let (epoch, index) = il.cursor(s).unwrap();
            if epoch == epochs {
                il.end_shard(s);
                continue;
            }
            delivered.push((epoch, index, s));
            il.advance(s, index + 1 == counts[s]);
        }
        prop_assert!(il.all_ended());
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&delivered, &sorted, "delivery must be the (epoch, index, shard) sort");
        prop_assert_eq!(delivered.len() as u64, epochs * counts.iter().sum::<u64>());
        // exactly once: sorted order has no duplicates
        let mut dedup = sorted.clone();
        dedup.dedup();
        prop_assert_eq!(sorted.len(), dedup.len());
    }

    /// Mid-epoch starts (a rubberband joiner's per-shard replay_from
    /// positions) still produce the sorted order over what remains.
    #[test]
    fn shard_interleave_mid_epoch_starts(
        starts in prop::collection::vec(0u64..4, 1..5),
        count in 4u64..8,
    ) {
        use tensorsocket::ShardInterleave;
        let cursors: Vec<(u64, u64)> = starts.iter().map(|&i| (0u64, i)).collect();
        let mut il = ShardInterleave::new(cursors);
        let mut delivered: Vec<(u64, u64, usize)> = Vec::new();
        while let Some(s) = il.next_shard() {
            let (epoch, index) = il.cursor(s).unwrap();
            if epoch == 1 {
                il.end_shard(s);
                continue;
            }
            delivered.push((epoch, index, s));
            il.advance(s, index + 1 == count);
        }
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&delivered, &sorted);
        let expected: u64 = starts.iter().map(|&i| count - i).sum();
        prop_assert_eq!(delivered.len() as u64, expected);
    }
}

// ---------------------------------------------------------------------------
// group rubberband admission (one decision for every shard)
// ---------------------------------------------------------------------------

proptest! {
    /// Group join decisions are consistent: whichever shard decides — the
    /// stands in any order — the group gets one answer, it admits from the
    /// epoch's start only while every shard's join window is open (so
    /// every shard still pins the prefix it replays), and with somebody
    /// training on any shard it never admits at the current position.
    #[test]
    fn coordinator_admissions_are_consistent_and_pin_preserving(
        shards in 2usize..5,
        pin_limit in 1u64..6,
        progress in prop::collection::vec(0u64..8, 2..5),
        first in 0usize..5,
    ) {
        use tensorsocket::protocol::rubberband::{admission, Admission, ShardStand, RubberbandPolicy};
        let shards = shards.min(progress.len());
        let policy = RubberbandPolicy { cutoff: 1.0 };
        // Somebody is training, on the last shard only: the group's fact.
        let stands: Vec<ShardStand> = (0..shards)
            .map(|s| ShardStand {
                at_barrier: false,
                published: progress[s],
                pinned: pin_limit,
                members: usize::from(s + 1 == shards),
            })
            .collect();
        let decided = admission(stands.iter().copied());
        // Consistency: the shard that sees the join first goes first.
        let first = first % shards;
        let rotated = stands[first..].iter().chain(&stands[..first]).copied();
        prop_assert_eq!(admission(rotated), decided);
        prop_assert_eq!(admission(stands.iter().rev().copied()), decided);
        let all_within = stands.iter().all(|s| s.published <= s.pinned);
        match decided {
            Admission::EpochStart => {
                prop_assert!(all_within, "admitted although a shard passed its pin window");
                // Every shard still pins the prefix it replays: a shard
                // pins while `window_open` holds for it (at cutoff 1.0 an
                // epoch of `pin_limit` batches pins them all).
                prop_assert_eq!(policy.pinned_batches(pin_limit), pin_limit);
                for s in &stands {
                    prop_assert!(policy.window_open(s.published, pin_limit));
                }
            }
            Admission::NextEpoch => {
                prop_assert!(!all_within, "deferred although every shard was within its window");
            }
            Admission::Current => prop_assert!(false, "a shard has a consumer"),
        }
    }

    /// Once any shard waits at the next epoch's barrier, new joins are
    /// deferred to the epoch it opens — whatever the others' windows and
    /// members say — so no shard admits into an epoch another finished.
    #[test]
    fn coordinator_defers_joins_across_the_boundary(
        shards in 2usize..5,
        pin_limit in 1u64..6,
        arrived in 0usize..5,
        progress in prop::collection::vec(0u64..8, 5..6),
        members in prop::collection::vec(0usize..3, 5..6),
    ) {
        use tensorsocket::protocol::rubberband::{admission, Admission, ShardStand};
        let arrived = arrived % shards;
        let stands = (0..shards).map(|s| ShardStand {
            at_barrier: s == arrived,
            published: progress[s],
            pinned: pin_limit,
            members: members[s],
        });
        prop_assert_eq!(admission(stands.clone()), Admission::NextEpoch);
        // The others' windows open or not, trained on or not: it is the
        // barrier that decides.
        let fresh = stands.map(|s| ShardStand { published: 0, members: 0, ..s });
        prop_assert_eq!(admission(fresh), Admission::NextEpoch);
    }
}

// ---------------------------------------------------------------------------
// dependent sampler with staggered joins
// ---------------------------------------------------------------------------

proptest! {
    /// With a job joining mid-epoch, every job still visits every sample
    /// exactly once, and total loads never exceed the naive per-job sum.
    #[test]
    fn dependent_sampler_staggered_join(len in 2usize..48, head_start in 0usize..48, seed in any::<u64>()) {
        let head_start = head_start.min(len);
        let mut s = DependentSampler::new(len, seed);
        let a = s.add_job();
        for _ in 0..head_start {
            s.next();
        }
        let b = s.add_job();
        let mut visits: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        while let Some(d) = s.next() {
            for j in d.jobs {
                visits.entry(j).or_default().push(d.sample);
            }
        }
        // job a already visited head_start samples before we tracked
        let a_remaining = visits.remove(&a).unwrap_or_default();
        prop_assert_eq!(a_remaining.len(), len - head_start);
        let mut b_all = visits.remove(&b).unwrap_or_default();
        b_all.sort_unstable();
        b_all.dedup();
        prop_assert_eq!(b_all.len(), len, "job b visits everything exactly once");
        // sharing saves loads: loads <= 2*len - shared overlap
        prop_assert!(s.loads() <= (2 * len) as u64);
        prop_assert!(s.loads() >= len as u64);
    }
}
