//! Wire messages and their binary codec.
//!
//! Two channels, as in the paper (§3.2.3):
//!
//! * **data** (PUB → SUB): [`DataMsg`] — epoch markers, batch announcements
//!   carrying [`ts_tensor::TensorPayload`]s (pointers, not data), join
//!   replies and detach notices;
//! * **control** (PUSH → PULL): [`CtrlMsg`] — joins, readiness, acks,
//!   heartbeats and leaves from consumers.
//!
//! A message is its type definition, its tag and one field list (the
//! "wire layouts" section below); the crate-private `wire` module turns
//! the list into the little-endian codec. No serde — messages are small
//! and the layout is part of the reproduction (payload size must not scale
//! with batch size).
//!
//! One version, [`WIRE_VERSION`], and one compatibility rule — trailing
//! bytes, unknown tags and unknown capability bits are ignored, anything
//! else bumps the version — stated in full in the crate docs' *Wire
//! contract* section. To add a message: define the variant, pick the next
//! free tag, and add one line to the enum's field list (new fields of an
//! existing message go at the end of its list).

use super::wire::{get_len, put_len, wire_enum, wire_struct, Reader, Sink, Wire};
use crate::{Result, TsError};
use bytes::{BufMut, Bytes};
use ts_tensor::TensorPayload;

/// Topic names used on the data socket.
pub mod topics {
    /// Shared batch announcements (default mode).
    pub const BATCH: &[u8] = b"batch";
    /// Broadcast control notices (epoch start, end, detach).
    pub const CTRL: &[u8] = b"ctrl";
    /// Coalesced publish-cursor announcements ([`super::DataMsg::Cursor`]):
    /// latest-wins *state*, re-broadcast at a bounded cadence rather than
    /// per event. A consumer that subscribes sees where each shard's
    /// stream currently stands; it is never guaranteed to see (and after
    /// a stall will provably *not* see) the intermediate cursors.
    pub const CURSOR: &[u8] = b"cur";

    /// Per-consumer topic (join replies, replays, flexible-mode batches).
    pub fn consumer(id: u64) -> Vec<u8> {
        format!("cons/{id}").into_bytes()
    }

    /// Per-handshake topic ([`super::DataMsg::Welcome`] replies to a
    /// [`super::CtrlMsg::Hello`], keyed by the caller's one-shot token).
    pub fn hello(token: u64) -> Vec<u8> {
        format!("hs/{token}").into_bytes()
    }

    /// Per-scrape topic ([`super::DataMsg::Stats`] replies to a
    /// [`super::CtrlMsg::StatsRequest`], keyed by the caller's one-shot
    /// token — same stateless pattern as the attach handshake).
    pub fn stats(token: u64) -> Vec<u8> {
        format!("st/{token}").into_bytes()
    }

    /// Per-scrape topic ([`super::DataMsg::Trace`] replies to a
    /// [`super::CtrlMsg::TraceRequest`], keyed by the caller's one-shot
    /// token — the flight-recorder sibling of [`stats`]).
    pub fn trace(token: u64) -> Vec<u8> {
        format!("tr/{token}").into_bytes()
    }
}

/// The one version of everything on the wire — the attach handshake, the
/// stats and trace scrapes and every message layout (see the module
/// docs' *Wire contract*). Carried at the head of each token-exchange
/// request and reply; the client side decides compatibility.
pub const WIRE_VERSION: u32 = 4;

/// `Hello` capability bits: what the consumer can do, declared before it
/// knows anything about the producer. Unknown bits are ignored and
/// counted (`producer.hello_unknown_caps`), never an error.
pub mod caps {
    /// The consumer can map a shared-memory arena on this host.
    pub const SHM: u32 = 1 << 0;
    /// The consumer can receive length-prefixed streamed payload bytes
    /// over the data socket (the remote-host path).
    pub const STREAM: u32 = 1 << 1;
    /// Every capability bit this build understands.
    pub const KNOWN: u32 = SHM | STREAM;
}

/// How batch payload bytes reach one consumer — negotiated **per
/// consumer** at attach time, not fixed at build time.
/// A consumer that proves it can open the advertised arena gets
/// pointer-passing; one that cannot (a remote host) gets its batches
/// streamed as length-prefixed bytes on its private topic, behind the
/// same [`DataMsg::Batch`] contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PayloadMode {
    /// Shm pointer-passing: a tiny announce carrying arena placements.
    #[default]
    Shm,
    /// Length-prefixed byte streaming over the data socket.
    Stream,
}

impl PayloadMode {
    /// The [`caps`] bit (and WELCOME grant bit) for this mode.
    pub fn cap_bit(self) -> u32 {
        match self {
            PayloadMode::Shm => caps::SHM,
            PayloadMode::Stream => caps::STREAM,
        }
    }
}

/// The shared-memory arena advertisement inside a [`WelcomeInfo`]: the
/// backing file path plus slot geometry, so a consumer process maps the
/// producer's arena with zero out-of-band configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaAd {
    /// Path of the arena's backing file on the shared host.
    pub path: String,
    /// Number of slots.
    pub nslots: u64,
    /// Capacity of each slot in bytes.
    pub slot_size: u64,
}

/// The durable batch log advertisement inside a [`WelcomeInfo`]: the
/// producer keeps an on-disk log of published
/// batches and can serve [`CtrlMsg::Replay`] requests over the retained
/// sequence range. The range is a snapshot taken when the WELCOME was
/// built — retention and appends move it — so consumers treat it as a
/// hint; the authoritative replay start arrives in [`DataMsg::LogInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogAd {
    /// Oldest retained global sequence number at WELCOME time.
    pub retained_min: u64,
    /// Newest retained global sequence number at WELCOME time.
    pub retained_max: u64,
}

/// Where a [`CtrlMsg::Replay`] wants its log-backed stream to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayFrom {
    /// The group's persisted cursor — the batch after the last one any
    /// member of the group acknowledged; the oldest retained record when
    /// the group has no cursor yet. This is the crash-restart resume
    /// point.
    #[default]
    Cursor,
    /// The oldest retained record, regardless of any cursor.
    Oldest,
    /// An explicit global sequence number (clamped to the retained
    /// range by the producer).
    Seq(u64),
}

/// Everything a consumer learns from the attach handshake: the producer
/// answers a [`CtrlMsg::Hello`] with this self-description, and the
/// consumer derives all remaining configuration from it — shard count
/// (and with the base endpoint, every shard's data/ctrl endpoint via
/// `ts_socket::EndpointMap`), the arena placement, and the batch schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WelcomeInfo {
    /// The producer's [`WIRE_VERSION`].
    pub version: u32,
    /// Shard pipelines in the topology (1 for a plain producer).
    pub shards: u32,
    /// Loader batch size (samples per announcement in default mode).
    pub batch_size: u32,
    /// Producer batch size under flexible sizing; 0 in default mode.
    pub flex_producer_batch: u32,
    /// Wire code of the producer's device-staging shape: always `2`, the
    /// copy stage. Informational: nothing reads it.
    pub staging: u8,
    /// The shared-memory arena, when one backs the payload path.
    pub arena: Option<ArenaAd>,
    /// Sparse `(shard, base URI)` endpoint overrides: shards whose base
    /// endpoint is *not* derived from the base URI by scheme rules —
    /// e.g. a shard pipeline on another host.
    pub endpoint_overrides: Vec<(u32, String)>,
    /// Bitmask ([`caps`] bits) of payload modes the producer can serve
    /// this consumer.
    pub payload_modes: u32,
    /// The durable batch log, when the producer keeps a healthy one. A
    /// logging producer that has not retained anything
    /// yet advertises the *inverted* range `retained_min > retained_max`
    /// (canonically `{1, 0}`) — "log enabled, nothing stored" — so group
    /// consumers still send [`CtrlMsg::Replay`] and register their
    /// cursors from the very first batch.
    pub log: Option<LogAd>,
}

/// Messages consumers push to the producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Request to join with the desired consumer batch size.
    Join {
        /// Self-assigned consumer id (random u64).
        consumer_id: u64,
        /// Desired batch size (only meaningful under flexible sizing).
        batch_size: u32,
        /// The payload mode this consumer selected after the handshake.
        mode: PayloadMode,
    },
    /// The consumer subscribed to the batch topic and is ready to receive.
    Ready {
        /// Consumer id.
        consumer_id: u64,
    },
    /// The consumer finished batch `seq` (global sequence number).
    Ack {
        /// Consumer id.
        consumer_id: u64,
        /// Global batch sequence number.
        seq: u64,
    },
    /// Liveness signal.
    Heartbeat {
        /// Consumer id.
        consumer_id: u64,
    },
    /// Clean departure.
    Leave {
        /// Consumer id.
        consumer_id: u64,
    },
    /// Attach handshake: "describe yourself". Sent to the *base* control
    /// endpoint before anything else; the producer answers with a
    /// [`DataMsg::Welcome`] on the [`topics::hello`] topic of `token`.
    /// Stateless on the producer side — a consumer that missed the reply
    /// (subscription still propagating on remote transports) simply
    /// retries with the same token.
    Hello {
        /// One-shot reply-routing token chosen by the caller (not a
        /// consumer id; the real join happens afterwards).
        token: u64,
        /// The caller's [`WIRE_VERSION`].
        version: u32,
        /// Capability bitfield ([`caps`]).
        caps: u32,
    },
    /// Observability scrape: "report your metrics". Stateless like
    /// [`CtrlMsg::Hello`] — answered with a [`DataMsg::Stats`] on the
    /// [`topics::stats`] topic of `token` from every producer wait loop;
    /// a scraper that missed the reply retries with the same token.
    StatsRequest {
        /// One-shot reply-routing token chosen by the scraper.
        token: u64,
        /// The scraper's [`WIRE_VERSION`].
        version: u32,
        /// Per-attempt stamp: incremented on every resend of the same
        /// token, echoed in [`DataMsg::Stats::seq`] so stale duplicate
        /// replies are identifiable.
        seq: u32,
    },
    /// Flight-recorder scrape: "report your last completed batch
    /// timelines". Stateless like [`CtrlMsg::StatsRequest`] — answered
    /// with a [`DataMsg::Trace`] on the [`topics::trace`] topic of
    /// `token` from every producer wait loop.
    TraceRequest {
        /// One-shot reply-routing token chosen by the scraper.
        token: u64,
        /// The scraper's [`WIRE_VERSION`].
        version: u32,
        /// Per-attempt stamp, echoed in [`DataMsg::Trace::seq`] exactly
        /// like the stats exchange's.
        seq: u32,
        /// Most completed records the scraper wants (the producer may
        /// cap it further).
        max: u32,
    },
    /// Ask for a log-backed replay stream. Sent
    /// after the Join/Ready exchange by a consumer whose WELCOME carried
    /// a [`LogAd`]. The producer registers `group`, resolves the actual
    /// start (cursor/oldest/explicit, clamped to the retained range and
    /// to the consumer's live-stream start), answers with a
    /// [`DataMsg::LogInfo`] on the consumer's private topic, then streams
    /// the log range as ordinary streamed-payload batch announcements.
    /// Stateless against duplicates: a re-sent `Replay` for a consumer
    /// whose stream is already running or done only re-sends the
    /// `LogInfo`.
    Replay {
        /// Consumer id (already joined).
        consumer_id: u64,
        /// Named consumer group whose persisted cursor scopes the replay
        /// and advances with this consumer's acks.
        group: String,
        /// Requested start position.
        from: ReplayFrom,
    },
    /// A control frame whose tag this build does not know. Produced only
    /// by [`CtrlMsg::decode`] for forward compatibility: a producer
    /// receiving a message from a newer peer logs-and-ignores it instead
    /// of failing with a wire error.
    Unknown {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

/// The producer's decision on a join request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinDecision {
    /// Admitted into the running epoch; batches `replay_from..` of `epoch`
    /// will be (re)sent on the consumer's private topic (rubberbanding).
    AdmitReplay {
        /// Epoch being joined.
        epoch: u64,
        /// First epoch-batch index that will be replayed.
        replay_from: u64,
        /// Batches in this epoch.
        num_batches: u64,
        /// Global sequence number of the epoch's first batch; the consumer
        /// starts expecting this and deduplicates replays against live
        /// announcements with it.
        start_seq: u64,
    },
    /// Admission deferred to the start of `epoch`.
    WaitEpoch {
        /// Epoch at which the consumer will be admitted.
        epoch: u64,
    },
    /// Join rejected (e.g. batch-size mismatch in default mode).
    Reject {
        /// Human-readable reason.
        reason: String,
    },
}

/// One consumer batch under flexible sizing: per-field segment payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexBatchPayload {
    /// For each tensor field, the segments composing this batch.
    pub fields: Vec<Vec<TensorPayload>>,
    /// Label segments.
    pub labels: Vec<TensorPayload>,
}

/// One tensor shipped as raw bytes (streamed payload mode): dtype,
/// shape, and the dense row-major bytes — everything a remote consumer
/// needs to rebuild the tensor without mapping the arena.
///
/// `bytes` is borrowed at both ends. On the producer it shares the
/// tensor's own storage; on the consumer it is a slice of the received
/// frame, and the rebuilt tensor is a view of that slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedTensor {
    /// Element type.
    pub dtype: ts_tensor::DType,
    /// Dense row-major shape.
    pub shape: Vec<u64>,
    /// The tensor's bytes, length-prefixed on the wire.
    pub bytes: Bytes,
}

impl StreamedTensor {
    /// Captures `tensor` as dense row-major bytes for streaming. A
    /// contiguous view is borrowed: `bytes` holds a reference to the
    /// tensor's storage (for a tensor collated into an arena slot, a read
    /// reference on the slot, like a consumer's view) and nothing is
    /// copied. Only a non-contiguous view is gathered into a new buffer.
    pub fn from_tensor(tensor: &ts_tensor::Tensor) -> Self {
        Self {
            dtype: tensor.dtype(),
            shape: tensor.shape().iter().map(|&d| d as u64).collect(),
            bytes: tensor
                .shared_bytes()
                .unwrap_or_else(|_| Bytes::from(tensor.gather_bytes())),
        }
    }

    /// Rebuilds the tensor on `device` (host memory; the consumer stages
    /// it onward exactly like an arena-unpacked tensor) as a view of
    /// `bytes`: no copy, and `bytes`' buffer lives as long as the tensor.
    pub fn to_tensor(&self, device: ts_device::DeviceId) -> Result<ts_tensor::Tensor> {
        let shape = self
            .shape
            .iter()
            .map(|&d| usize::try_from(d))
            .collect::<std::result::Result<Vec<usize>, _>>()
            .map_err(|e| TsError::Wire(format!("streamed tensor shape: {e}")))?;
        ts_tensor::Tensor::from_shared_bytes(self.bytes.clone(), self.dtype, &shape, device)
            .map_err(|e| TsError::Wire(format!("streamed tensor: {e}")))
    }
}

/// What a batch announcement carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnounceContent {
    /// Default mode: every consumer trains on the same tensors.
    Shared {
        /// Collated tensor fields.
        fields: Vec<TensorPayload>,
        /// Labels.
        labels: TensorPayload,
    },
    /// Flexible mode: this consumer's carved batches for one producer batch.
    Flex {
        /// The consumer batches, in visit order.
        batches: Vec<FlexBatchPayload>,
    },
    /// Streamed mode: the batch's bytes themselves, length-prefixed, for
    /// consumers that cannot map the arena (remote hosts). Sent on the
    /// consumer's private topic; rides the same [`DataMsg::Batch`]
    /// contract as the other kinds, so a future RDMA/ucx bulk transport
    /// can replace the byte transport without a version bump.
    Streamed {
        /// Collated tensor fields, as raw bytes.
        fields: Vec<StreamedTensor>,
        /// Labels, as raw bytes.
        labels: StreamedTensor,
    },
}

/// A batch announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAnnounce {
    /// Global (cross-epoch) sequence number; acks reference this.
    pub seq: u64,
    /// Epoch the batch belongs to.
    pub epoch: u64,
    /// Batch index within the epoch.
    pub index_in_epoch: u64,
    /// True for the epoch's final batch.
    pub last_in_epoch: bool,
    /// Payload content.
    pub content: AnnounceContent,
}

/// Messages the producer publishes on the data socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataMsg {
    /// A new epoch begins.
    EpochStart {
        /// Epoch number.
        epoch: u64,
        /// Batches the epoch will publish.
        num_batches: u64,
    },
    /// A batch announcement.
    Batch(BatchAnnounce),
    /// Reply to a join request (sent on the consumer's private topic).
    JoinReply {
        /// The consumer being answered.
        consumer_id: u64,
        /// The decision.
        decision: JoinDecision,
    },
    /// The producer detached a consumer (missed heartbeats).
    Detached {
        /// The detached consumer.
        consumer_id: u64,
    },
    /// All epochs complete; the producer is shutting down.
    End,
    /// Reply to a [`CtrlMsg::Hello`], published on the hello token's
    /// topic: the producer's self-description, from which a consumer
    /// derives every attach parameter (see [`WelcomeInfo`]).
    Welcome {
        /// The hello token being answered.
        token: u64,
        /// The topology self-description.
        info: WelcomeInfo,
    },
    /// Reply to a [`CtrlMsg::StatsRequest`], published on the stats
    /// token's topic: a wire-encoded snapshot of the producer's metrics
    /// registry, histogram buckets included.
    Stats {
        /// The stats token being answered.
        token: u64,
        /// The metrics snapshot.
        payload: StatsPayload,
        /// Echo of the request's per-attempt stamp
        /// ([`CtrlMsg::StatsRequest::seq`]). The scraper only accepts the
        /// stamp it currently has in flight, so a duplicate answer to a
        /// resent round cannot be mistaken for a fresh snapshot.
        seq: u32,
    },
    /// Coalesced publish-cursor announcement on [`topics::CURSOR`]:
    /// where shard `shard`'s stream currently stands. This is *state*,
    /// not an event — the producer collapses per-publish updates through
    /// a latest-wins cell ([`ts_socket::coalesce`]) and broadcasts at a
    /// bounded cadence, so a consumer waking from a stall reads one
    /// current cursor instead of a backlog. Consumers must not infer
    /// batch delivery from it; it only bounds how far behind they are.
    Cursor {
        /// The announcing shard.
        shard: u32,
        /// Epoch the cursor is in.
        epoch: u64,
        /// Global sequence number of the latest announcement published.
        seq: u64,
        /// Batch index within the epoch of that announcement.
        index_in_epoch: u64,
    },
    /// Reply to a [`CtrlMsg::TraceRequest`], published on the trace
    /// token's topic: the flight recorder's most recently completed
    /// batch records.
    Trace {
        /// The trace token being answered.
        token: u64,
        /// The trace records.
        payload: TracePayload,
        /// Echo of the request's per-attempt stamp (same duplicate
        /// protection as [`DataMsg::Stats::seq`]).
        seq: u32,
    },
    /// Reply to a [`CtrlMsg::Replay`], published
    /// on the consumer's private topic: the producer's binding decision
    /// on where the log-backed stream starts and where it hands over to
    /// the live stream. `start_seq` is the first replayed sequence
    /// number; `live_seq` is the consumer's live-stream start recorded
    /// at admission — the replay covers `start_seq..live_seq` and the
    /// live subscription covers `live_seq..`, so the spliced stream is
    /// gapless and duplicate-free by construction. When
    /// `start_seq == live_seq` there is nothing to replay (fresh group
    /// at the stream head).
    LogInfo {
        /// The consumer being answered.
        consumer_id: u64,
        /// First sequence number the log replay will send.
        start_seq: u64,
        /// Epoch of `start_seq` (cutover cursor for the interleave).
        start_epoch: u64,
        /// Index-in-epoch of `start_seq`.
        start_index: u64,
        /// First sequence number the *live* stream will deliver; the
        /// replay stops just before it.
        live_seq: u64,
        /// Oldest retained sequence number at reply time.
        retained_min: u64,
        /// Newest retained sequence number at reply time.
        retained_max: u64,
    },
    /// A data frame whose tag this build does not know. Produced only by
    /// [`DataMsg::decode`] for forward compatibility: a consumer
    /// receiving a frame from a newer producer logs-and-ignores it
    /// (counted as `consumer.data_unknown`) instead of wedging the
    /// stream.
    Unknown {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

/// A wire-portable snapshot of a [`ts_metrics::Registry`]: every counter,
/// gauge and histogram, each list deterministically sorted by name.
///
/// Gauges travel as raw `f64` bit patterns (`gauge_bits`) so the message
/// stays byte-exact and `Eq`; [`StatsPayload::gauges`] decodes them back.
/// Histograms ship their sparse bucket lists, so the scraper can compute
/// any quantile (or merge shards) without the producer pre-aggregating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsPayload {
    /// The producer's [`WIRE_VERSION`].
    pub version: u32,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values as `f64::to_bits`, sorted by name.
    pub gauge_bits: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, ts_metrics::HistogramSnapshot)>,
    /// Producer wall-clock uptime in nanoseconds at snapshot time. Lets
    /// `ts-top` show "up 4m12s" and distinguishes a freshly restarted
    /// producer from a long-lived one.
    pub uptime_ns: u64,
    /// Monotonic snapshot timestamp in nanoseconds, on the producer's
    /// flight-recorder clock. Two snapshots' counter deltas divided by
    /// their `snapshot_ns` delta give exact rates regardless of scrape
    /// jitter.
    pub snapshot_ns: u64,
    /// The stall watchdog's last verdict (empty when no stall has been
    /// detected).
    pub verdict: String,
}

impl StatsPayload {
    /// Captures `metrics` into a wire-portable payload stamped with this
    /// build's [`WIRE_VERSION`].
    pub fn from_registry(metrics: &ts_metrics::Registry) -> Self {
        let snap = metrics.snapshot();
        Self {
            version: WIRE_VERSION,
            counters: snap.counters,
            gauge_bits: snap
                .gauges
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect(),
            histograms: snap.histograms,
            // Runtime state, not registry state: the producer's reply
            // path fills these in before encoding.
            uptime_ns: 0,
            snapshot_ns: 0,
            verdict: String::new(),
        }
    }

    /// Gauge values decoded back to `f64`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.gauge_bits
            .iter()
            .map(|(k, bits)| (k.clone(), f64::from_bits(*bits)))
            .collect()
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&ts_metrics::HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// A wire-portable batch of flight-recorder records — the reply to a
/// [`CtrlMsg::TraceRequest`]: the most recently completed per-batch span
/// timelines, newest first, plus the producer's recorder clock so a
/// scraper can place them relative to "now".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracePayload {
    /// The producer's [`WIRE_VERSION`].
    pub version: u32,
    /// The producer's flight-recorder clock ([`ts_metrics::TraceRing::now_ns`])
    /// at reply time; every span offset in `records` is on this clock.
    pub now_ns: u64,
    /// Completed batch records, newest first.
    pub records: Vec<ts_metrics::TraceRecordSnap>,
}

// ---------------------------------------------------------------------------
// wire layouts: one field list per type
// ---------------------------------------------------------------------------

impl Wire for ts_tensor::DType {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut Sink) {
        buf.put_u8(self.tag());
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        let tag = u8::get(buf)?;
        Self::from_tag(tag).ok_or_else(|| TsError::Wire(format!("bad dtype tag {tag}")))
    }
}

/// A [`TensorPayload`] travels as a length-prefixed blob in `ts-tensor`'s
/// own encoding, so that layout can grow without moving the fields
/// around it.
impl Wire for TensorPayload {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut Sink) {
        let raw = self.encode();
        put_len(buf, raw.len());
        buf.put_slice(&raw);
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        let n = get_len(buf, 1)?;
        TensorPayload::decode(buf.take(n)?).map_err(|e| TsError::Wire(format!("payload: {e}")))
    }
}

wire_struct!(ArenaAd {
    path: String,
    nslots: u64,
    slot_size: u64
});
wire_struct!(LogAd {
    retained_min: u64,
    retained_max: u64
});
wire_struct!(WelcomeInfo {
    version: u32,
    shards: u32,
    batch_size: u32,
    flex_producer_batch: u32,
    staging: u8,
    arena: Option<ArenaAd>,
    endpoint_overrides: Vec<(u32, String)>,
    payload_modes: u32,
    log: Option<LogAd>,
});
wire_struct!(FlexBatchPayload {
    fields: Vec<Vec<TensorPayload>>,
    labels: Vec<TensorPayload>,
});
wire_struct!(StreamedTensor { dtype: ts_tensor::DType, shape: Vec<u64>, bytes: Bytes });
wire_struct!(BatchAnnounce {
    seq: u64,
    epoch: u64,
    index_in_epoch: u64,
    last_in_epoch: bool,
    content: AnnounceContent,
});
wire_struct!(ts_metrics::HistogramSnapshot {
    count: u64,
    sum: u64,
    max: u64,
    buckets: Vec<(u32, u64)>,
});
wire_struct!(StatsPayload {
    version: u32,
    counters: Vec<(String, u64)>,
    gauge_bits: Vec<(String, u64)>,
    histograms: Vec<(String, ts_metrics::HistogramSnapshot)>,
    uptime_ns: u64,
    snapshot_ns: u64,
    verdict: String,
});
wire_struct!(ts_metrics::TraceRecordSnap {
    epoch: u64,
    shard: u32,
    seq: u64,
    complete: bool,
    spans: Vec<(u8, u64, u64)>,
});
wire_struct!(TracePayload {
    version: u32,
    now_ns: u64,
    records: Vec<ts_metrics::TraceRecordSnap>,
});

wire_enum!(PayloadMode { 0 => Shm, 1 => Stream });
wire_enum!(ReplayFrom {
    0 => Cursor,
    1 => Oldest,
    2 => Seq(seq: u64),
});
wire_enum!(JoinDecision {
    0 => AdmitReplay { epoch: u64, replay_from: u64, num_batches: u64, start_seq: u64 },
    1 => WaitEpoch { epoch: u64 },
    2 => Reject { reason: String },
});
wire_enum!(AnnounceContent {
    0 => Shared { fields: Vec<TensorPayload>, labels: TensorPayload },
    1 => Flex { batches: Vec<FlexBatchPayload> },
    2 => Streamed { fields: Vec<StreamedTensor>, labels: StreamedTensor },
});
wire_enum!(CtrlMsg {
    0 => Join { consumer_id: u64, batch_size: u32, mode: PayloadMode },
    1 => Ready { consumer_id: u64 },
    2 => Ack { consumer_id: u64, seq: u64 },
    3 => Heartbeat { consumer_id: u64 },
    4 => Leave { consumer_id: u64 },
    5 => Hello { token: u64, version: u32, caps: u32 },
    6 => StatsRequest { token: u64, version: u32, seq: u32 },
    7 => TraceRequest { token: u64, version: u32, seq: u32, max: u32 },
    8 => Replay { consumer_id: u64, group: String, from: ReplayFrom },
} else Unknown);
wire_enum!(DataMsg {
    0 => EpochStart { epoch: u64, num_batches: u64 },
    1 => Batch(announce: BatchAnnounce),
    2 => JoinReply { consumer_id: u64, decision: JoinDecision },
    3 => Detached { consumer_id: u64 },
    4 => End,
    5 => Welcome { token: u64, info: WelcomeInfo },
    6 => Stats { token: u64, payload: StatsPayload, seq: u32 },
    7 => Cursor { shard: u32, epoch: u64, seq: u64, index_in_epoch: u64 },
    8 => Trace { token: u64, payload: TracePayload, seq: u32 },
    9 => LogInfo {
        consumer_id: u64,
        start_seq: u64,
        start_epoch: u64,
        start_index: u64,
        live_seq: u64,
        retained_min: u64,
        retained_max: u64,
    },
} else Unknown);

/// The `(token, version)` head of a token-exchange frame — a
/// [`CtrlMsg::Hello`] / [`CtrlMsg::StatsRequest`] /
/// [`CtrlMsg::TraceRequest`] or its [`DataMsg::Welcome`] /
/// [`DataMsg::Stats`] / [`DataMsg::Trace`] reply. All six start
/// `tag, token, version`, in every version, so a peer reads the other
/// side's version without trusting the rest of the frame's layout.
pub(crate) fn exchange_head(frame: &Bytes) -> Result<(u64, u32)> {
    let (_tag, token, version) = <(u8, u64, u32)>::get(&mut Reader::new(frame))?;
    Ok((token, version))
}

/// Runs `msg`'s field list into a sink whose head starts at `capacity`.
fn written<T: Wire>(msg: &T, capacity: usize) -> Sink {
    let mut sink = Sink::with_capacity(capacity);
    msg.put(&mut sink);
    sink
}

impl CtrlMsg {
    /// The consumer id carried by any control message (the one-shot reply
    /// token, for a [`CtrlMsg::Hello`] — not a real consumer id).
    pub fn consumer_id(&self) -> u64 {
        match self {
            CtrlMsg::Join { consumer_id, .. }
            | CtrlMsg::Ready { consumer_id }
            | CtrlMsg::Ack { consumer_id, .. }
            | CtrlMsg::Heartbeat { consumer_id }
            | CtrlMsg::Leave { consumer_id }
            | CtrlMsg::Replay { consumer_id, .. } => *consumer_id,
            CtrlMsg::Hello { token, .. }
            | CtrlMsg::StatsRequest { token, .. }
            | CtrlMsg::TraceRequest { token, .. } => *token,
            CtrlMsg::Unknown { .. } => 0,
        }
    }

    /// Encodes to a single frame.
    pub fn encode(&self) -> Bytes {
        written(self, 24).into_bytes()
    }

    /// Decodes a received frame; bytes after the last known field are
    /// ignored.
    pub fn decode_shared(frame: &Bytes) -> Result<Self> {
        Self::get(&mut Reader::new(frame))
    }

    /// [`CtrlMsg::decode_shared`] of a copy of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        Self::decode_shared(&Bytes::copy_from_slice(buf))
    }
}

impl DataMsg {
    /// Encodes to one frame, handed over as the segments it consists of:
    /// the frame is their concatenation. Every [`Bytes`] field of a page
    /// or more (a streamed tensor's bytes) is a segment of its own that
    /// shares the field's buffer, so a transport that can gather
    /// (`ts_socket::Multipart::chunked`) sends the frame without the
    /// payload ever being copied. A message without such a field is one
    /// segment.
    pub fn encode_segments(&self) -> Vec<Bytes> {
        written(self, 64).into_segments()
    }

    /// Encodes to a single contiguous frame: the concatenation of
    /// [`DataMsg::encode_segments`] (one copy of a streamed payload; none
    /// for a message that is one segment anyway).
    pub fn encode(&self) -> Bytes {
        written(self, 64).into_bytes()
    }

    /// Decodes a received frame; bytes after the last known field are
    /// ignored. [`Bytes`] fields of the result are slices of `frame` —
    /// they share its buffer and keep it alive — so decoding a streamed
    /// batch copies no payload.
    pub fn decode_shared(frame: &Bytes) -> Result<Self> {
        Self::get(&mut Reader::new(frame))
    }

    /// [`DataMsg::decode_shared`] of a copy of `buf`, for callers that do
    /// not hold the frame as [`Bytes`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        Self::decode_shared(&Bytes::copy_from_slice(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;
    use ts_tensor::{DType, Tensor};

    fn payload(shape: &[usize]) -> TensorPayload {
        TensorPayload::pack(&Tensor::zeros(shape, DType::U8, DeviceId::Gpu(0)))
    }

    fn announce(content: AnnounceContent) -> DataMsg {
        DataMsg::Batch(BatchAnnounce {
            seq: 7,
            epoch: 1,
            index_in_epoch: 7,
            last_in_epoch: false,
            content,
        })
    }

    #[test]
    fn tags_and_flags_outside_their_range_are_rejected() {
        let mut join = CtrlMsg::Join {
            consumer_id: 9,
            batch_size: 4,
            mode: PayloadMode::Shm,
        }
        .encode()
        .to_vec();
        *join.last_mut().unwrap() = 9; // payload mode
        assert!(CtrlMsg::decode(&join).is_err());
        let mut replay = CtrlMsg::Replay {
            consumer_id: 9,
            group: "g".to_string(),
            from: ReplayFrom::Oldest,
        }
        .encode()
        .to_vec();
        *replay.last_mut().unwrap() = 9; // replay-from tag
        assert!(CtrlMsg::decode(&replay).is_err());
        let mut reply = DataMsg::JoinReply {
            consumer_id: 5,
            decision: JoinDecision::WaitEpoch { epoch: 1 },
        }
        .encode()
        .to_vec();
        reply[9] = 9; // decision tag
        assert!(DataMsg::decode(&reply).is_err());
        let mut batch = announce(AnnounceContent::Flex { batches: vec![] })
            .encode()
            .to_vec();
        batch[26] = 9; // content kind
        assert!(DataMsg::decode(&batch).is_err());
    }

    #[test]
    fn unknown_tags_decode_as_unknown_on_both_channels() {
        // Any frame whose tag this build does not know decodes as
        // `Unknown`, whatever follows, so the receiver counts and
        // ignores it instead of failing.
        for tag in [10u8, 99, 250, 255] {
            let mut frame = vec![tag];
            frame.extend_from_slice(&1234u64.to_le_bytes());
            frame.extend_from_slice(&[0xAB; 7]);
            let c = CtrlMsg::decode(&frame).unwrap();
            assert_eq!(c, CtrlMsg::Unknown { tag });
            assert_eq!(c.consumer_id(), 0);
            assert_eq!(CtrlMsg::decode(&c.encode()).unwrap(), c);
            let d = DataMsg::decode(&frame).unwrap();
            assert_eq!(d, DataMsg::Unknown { tag });
            assert_eq!(DataMsg::decode(&d.encode()).unwrap(), d);
        }
        // Only a frame with no tag at all is malformed.
        assert!(CtrlMsg::decode(&[]).is_err());
        assert!(DataMsg::decode(&[]).is_err());
    }

    #[test]
    fn exchange_head_reads_token_and_version_of_all_six_frames() {
        let (token, version) = (77, 9);
        let requests = [
            CtrlMsg::Hello {
                token,
                version,
                caps: 0,
            },
            CtrlMsg::StatsRequest {
                token,
                version,
                seq: 1,
            },
            CtrlMsg::TraceRequest {
                token,
                version,
                seq: 1,
                max: 8,
            },
        ];
        let replies = [
            DataMsg::Welcome {
                token,
                info: WelcomeInfo {
                    version,
                    shards: 1,
                    batch_size: 4,
                    flex_producer_batch: 0,
                    staging: 0,
                    arena: None,
                    endpoint_overrides: Vec::new(),
                    payload_modes: caps::SHM,
                    log: None,
                },
            },
            DataMsg::Stats {
                token,
                payload: StatsPayload {
                    version,
                    ..Default::default()
                },
                seq: 1,
            },
            DataMsg::Trace {
                token,
                payload: TracePayload {
                    version,
                    ..Default::default()
                },
                seq: 1,
            },
        ];
        // A request routes by its token, like any ctrl frame by its id.
        assert!(requests.iter().all(|m| m.consumer_id() == token));
        let frames = requests
            .iter()
            .map(CtrlMsg::encode)
            .chain(replies.iter().map(DataMsg::encode));
        for frame in frames {
            assert_eq!(exchange_head(&frame).unwrap(), (token, version));
            // ...from the head alone: the rest of the layout may differ.
            assert_eq!(exchange_head(&frame.slice(..13)).unwrap(), (token, version));
            assert!(exchange_head(&frame.slice(..12)).is_err());
        }
    }

    #[test]
    fn streamed_announce_rebuilds_the_tensor() {
        let batch = Tensor::rand_u8(&[4, 3, 32, 32], DeviceId::Cpu, 11);
        let labels = Tensor::zeros(&[4], DType::I64, DeviceId::Cpu);
        let m = announce(AnnounceContent::Streamed {
            fields: vec![StreamedTensor::from_tensor(&batch)],
            labels: StreamedTensor::from_tensor(&labels),
        });
        // The frame borrows the batch: its large segment IS the tensor.
        let segments = m.encode_segments();
        assert!(segments
            .iter()
            .any(|s| s.as_ptr() == batch.bytes().unwrap().as_ptr()));
        let wire = m.encode();
        assert_eq!(&wire[..], &segments.concat()[..]);
        let decoded = DataMsg::decode_shared(&wire).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(DataMsg::decode(&wire).unwrap(), m);
        let DataMsg::Batch(BatchAnnounce {
            content: AnnounceContent::Streamed { fields, .. },
            ..
        }) = decoded
        else {
            panic!("wrong shape");
        };
        let rebuilt = fields[0].to_tensor(DeviceId::Cpu).unwrap();
        assert_eq!(rebuilt.shape(), batch.shape());
        assert!(rebuilt.data_eq(&batch));
        // The rebuilt tensor is a view of the frame it arrived in.
        assert!(wire
            .as_ptr_range()
            .contains(&rebuilt.bytes().unwrap().as_ptr()));
        // A hostile shape is an error, not an overflow.
        let hostile = StreamedTensor {
            dtype: DType::F32,
            shape: vec![u64::MAX, 8],
            bytes: Bytes::new(),
        };
        assert!(hostile.to_tensor(DeviceId::Cpu).is_err());
        // Unlike the shm announce, the streamed frame scales with the
        // batch — that is the negotiated trade for crossing hosts.
        assert!(wire.len() > batch.view_bytes());
    }

    #[test]
    fn streamed_frame_layout_is_pinned() {
        // The frame a log stores and a peer of any build reads, written
        // out by hand: whichever way it is encoded, these are the bytes.
        let blob: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let m = announce(AnnounceContent::Streamed {
            fields: vec![StreamedTensor {
                dtype: DType::U8,
                shape: vec![50, 100],
                bytes: Bytes::from(blob.clone()),
            }],
            labels: StreamedTensor {
                dtype: DType::I64,
                shape: vec![1],
                bytes: Bytes::from(vec![9u8; 8]),
            },
        });
        let mut expect = vec![1u8]; // DataMsg::Batch
        for v in [7u64, 1, 7] {
            expect.extend_from_slice(&v.to_le_bytes()); // seq, epoch, index
        }
        expect.extend_from_slice(&[0, 2]); // last_in_epoch, content: Streamed
        expect.extend_from_slice(&1u32.to_le_bytes()); // one field
        expect.push(DType::U8.tag());
        expect.extend_from_slice(&2u32.to_le_bytes());
        expect.extend_from_slice(&50u64.to_le_bytes());
        expect.extend_from_slice(&100u64.to_le_bytes());
        expect.extend_from_slice(&5000u32.to_le_bytes());
        expect.extend_from_slice(&blob);
        expect.push(DType::I64.tag());
        expect.extend_from_slice(&1u32.to_le_bytes());
        expect.extend_from_slice(&1u64.to_le_bytes());
        expect.extend_from_slice(&8u32.to_le_bytes());
        expect.extend_from_slice(&[9u8; 8]);
        assert_eq!(&m.encode()[..], &expect[..]);
        assert_eq!(m.encode_segments().concat(), expect);
        assert_eq!(DataMsg::decode(&expect).unwrap(), m);
    }

    #[test]
    fn announce_size_is_independent_of_batch_size() {
        let shared = |n: usize| {
            announce(AnnounceContent::Shared {
                fields: vec![payload(&[n, 3, 224, 224])],
                labels: payload(&[n]),
            })
            .encode()
        };
        assert_eq!(shared(2).len(), shared(512).len());
        assert!(shared(512).len() < 256);
    }

    #[test]
    fn topics_are_prefix_disjoint() {
        let topics: [(&str, Vec<u8>); 7] = [
            ("batch", topics::BATCH.to_vec()),
            ("ctrl", topics::CTRL.to_vec()),
            ("cursor", topics::CURSOR.to_vec()),
            ("consumer", topics::consumer(1)),
            ("hello", topics::hello(1)),
            ("stats", topics::stats(1)),
            ("trace", topics::trace(1)),
        ];
        // No topic may capture (or be captured by) another's subscribers.
        for (a_name, a) in &topics {
            for (b_name, b) in &topics {
                assert!(
                    a_name == b_name || !a.starts_with(b),
                    "{a_name} is captured by a {b_name} subscription"
                );
            }
        }
        assert_eq!(topics::consumer(42), b"cons/42".to_vec());
        assert_eq!(topics::hello(42), b"hs/42".to_vec());
        assert_eq!(topics::stats(42), b"st/42".to_vec());
        assert_eq!(topics::trace(42), b"tr/42".to_vec());
    }

    #[test]
    fn stats_payload_accessors_decode_gauges_and_lookups() {
        use ts_metrics::Registry;

        let r = Registry::new();
        r.counter("producer.batches").add(7);
        r.gauge("stage.pin_depth").set(1.5);
        r.histogram("consumer.wait_ns").record(1000);
        let p = StatsPayload::from_registry(&r);
        assert_eq!(p.version, WIRE_VERSION);
        assert_eq!(p.counter("producer.batches"), Some(7));
        assert_eq!(p.counter("missing"), None);
        assert_eq!(p.gauges(), vec![("stage.pin_depth".to_string(), 1.5)]);
        assert_eq!(p.histogram("consumer.wait_ns").unwrap().count, 1);
        assert!(p.histogram("missing").is_none());
        // Sections are deterministically name-sorted (registry contract).
        assert!(p.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
