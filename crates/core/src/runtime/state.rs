//! The producer's decisions as a plain state machine: `State::step`
//! takes the time, one `Event` and a buffer for `Effect`s, and touches
//! no socket, no thread and no clock.
//!
//! The pump in `crate::runtime::producer` is the only caller in
//! production: it blocks in one place, turns whatever woke it into an
//! event, calls `step`, and executes the effects in order. Tests call
//! `step` directly with a `u64` they advance by hand, which makes every
//! decision in here — admission, replay order, release, expiry, the wait
//! state — checkable without a sleep.
//!
//! What the state owns is in-memory only: the shared registry (placing and
//! releasing payloads), the metrics registry and flight recorder
//! (recording, never reading a clock), the durable log's read side, and
//! the group coordinator when sharded — which reads no clock either: it is
//! handed the same `now`. Device staging happens upstream, in the pump's
//! copy stage; an item reaches `step` on the device it is published from.
//! The fields split along
//! four seams: `Membership` (who is attached, admission, heartbeats, the
//! replay queue), `Window` (the publish window, live batches, pins,
//! acks, the epoch position), `LogTee` (the durable log as seen from the
//! publish side) and `Instruments` (metrics, cadence, watchdog).
//!
//! **Wait states.** At any moment the producer is waiting for exactly one
//! thing, [`Wait`]: the group barrier, a ready consumer, the next prepared
//! item, the publish window, an arena slot (the feeder is parked on a dry
//! pool), or the final acks. Control frames, `Logged` notices and ticks
//! are handled the same way in all of them.
//!
//! **Replays are jobs, not loops.** A catch-up (rubberband pins or a
//! logged range) is queued as `{consumer, source, next, end}` and advanced
//! one frame per `step`; publishing waits until the queue is empty (the
//! rubberband "halt everyone while the joiner catches up"). A `Leave` or
//! an expiry between two frames simply removes the job.
//!
//! **A catch-up has a window, like live publishing.** The job remembers
//! what it sent and its consumer has not acked yet (acks are cumulative:
//! delivery is in order), and sends only while those bytes are under
//! `CATCH_UP_BUDGET` — never fewer than `CATCH_UP_MIN_FRAMES` frames.
//! Reading the log outruns any receiver, so without the window a late
//! group's whole history would queue up in its process. While the gate is
//! shut `busy` is false and the pump parks until the next ack rings it.
//! Every frame is looked up when it is sent, never before: the range of a
//! logged job ends at its consumer's first live seq, not at what the
//! spiller has appended, and a batch the log does not have yet is still
//! live. The gate paces, it never decides liveness: after a whole tick
//! without an ack from the consumer one frame goes anyway
//! (`replay.gate_timeouts`).
//!
//! **What a frame weighs.** A frame out of the log for a pointer (`Shm`)
//! consumer does not cross the socket as bytes: the stored streamed frame
//! is decoded in place, each tensor is copied into an arena slot leased
//! from the shard's pool (one user-space copy, no kernel copy), and a
//! ~100-byte pointer announce goes out instead. The slots stay registered
//! until that consumer acks the frame or leaves (`HeldFrame`), so such a
//! frame weighs the slot bytes it pins — the slot size times its tensors —
//! and the budget bounds arena memory the way it bounds socket memory for
//! a stream consumer, whose frame weighs its own bytes. When no slot can
//! be leased the stored bytes go instead, counted
//! (`replay.[s<N>.]slot_fallbacks`): a catch-up never waits on the arena,
//! because publishing waits on the catch-up.
//!
//! Jobs run in arrival order, with one exception: a consumer's logged
//! range goes ahead of its own pin replay (a rejoining group member gets
//! the pins on `Ready` and the range on `Replay`). It delivers, and so
//! acks, the older range first; behind a window of pin frames it cannot
//! ack yet the range would wait out a tick per frame.

use crate::protocol::acks::AckTracker;
use crate::protocol::buffer::BatchWindow;
use crate::protocol::flex::plan_flex;
use crate::protocol::heartbeat::HeartbeatMonitor;
use crate::protocol::messages::{
    caps, topics, AnnounceContent, ArenaAd, BatchAnnounce, CtrlMsg, DataMsg, FlexBatchPayload,
    JoinDecision, LogAd, PayloadMode, ReplayFrom, StatsPayload, StreamedTensor, TracePayload,
    WelcomeInfo, WIRE_VERSION,
};
use crate::protocol::rubberband::{JoinOutcome, RubberbandPolicy};
use crate::runtime::config::ProducerConfig;
use crate::runtime::context::TsContext;
use crate::runtime::coordinator::{EpochCoordinator, GroupJoin};
use crate::runtime::producer::{replay_start, streamed_content, ProducerStats};
use crate::runtime::staging::{FeederMsg, Placement, PreparedItem, WELCOME_STAGING};
use crate::{Result, TsError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use ts_device::DeviceId;
use ts_log::{BatchLog, CursorStore};
use ts_metrics::{Counter, Gauge, Histogram, SpanKind};
use ts_socket::Multipart;
use ts_tensor::{collate, SharedRegistry, Tensor, TensorPayload};

/// Housekeeping cadence: join-reply nudges, the cursor broadcast, log
/// retention and heartbeat expiry run once per tick, the watchdog every
/// fourth.
const TICK_NS: u64 = 25_000_000;
/// How often a shard parked at the group barrier looks at it again — the
/// one wait nobody rings the pump out of (the coordinator is plain shared
/// state with no doorbell of its own).
const BARRIER_TICK_NS: u64 = 200_000;
/// Bytes of one catch-up that may be sent and not yet acked. A log frame
/// is a whole batch, hundreds of KiB and up, in the receiver's memory or
/// in the arena slots it pins, so this holds a replay to a handful of
/// frames; a pointer announce of a live batch is ~100 bytes, so pin
/// replays never feel it.
const CATCH_UP_BUDGET: u64 = 4 << 20;
/// Frames a catch-up may always have un-acked, whatever they weigh: one
/// on the wire while the consumer works on the other.
const CATCH_UP_MIN_FRAMES: usize = 2;

/// Frames of `frame_bytes` each that the catch-up window lets out before
/// its first ack: what arena auto-sizing provisions slots for.
pub(crate) fn catch_up_frames(frame_bytes: u64) -> usize {
    (CATCH_UP_BUDGET.div_ceil(frame_bytes.max(1)) as usize).max(CATCH_UP_MIN_FRAMES)
}

/// What the producer is waiting for. Exported as gauge
/// `stage.[s<N>.]wait_state` (the variant's position in [`Wait::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Wait {
    /// Parked at the sharded group's epoch barrier.
    Barrier = 0,
    /// No consumer is attached and ready; nothing is published.
    Consumers,
    /// The feeder has not handed over the next batch (loader-bound).
    Item,
    /// A batch is in hand; the publish window or a replay holds it back.
    Window,
    /// The feeder is parked on a dry slot pool.
    Arena,
    /// Every epoch is out; waiting for the last acknowledgements.
    Drain,
}

impl Wait {
    /// Every state, in gauge-code order.
    pub const ALL: [Wait; 6] = [
        Wait::Barrier,
        Wait::Consumers,
        Wait::Item,
        Wait::Window,
        Wait::Arena,
        Wait::Drain,
    ];

    /// Lower-case name, as shown in the `ts-top` header.
    pub fn name(self) -> &'static str {
        match self {
            Wait::Barrier => "barrier",
            Wait::Consumers => "consumers",
            Wait::Item => "item",
            Wait::Window => "window",
            Wait::Arena => "arena",
            Wait::Drain => "drain",
        }
    }
}

/// Something that happened; the pump's only input to [`State::step`].
pub(crate) enum Event {
    /// One control frame off the PULL socket.
    Ctrl(Bytes),
    /// The feeder (or the copy stage) handed something over.
    Prepared(FeederMsg),
    /// The spiller moved: records below `up_to` no longer need their arena
    /// bytes; `failed` latches once an append failed.
    Logged { up_to: u64, failed: bool },
    /// Time passed and nothing else happened.
    Tick,
    /// The producer was aborted.
    Stop,
}

/// Something to do; executed by the pump in order.
pub(crate) enum Effect {
    /// Publish `frame` on `topic`.
    Send {
        topic: Cow<'static, [u8]>,
        frame: Multipart,
    },
    /// Tee a published batch into the durable log.
    Spill(SpillMsg),
    /// The run is over: stop the spiller, then call [`State::close`].
    Finish,
}

fn send(topic: impl Into<Cow<'static, [u8]>>, frame: Bytes) -> Effect {
    Effect::Send {
        topic: topic.into(),
        frame: Multipart::single(frame),
    }
}

/// One published batch handed to the durable-log spiller: `Arc` clones of
/// the live tensors plus the announce metadata. The spiller encodes the
/// streamed wire frame and appends it, so a log replay later re-sends the
/// bytes a streamed subscriber would have received live.
pub(crate) struct SpillMsg {
    pub seq: u64,
    pub epoch: u64,
    pub index_in_epoch: u64,
    pub last_in_epoch: bool,
    pub fields: Vec<Tensor>,
    pub labels: Tensor,
}

/// Pre-resolved per-pipeline metric handles, looked up once at spawn so
/// hot paths record with atomics only. Namespaced `stage.` for the first
/// standalone producer in a context, `stage.p<n>.` for further ones,
/// `stage.s<shard>.` inside a sharded group.
#[derive(Clone)]
pub(crate) struct StageMetrics {
    /// Feeder fetch+collate time per loader batch (arena waits excluded).
    pub feeder_fetch: Arc<Histogram>,
    /// Publish→fully-acked round trip per batch.
    publish_ack: Arc<Histogram>,
    /// Rubberband pins currently holding memory.
    pin_depth: Arc<Gauge>,
    /// Bytes sent over the streamed payload path.
    stream_tx_bytes: Arc<Counter>,
    /// Bytes gathered to build a streamed frame from a non-contiguous view.
    pub stream_copy_bytes: Arc<Counter>,
    /// Frames the data socket refused.
    pub stream_tx_errors: Arc<Counter>,
    /// Payload bytes the publish step copied into the arena because a
    /// tensor arrived without a feeder placement (a source handing out
    /// device or pre-shared storages the feeder cannot lease for).
    publish_copy_bytes: Arc<Counter>,
    /// Payload bytes the feeder copied into a leased slot because the
    /// batch did not arrive placed (anything but a loader-built batch).
    collate_copy_bytes: Arc<Counter>,
    /// Set when the arena was too small for the loader to lease from.
    pub loader_unbound: Arc<Counter>,
    /// The copy stage's per-batch H2D time, under a GPU producer: what the
    /// watchdog weighs against the loader's fetch time.
    h2d: Option<Arc<Histogram>>,
    /// Cursor positions displaced before a broadcast (latest-wins).
    cursor_coalesced: Arc<Counter>,
    /// Bytes the durable-log spiller appended.
    pub log_append_bytes: Arc<Counter>,
    /// The current [`Wait`], as its position in [`Wait::ALL`].
    wait_state: Arc<Gauge>,
    /// Total time spent in [`Wait::Arena`].
    arena_parked_ns: Arc<Counter>,
    /// Acked pins let go early because they alone held a dry arena.
    pins_shed_for_arena: Arc<Counter>,
    /// `producer.batches`: batches published, all pipelines of the context.
    batches: Arc<Counter>,
    /// `producer.bytes_staged`: payload bytes placed on the staging device.
    bytes_staged: Arc<Counter>,
}

impl StageMetrics {
    fn new(metrics: &ts_metrics::Registry, shard: Option<u32>) -> Self {
        let prefix = match shard {
            Some(s) => format!("stage.s{s}."),
            None => match metrics.counter("stage.pipelines").fetch_inc() {
                0 => "stage.".to_string(),
                n => format!("stage.p{n}."),
            },
        };
        let counter = |name: &str| metrics.counter(&format!("{prefix}{name}"));
        Self {
            feeder_fetch: metrics.histogram(&format!("{prefix}feeder_fetch_ns")),
            publish_ack: metrics.histogram(&format!("{prefix}publish_ack_ns")),
            pin_depth: metrics.gauge(&format!("{prefix}pin_depth")),
            stream_tx_bytes: counter("stream_tx_bytes"),
            stream_copy_bytes: counter("stream_copy_bytes"),
            stream_tx_errors: counter("stream_tx_errors"),
            publish_copy_bytes: counter("publish_copy_bytes"),
            collate_copy_bytes: counter("collate_copy_bytes"),
            loader_unbound: counter("loader_unbound"),
            h2d: None,
            cursor_coalesced: counter("cursor_coalesced"),
            log_append_bytes: counter("log_append_bytes"),
            wait_state: metrics.gauge(&format!("{prefix}wait_state")),
            arena_parked_ns: counter("arena_parked_ns"),
            pins_shed_for_arena: counter("pins_shed_for_arena"),
            batches: metrics.counter("producer.batches"),
            bytes_staged: metrics.counter("producer.bytes_staged"),
        }
    }
}

struct ConsumerInfo {
    batch_size: u32,
    /// Stable index used for flexible-mode offsets.
    index: usize,
    mode: PayloadMode,
    /// First live-stream sequence this consumer was admitted at: where its
    /// catch-up (pins or log) ends.
    start_seq: u64,
    /// The pinned prefix it was admitted behind, replayed on `Ready`. Fixed
    /// at admission: the join window can close (an epoch boundary, a dry
    /// arena) before `Ready` lands, and the admission still stands.
    pins: Range<u64>,
}

/// A published batch whose tensors are still registered.
struct LiveBatch {
    epoch: u64,
    index_in_epoch: u64,
    last_in_epoch: bool,
    fields: Vec<Tensor>,
    labels: Tensor,
    /// Fully acked; held for the join window or the spiller.
    releasable: bool,
    published_at: u64,
}

/// One queued catch-up: frames `next..end` for `consumer`, out of the pin
/// set (live batches, falling back to the log for shed pins) or out of
/// the log (falling back to live batches retention has not kept).
struct ReplayJob {
    consumer: u64,
    from_log: bool,
    next: u64,
    end: u64,
    /// `(seq, bytes)` of every frame sent and not yet acked, oldest first:
    /// the catch-up window.
    unacked: VecDeque<(u64, u64)>,
    unacked_bytes: u64,
    /// When a frame last went out or the consumer last acked anything.
    moved_at: u64,
}

impl ReplayJob {
    fn new(consumer: u64, from_log: bool, frames: Range<u64>) -> Self {
        Self {
            consumer,
            from_log,
            next: frames.start,
            end: frames.end,
            unacked: VecDeque::new(),
            unacked_bytes: 0,
            moved_at: 0,
        }
    }

    /// True while the window has room for another frame.
    fn gate_open(&self) -> bool {
        self.unacked.len() < CATCH_UP_MIN_FRAMES || self.unacked_bytes < CATCH_UP_BUDGET
    }

    fn sent(&mut self, now: u64, seq: u64, bytes: u64) {
        self.unacked.push_back((seq, bytes));
        self.unacked_bytes += bytes;
        self.moved_at = now;
    }

    /// The consumer acked `seq`, and with it everything sent before. Any
    /// ack of its is a sign of life, also one for a frame of another job
    /// of the same consumer that went out ahead of this one.
    fn acked(&mut self, now: u64, seq: u64) {
        while let Some(&(_, bytes)) = self.unacked.front().filter(|sent| sent.0 <= seq) {
            self.unacked.pop_front();
            self.unacked_bytes -= bytes;
        }
        self.moved_at = now;
    }
}

/// The arena slots one slot-backed catch-up frame was copied into: their
/// storages stay registered until `consumer` acks `seq` (or anything
/// after it) or leaves. The ledger outlives the job that sent the frame,
/// which leaves the queue with its last send, before its last acks.
struct HeldFrame {
    consumer: u64,
    seq: u64,
    storages: Vec<u64>,
}

/// Where a catch-up frame was found.
enum Found {
    /// Built from the live batch.
    Live(Multipart),
    /// The stored record, CRC-checked in place.
    Stored(Bytes),
}

/// Who is attached: membership, admission, heartbeats, catch-ups.
///
/// Invariant: every id in `consumers` or `pending_join` has a heartbeat
/// entry, and `hb` tracks no other id — so a silent member always
/// expires, and a stray frame never grows the monitor.
struct Membership {
    hb: HeartbeatMonitor,
    consumers: HashMap<u64, ConsumerInfo>,
    /// Admitted, `Ready` not seen yet (a subset of `consumers`).
    awaiting_ready: HashSet<u64>,
    /// Encoded `JoinReply` per consumer awaiting `Ready`, re-sent every
    /// tick: on remote transports the reply can go out while the joiner's
    /// subscription is still propagating.
    join_replies: HashMap<u64, Bytes>,
    /// Told to wait for the next epoch.
    pending_join: Vec<(u64, u32, PayloadMode)>,
    replays: VecDeque<ReplayJob>,
    /// Slot-backed catch-up frames not acked yet, oldest first.
    held: Vec<HeldFrame>,
    /// Un-acked bytes of the front catch-up (`replay.[s<N>.]inflight_bytes`).
    inflight_bytes: Arc<Gauge>,
    /// Frames sent through a shut gate (`replay.[s<N>.]gate_timeouts`).
    gate_timeouts: Arc<Counter>,
    /// Log frames sent to pointer consumers through arena slots
    /// (`replay.[s<N>.]slot_frames`) ...
    slot_frames: Arc<Counter>,
    /// ... and as stored bytes because no slot could be leased
    /// (`replay.[s<N>.]slot_fallbacks`).
    slot_fallbacks: Arc<Counter>,
    /// The WELCOME template answered to HELLOs (the log ad is stamped per
    /// answer).
    welcome: WelcomeInfo,
}

impl Membership {
    fn knows(&self, id: u64) -> bool {
        self.consumers.contains_key(&id) || self.pending_join.iter().any(|(j, ..)| *j == id)
    }

    fn note_inflight(&self) {
        let front = self.replays.front();
        self.inflight_bytes
            .set(front.map_or(0, |job| job.unacked_bytes) as f64);
    }

    /// Releases the slots of every held frame `done` picks.
    fn release_held(&mut self, registry: &SharedRegistry, done: impl Fn(&HeldFrame) -> bool) {
        self.held.retain(|frame| {
            if !done(frame) {
                return true;
            }
            for &storage in &frame.storages {
                registry.release(storage);
            }
            false
        });
    }
}

/// What is out: the publish window, live batches, pins, acks, and where
/// in the epoch the stream stands.
struct Window {
    window: BatchWindow,
    acks: AckTracker,
    live: BTreeMap<u64, LiveBatch>,
    /// Seqs pinned for rubberband replay: contiguous, ending at the next
    /// seq while the join window is open, empty otherwise.
    pins: Range<u64>,
    /// The join window was closed early to relieve a dry arena; stays shut
    /// until the next epoch.
    pins_shut: bool,
    /// The dequeued item waiting for the window, and when it arrived.
    pending: Option<(PreparedItem, u64)>,
    epoch: u64,
    /// The epoch `epoch_start_seq` and the pins belong to. Lags `epoch` by
    /// one while a shard is parked at the barrier: a join admitted there
    /// replays the previous epoch's pins and its reply must say so.
    pin_epoch: u64,
    epoch_start_seq: u64,
    /// Announcements per epoch (loader batches, or producer batches under
    /// flexible sizing).
    expected_announces: u64,
}

impl Window {
    fn published_in_epoch(&self) -> u64 {
        self.window.next_seq() - self.epoch_start_seq
    }

    /// Progress as the join-window predicates see it: past every limit
    /// once the window was shut early.
    fn pin_progress(&self) -> u64 {
        match self.pins_shut {
            true => u64::MAX,
            false => self.published_in_epoch(),
        }
    }
}

/// The durable log from the publish side: the read handle (replays,
/// retention), group cursors, and how far the spiller has got.
pub(crate) struct LogTee {
    pub log: Arc<Mutex<BatchLog>>,
    cursors: CursorStore,
    /// `seq + 1` of the last record the spiller is done with. Advances
    /// past failed appends, so `seq < logged` frees memory but is only
    /// proof of durability while `failed` is unset.
    logged: u64,
    failed: bool,
    /// Consumer id → group name, for the ack → cursor write-through.
    groups: HashMap<u64, String>,
    /// Cached `LogInfo` reply per consumer: a re-sent `Replay` re-answers
    /// the same frame, never a second stream.
    log_infos: HashMap<u64, Bytes>,
    lag: Arc<Gauge>,
    retained_min: Arc<Gauge>,
    retained_max: Arc<Gauge>,
    /// Replay reads that found their record damaged: the registry's copy
    /// of [`BatchLog::read_corrupt`], and how much of it is already there.
    read_corrupt: Arc<Counter>,
    read_corrupt_seen: Cell<u64>,
}

impl LogTee {
    pub(crate) fn new(
        log: Arc<Mutex<BatchLog>>,
        cursors: CursorStore,
        metrics: &ts_metrics::Registry,
        shard_ns: Option<u32>,
    ) -> Self {
        let prefix = match shard_ns {
            Some(s) => format!("log.s{s}."),
            None => "log.".to_string(),
        };
        let retained_min = metrics.gauge(&format!("{prefix}retained_min"));
        let retained_max = metrics.gauge(&format!("{prefix}retained_max"));
        // Inverted range, as in the WELCOME ad: enabled, nothing retained.
        retained_min.set(1.0);
        retained_max.set(0.0);
        Self {
            log,
            cursors,
            logged: 0,
            failed: false,
            groups: HashMap::new(),
            log_infos: HashMap::new(),
            lag: metrics.gauge(&format!("{prefix}lag")),
            retained_min,
            retained_max,
            read_corrupt: metrics.counter(&format!("{prefix}read_corrupt")),
            read_corrupt_seen: Cell::new(0),
        }
    }

    /// The stored frame for `seq`, owning the segment's mapping: sent as
    /// it is, the bytes go from the page cache to the socket without
    /// passing through a buffer of ours; decoded, its tensors are slices
    /// of the mapping.
    fn record(&self, seq: u64) -> Option<Bytes> {
        let log = self.log.lock();
        let record = log.read(seq);
        if record.is_none() {
            // Dropped by retention, or damaged: the log counts the second.
            let seen = log.read_corrupt();
            self.read_corrupt
                .add(seen - self.read_corrupt_seen.replace(seen));
        }
        record.map(Bytes::from_owner)
    }
}

/// Metrics, cadence and the watchdog's memory.
struct Instruments {
    stage: StageMetrics,
    /// Latest publish position not broadcast yet (latest-wins).
    cursor: Option<(u64, u64, u64)>,
    started: u64,
    next_tick: u64,
    ticks: u64,
    /// When the current wait state was entered.
    wait_since: u64,
    /// `(epoch, seq)` of the last stall counted, so one stall counts once.
    watchdog_memo: Option<(u64, u64)>,
    /// The batch announced by the current step; the pump closes its
    /// announce span once the frames are on the socket.
    announced: Option<(u64, u64)>,
}

/// One producer pipeline's whole decision state. See the module docs.
pub(crate) struct State {
    pub(crate) cfg: ProducerConfig,
    pub(crate) ctx: TsContext,
    pub(crate) coord: Option<Arc<EpochCoordinator>>,
    pub(crate) shard: u32,
    policy: RubberbandPolicy,
    wait: Wait,
    /// Barrier generation awaited in [`Wait::Barrier`].
    barrier: u64,
    /// Give-up time of [`Wait::Consumers`] (first-consumer timeout) and
    /// [`Wait::Drain`] (heartbeat timeout); next look at the barrier in
    /// [`Wait::Barrier`].
    until: Option<u64>,
    members: Membership,
    win: Window,
    log: Option<LogTee>,
    inst: Instruments,
    pub(crate) stats: ProducerStats,
}

impl State {
    /// `loader` is the source's `(batches_per_epoch, batch_size)`.
    pub(crate) fn new(
        ctx: &TsContext,
        cfg: ProducerConfig,
        coord: Option<Arc<EpochCoordinator>>,
        shard: u32,
        log: Option<LogTee>,
        loader: (u64, u64),
        now: u64,
    ) -> Self {
        let shard_ns = coord.as_ref().map(|_| shard);
        let expected_announces = cfg.announces_per_epoch(loader);
        let welcome = WelcomeInfo {
            version: WIRE_VERSION,
            shards: coord.as_ref().map(|c| c.num_shards() as u32).unwrap_or(1),
            batch_size: loader.1 as u32,
            flex_producer_batch: cfg
                .flexible
                .as_ref()
                .map(|f| f.producer_batch as u32)
                .unwrap_or(0),
            staging: WELCOME_STAGING,
            arena: ctx.registry.arena().map(|a| {
                let g = a.geometry();
                ArenaAd {
                    path: g.path.display().to_string(),
                    nslots: g.nslots as u64,
                    slot_size: g.slot_size as u64,
                }
            }),
            endpoint_overrides: cfg.shard_endpoints.clone(),
            // Flexible sizing carves per-consumer views of shared storage
            // with no streamed serialization: shm only.
            payload_modes: match cfg.flexible {
                Some(_) => caps::SHM,
                None => caps::SHM | caps::STREAM,
            },
            log: None,
        };
        let policy = RubberbandPolicy {
            cutoff: cfg.rubberband_cutoff,
        };
        let replay_metric = |name: &str| match shard_ns {
            Some(s) => format!("replay.s{s}.{name}"),
            None => format!("replay.{name}"),
        };
        Self {
            members: Membership {
                hb: HeartbeatMonitor::new(cfg.heartbeat_timeout.as_nanos() as u64),
                consumers: HashMap::new(),
                awaiting_ready: HashSet::new(),
                join_replies: HashMap::new(),
                pending_join: Vec::new(),
                replays: VecDeque::new(),
                held: Vec::new(),
                inflight_bytes: ctx.metrics.gauge(&replay_metric("inflight_bytes")),
                gate_timeouts: ctx.metrics.counter(&replay_metric("gate_timeouts")),
                slot_frames: ctx.metrics.counter(&replay_metric("slot_frames")),
                slot_fallbacks: ctx.metrics.counter(&replay_metric("slot_fallbacks")),
                welcome,
            },
            win: Window {
                window: BatchWindow::new(cfg.buffer_size),
                acks: AckTracker::new(),
                live: BTreeMap::new(),
                pins: 0..0,
                pins_shut: false,
                pending: None,
                epoch: 0,
                pin_epoch: 0,
                epoch_start_seq: 0,
                expected_announces,
            },
            inst: Instruments {
                stage: StageMetrics::new(&ctx.metrics, shard_ns),
                cursor: None,
                started: now,
                next_tick: now + TICK_NS,
                ticks: 0,
                wait_since: now,
                watchdog_memo: None,
                announced: None,
            },
            cfg,
            ctx: ctx.clone(),
            coord,
            shard,
            policy,
            wait: Wait::Consumers,
            barrier: 0,
            until: None,
            log,
            stats: ProducerStats::default(),
        }
    }

    pub(crate) fn stage(&self) -> &StageMetrics {
        &self.inst.stage
    }

    /// The durable log's handle, for the spiller.
    pub(crate) fn log(&self) -> Option<Arc<Mutex<BatchLog>>> {
        self.log.as_ref().map(|l| l.log.clone())
    }

    /// Tells the watchdog where the copy stage records its H2D time.
    pub(crate) fn watch_h2d(&mut self, hist: Arc<Histogram>) {
        self.inst.stage.h2d = Some(hist);
    }

    pub(crate) fn wait(&self) -> Wait {
        self.wait
    }

    /// True when the pump should hand over the feeder's next message.
    pub(crate) fn wants_item(&self) -> bool {
        matches!(self.wait, Wait::Item | Wait::Arena)
    }

    /// True while the front catch-up has room in its window for its next
    /// frame: the pump must keep stepping. Otherwise the next ack (or
    /// tick) is what moves it, and the pump may park.
    pub(crate) fn busy(&self) -> bool {
        self.members
            .replays
            .front()
            .is_some_and(ReplayJob::gate_open)
    }

    /// When the state next needs an [`Event::Tick`] if nothing else
    /// happens: the housekeeping tick, or sooner when the current wait has
    /// a limit of its own that only time can trip.
    pub(crate) fn deadline(&self) -> u64 {
        let limited = match self.wait {
            Wait::Barrier | Wait::Drain => true,
            Wait::Consumers => self.members.consumers.is_empty(),
            _ => false,
        };
        let until = self.until.filter(|_| limited).unwrap_or(u64::MAX);
        self.inst.next_tick.min(until)
    }

    /// The batch the last step announced, once.
    pub(crate) fn take_announced(&mut self) -> Option<(u64, u64)> {
        self.inst.announced.take()
    }

    /// Enters epoch 0. Call once before the first [`State::step`].
    pub(crate) fn start(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.enter_epoch(now, 0, fx);
        self.advance(now, fx);
    }

    /// Feeds one event; appends what must be done about it to `fx`.
    pub(crate) fn step(&mut self, now: u64, ev: Event, fx: &mut Vec<Effect>) {
        match ev {
            Event::Ctrl(frame) => self.on_ctrl(now, &frame, fx),
            Event::Prepared(msg) => self.on_prepared(now, msg, fx),
            Event::Logged { up_to, failed } => self.on_logged(up_to, failed),
            Event::Tick => {}
            // Aborted: skip the drain, `join` must return promptly.
            Event::Stop => return fx.push(Effect::Finish),
        }
        if now >= self.inst.next_tick {
            self.housekeeping(now, fx);
        }
        self.advance(now, fx);
    }

    /// After [`Effect::Finish`] (and after the spiller stopped — it reads
    /// arena memory while encoding): releases everything and says `End`.
    pub(crate) fn close(&mut self, now: u64, fx: &mut Vec<Effect>) {
        if let Some(log) = &mut self.log {
            // The final acks of a run land between ticks.
            let _ = log.cursors.flush();
        }
        self.win.pending = None;
        self.members.release_held(&self.ctx.registry, |_| true);
        let seqs: Vec<u64> = self.win.live.keys().copied().collect();
        for seq in seqs {
            self.release(seq);
        }
        self.win.pins = 0..0;
        self.inst.stage.pin_depth.set(0.0);
        self.set_wait(now, Wait::Drain);
        fx.push(send(topics::CTRL, DataMsg::End.encode()));
    }

    // -- the wait state ---------------------------------------------------

    fn set_wait(&mut self, now: u64, wait: Wait) {
        if self.wait == Wait::Arena {
            let parked = now.saturating_sub(self.inst.wait_since);
            self.inst.stage.arena_parked_ns.add(parked);
        }
        if self.wait != wait || wait == Wait::Item {
            self.inst.wait_since = now;
        }
        self.wait = wait;
        self.inst.stage.wait_state.set(wait as u8 as f64);
    }

    /// Moves whatever can move: one replay frame, then the transition the
    /// current wait state was waiting for (they cascade: an opened barrier
    /// can start the epoch in the same step).
    fn advance(&mut self, now: u64, fx: &mut Vec<Effect>) {
        if self.busy() {
            self.replay_one(now, fx);
        }
        if self.wait == Wait::Barrier {
            match self.coord.clone() {
                Some(coord) if coord.is_stopped() => self.enter_drain(now),
                Some(coord) if coord.reached(now, self.barrier) => self.open_epoch(now, fx),
                Some(_) => self.until = Some(now + BARRIER_TICK_NS), // look again then
                // `enter_epoch` waits here only in its `Some(coord)` arm
                None => self.fail(now, "barrier wait without a coordinator"),
            }
        }
        let m = &self.members;
        let all_ready = !m.consumers.is_empty() && m.awaiting_ready.is_empty();
        if self.wait == Wait::Consumers {
            if all_ready {
                let msg = DataMsg::EpochStart {
                    epoch: self.win.epoch,
                    num_batches: self.win.expected_announces,
                };
                fx.push(send(topics::CTRL, msg.encode()));
                self.set_wait(now, Wait::Item);
            } else if m.consumers.is_empty() && self.until.is_some_and(|d| now > d) {
                self.enter_drain(now); // nobody ever came
            }
        }
        if self.wait == Wait::Window
            && all_ready
            && self.members.replays.is_empty()
            && self.win.window.can_publish()
        {
            self.publish(now, fx);
        }
        if self.wait == Wait::Arena {
            self.relieve_arena();
        }
        if self.wait == Wait::Drain
            && (self.win.acks.is_empty()
                || self.members.consumers.is_empty()
                || self.until.is_some_and(|d| now >= d))
        {
            fx.push(Effect::Finish);
        }
    }

    fn enter_epoch(&mut self, now: u64, epoch: u64, fx: &mut Vec<Effect>) {
        if epoch >= self.cfg.epochs {
            return self.enter_drain(now);
        }
        self.win.epoch = epoch;
        match self.coord.clone() {
            // Align with the other shards BEFORE flushing the pin set: pins
            // survive the boundary, so a join racing it still replays from
            // every shard.
            Some(coord) => {
                let pin_limit = self.policy.pinned_batches(self.win.expected_announces);
                self.barrier = coord.arrive(now, self.shard, epoch, pin_limit);
                self.set_wait(now, Wait::Barrier);
            }
            None => self.open_epoch(now, fx),
        }
    }

    /// The epoch begins: the previous epoch's pins go (they stayed alive
    /// across the boundary for late rubberband joins), parked joiners are
    /// admitted, and the wait for a ready consumer starts.
    fn open_epoch(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.close_join_window();
        let w = &mut self.win;
        w.pins_shut = false;
        w.pin_epoch = w.epoch;
        w.epoch_start_seq = w.window.next_seq();
        let start_seq = w.epoch_start_seq;
        for (id, batch_size, mode) in std::mem::take(&mut self.members.pending_join) {
            self.admit(now, id, batch_size, mode, start_seq, fx);
        }
        self.until = self
            .cfg
            .first_consumer_timeout
            .map(|d| now + d.as_nanos() as u64);
        self.set_wait(now, Wait::Consumers);
    }

    /// After the final epoch, or when the pipeline cannot continue: wait
    /// (bounded by the heartbeat timeout) for outstanding acks.
    fn enter_drain(&mut self, now: u64) {
        self.until = Some(now + self.cfg.heartbeat_timeout.as_nanos() as u64);
        self.set_wait(now, Wait::Drain);
    }

    fn fail(&mut self, now: u64, reason: &str) {
        let failures = self.ctx.metrics.counter("producer.feeder_failed");
        if failures.fetch_inc() == 0 {
            eprintln!("tensorsocket: producer pipeline stopped: {reason}");
        }
        self.enter_drain(now);
    }

    fn on_prepared(&mut self, now: u64, msg: FeederMsg, fx: &mut Vec<Effect>) {
        match msg {
            FeederMsg::Item(item) => {
                debug_assert!(self.win.pending.is_none(), "one item in hand at a time");
                self.win.pending = Some((item, now));
                self.set_wait(now, Wait::Window);
            }
            FeederMsg::EpochDone(e) if e == self.win.epoch => {
                self.stats.epochs_completed += 1;
                self.enter_epoch(now, e + 1, fx);
            }
            FeederMsg::EpochDone(_) => {}
            FeederMsg::ArenaDry if self.wants_item() => self.set_wait(now, Wait::Arena),
            FeederMsg::ArenaDry => {}
            FeederMsg::Failed(reason) => self.fail(now, &reason),
        }
    }

    /// The feeder cannot lease a slot. Slots held by un-acked batches come
    /// back on acks, un-logged ones on `Logged`; acked pins come back only
    /// when the join window closes — which takes a publish, which takes
    /// the feeder. So when nothing but such pins holds memory, the window
    /// closes early (joiners then wait for the next epoch).
    fn relieve_arena(&mut self) {
        let w = &self.win;
        let stuck = |(seq, b): (&u64, &LiveBatch)| {
            b.releasable && self.log.as_ref().is_none_or(|l| *seq < l.logged)
        };
        if !w.acks.is_empty() || !w.live.range(w.pins.clone()).any(stuck) {
            return;
        }
        self.win.pins_shut = true;
        if let Some(coord) = &self.coord {
            // Shuts the group's window; an admission already decided but
            // not applied here still needs the pins.
            coord.note_published(self.shard, u64::MAX);
            if coord.pin_window_open(self.shard) {
                return;
            }
        }
        let before = self.win.live.len();
        self.close_join_window();
        let shed = (before - self.win.live.len()) as u64;
        self.inst.stage.pins_shed_for_arena.add(shed);
    }

    // -- publishing -------------------------------------------------------

    /// Publishes the item in hand: register (adopting the feeder's
    /// placements), announce, tee into the log, maintain the pin set.
    fn publish(&mut self, now: u64, fx: &mut Vec<Effect>) {
        let Some((mut item, dequeued_at)) = self.win.pending.take() else {
            return;
        };
        if item.copy_wait_span.0 != 0 && item.copy_wait_span.1 == 0 {
            item.copy_wait_span.1 = dequeued_at;
        }
        self.stats.bytes_staged += item.staged_bytes;
        self.inst.stage.bytes_staged.add(item.staged_bytes);
        let seq = self.win.window.published();
        let (epoch, shard) = (self.win.epoch, self.shard);
        // The batch only now gets its key: spans measured upstream rode on
        // the item. The publish span is the wait for the window.
        for (kind, (start, end)) in [
            (SpanKind::Fetch, item.fetch_span),
            (SpanKind::CopyWait, item.copy_wait_span),
            (SpanKind::H2d, item.h2d_span),
            (SpanKind::Publish, (dequeued_at.max(1), now)),
        ] {
            self.ctx.trace.record(epoch, shard, seq, kind, start, end);
        }
        let progress = self.win.pin_progress();
        if let Some(coord) = &self.coord {
            coord.note_published(shard, progress);
        }
        let batch = LiveBatch {
            epoch,
            index_in_epoch: item.index_in_epoch,
            last_in_epoch: item.last_in_epoch,
            fields: item.fields,
            labels: item.labels,
            releasable: false,
            published_at: now,
        };
        self.register_live(seq, batch, item.placements);
        let ids = self.members.consumers.keys().copied();
        self.win.acks.published(seq, ids.clone());
        if self.cfg.flexible.is_some() {
            // Each consumer gets its own carved view of the producer batch.
            for id in ids.collect::<Vec<_>>() {
                if let Err(e) = self.send_flex_to(id, seq, fx) {
                    return self.fail(now, &format!("carving a flexible batch: {e}"));
                }
            }
        } else {
            let frame = self.pointer_announce(seq).expect("just registered");
            fx.push(send(topics::BATCH, frame));
            self.send_streamed(seq, fx);
        }
        self.inst.announced = Some((epoch, seq));
        let live = &self.win.live[&seq];
        if self.log.is_some() {
            // Metadata-only hand-off; the memory is held until `Logged`.
            fx.push(Effect::Spill(SpillMsg {
                seq,
                epoch,
                index_in_epoch: live.index_in_epoch,
                last_in_epoch: live.last_in_epoch,
                fields: live.fields.clone(),
                labels: live.labels.clone(),
            }));
        }
        if self
            .inst
            .cursor
            .replace((epoch, seq, live.index_in_epoch))
            .is_some()
        {
            self.inst.stage.cursor_coalesced.inc();
        }
        // In a group the pin predicate is global: keep pinning while ANY
        // shard could still admit a joiner, and while a decided admission
        // has not been applied here.
        let open = match &self.coord {
            Some(coord) => coord.pin_window_open(shard),
            None => self
                .policy
                .window_open(progress, self.win.expected_announces),
        };
        if open || self.win.published_in_epoch() == 1 {
            if self.win.pins.is_empty() {
                self.win.pins.start = seq;
            }
            self.win.pins.end = seq + 1;
        } else {
            self.close_join_window();
        }
        self.note_pin_depth();
        self.stats.batches_published += 1;
        self.inst.stage.batches.inc();
        self.set_wait(now, Wait::Item);
    }

    fn register_live(
        &mut self,
        seq: u64,
        batch: LiveBatch,
        mut placements: Vec<Option<Placement>>,
    ) {
        let pool_key = self.coord.as_ref().map(|_| self.shard);
        let arena_bound = self.ctx.registry.arena().is_some();
        // `placements` aligns with fields-then-labels; a short (or empty)
        // vec means no tensor was leased for.
        placements.resize_with(batch.fields.len() + 1, || None);
        let tensors = batch.fields.iter().chain(std::iter::once(&batch.labels));
        for (t, placement) in tensors.zip(placements) {
            match placement {
                // The feeder collated the bytes into this leased slot (for
                // a staged tensor, the slot holds the host bytes the device
                // copy was made from): adopt the lease, move nothing.
                Some(p) => {
                    self.inst.stage.collate_copy_bytes.add(p.copied);
                    let handle = p.lease.into_handle();
                    let registry = &self.ctx.registry;
                    registry.register_placed(t.storage(), handle, p.pool_key);
                }
                None => {
                    // No lease: with an arena bound, registering a storage
                    // it does not already back memcpys it into a slot here.
                    if arena_bound && !t.storage().is_shared_memory() {
                        let copied = &self.inst.stage.publish_copy_bytes;
                        copied.add(t.view_bytes() as u64);
                    }
                    self.ctx.registry.register_for_shard(t.storage(), pool_key);
                }
            }
        }
        self.win.live.insert(seq, batch);
    }

    fn release(&mut self, seq: u64) {
        let Some(batch) = self.win.live.remove(&seq) else {
            return;
        };
        let tensors = batch.fields.iter().chain(std::iter::once(&batch.labels));
        let held: Vec<u64> = tensors.map(Tensor::storage_id).collect();
        // Let go of the tensors first: each views its arena slot, and the
        // slot must not look busy to the feeder that leases it next. A
        // staged tensor's slab goes back to the rotation through its
        // storage's reclaim hook when the last view drops.
        drop(batch);
        for storage_id in held {
            self.ctx.registry.release(storage_id);
        }
    }

    /// True while batch `seq`, though fully acked, must keep its memory:
    /// the spiller has not read it yet, or it is pinned and the log cannot
    /// stand in as the replay source (none bound, or it failed).
    fn must_hold(&self, seq: u64) -> bool {
        let pinned = self.win.pins.contains(&seq);
        match &self.log {
            None => pinned,
            Some(log) => seq >= log.logged || (pinned && log.failed),
        }
    }

    fn on_fully_acked(&mut self, now: u64, seq: u64) {
        let Some(b) = self.win.live.get_mut(&seq) else {
            return;
        };
        b.releasable = true;
        let (epoch, published_at) = (b.epoch, b.published_at);
        let rtt = now.saturating_sub(published_at);
        self.inst.stage.publish_ack.record(rtt);
        // The ack span closes the record: it becomes visible to scrapes.
        let trace = &self.ctx.trace;
        trace.record(epoch, self.shard, seq, SpanKind::Ack, published_at, now);
        trace.complete(epoch, self.shard, seq);
        if !self.must_hold(seq) {
            self.release(seq);
            self.note_pin_depth();
        }
    }

    /// Releases every acked batch nothing holds any more.
    fn release_unheld(&mut self) {
        let live = self.win.live.iter();
        let free: Vec<u64> = live
            .filter(|(seq, b)| b.releasable && !self.must_hold(**seq))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in free {
            self.release(seq);
        }
        self.note_pin_depth();
    }

    fn on_logged(&mut self, up_to: u64, failed: bool) {
        if let Some(log) = &mut self.log {
            log.logged = up_to;
            log.failed = failed;
            self.release_unheld();
        }
    }

    fn close_join_window(&mut self) {
        self.win.pins = 0..0;
        self.release_unheld();
    }

    /// Pin depth counts memory-resident pins: a shed pin's seq stays
    /// replayable from the log but holds no slot.
    fn note_pin_depth(&self) {
        let resident = self.win.live.range(self.win.pins.clone()).count();
        self.inst.stage.pin_depth.set(resident as f64);
    }

    // -- frames -----------------------------------------------------------

    fn announce_of(seq: u64, live: &LiveBatch, content: AnnounceContent) -> DataMsg {
        DataMsg::Batch(BatchAnnounce {
            seq,
            epoch: live.epoch,
            index_in_epoch: live.index_in_epoch,
            last_in_epoch: live.last_in_epoch,
            content,
        })
    }

    /// The pointer announce for live batch `seq`.
    fn pointer_announce(&self, seq: u64) -> Option<Bytes> {
        let live = self.win.live.get(&seq)?;
        let pack = |t: &Tensor| TensorPayload::pack_shared(t, &self.ctx.registry);
        let content = AnnounceContent::Shared {
            fields: live.fields.iter().map(pack).collect(),
            labels: pack(&live.labels),
        };
        Some(Self::announce_of(seq, live, content).encode())
    }

    /// The streamed announce for live batch `seq` as a chunked frame:
    /// small head segments plus the tensors' own memory, borrowed. Built
    /// once; every stream-mode subscriber gets a clone.
    fn encode_streamed(&self, seq: u64) -> Option<Multipart> {
        let live = self.win.live.get(&seq)?;
        let copied = &self.inst.stage.stream_copy_bytes;
        let content = streamed_content(&live.fields, &live.labels, copied);
        let announce = Self::announce_of(seq, live, content);
        Some(Multipart::chunked(announce.encode_segments()))
    }

    /// Sends live batch `seq` as bytes to every stream-mode consumer. Same
    /// seq space as the pointer announce, so window and ack accounting are
    /// shared between the two payload paths.
    fn send_streamed(&mut self, seq: u64, fx: &mut Vec<Effect>) {
        let consumers = self.members.consumers.iter();
        let ids: Vec<u64> = consumers
            .filter(|(_, c)| c.mode == PayloadMode::Stream)
            .map(|(&id, _)| id)
            .collect();
        if ids.is_empty() {
            return;
        }
        let Some(frame) = self.encode_streamed(seq) else {
            return;
        };
        for id in ids {
            self.inst.stage.stream_tx_bytes.add(frame.byte_len() as u64);
            fx.push(Effect::Send {
                topic: topics::consumer(id).into(),
                frame: frame.clone(),
            });
        }
    }

    /// Builds consumer `id`'s flexible announce for producer batch `seq`.
    fn send_flex_to(&mut self, id: u64, seq: u64, fx: &mut Vec<Effect>) -> Result<()> {
        let Some(flex) = &self.cfg.flexible else {
            return Err(TsError::Config("not a flexible producer".into()));
        };
        let consumers = &self.members.consumers;
        let info = consumers
            .get(&id)
            .ok_or_else(|| TsError::Join("unknown consumer".into()))?;
        let live = (self.win.live.get(&seq))
            .ok_or_else(|| TsError::Socket("live batch missing".into()))?;
        let p = live.labels.shape()[0];
        let bs = (info.batch_size as usize).min(p).max(1);
        let order = &flex.order;
        let offset = order.offset_for(info.index, consumers.len().max(1), p);
        let plan = plan_flex(p, bs, offset)?;
        let mut batches = Vec::with_capacity(plan.batches.len());
        for &k in &order.visit_order(id, seq, plan.batches.len()) {
            let segments = &plan.batches[k].segments;
            let carve = |t: &Tensor| -> Result<Vec<TensorPayload>> {
                let narrow = |s: &crate::protocol::flex::Segment| {
                    let view = t.narrow(0, s.start, s.len)?;
                    Ok(TensorPayload::pack_shared(&view, &self.ctx.registry))
                };
                segments.iter().map(narrow).collect()
            };
            batches.push(FlexBatchPayload {
                fields: live.fields.iter().map(carve).collect::<Result<_>>()?,
                labels: carve(&live.labels)?,
            });
        }
        let frame = Self::announce_of(seq, live, AnnounceContent::Flex { batches });
        fx.push(send(topics::consumer(id), frame.encode()));
        Ok(())
    }

    // -- catch-ups --------------------------------------------------------

    /// Advances the front catch-up by one frame, window or not: callers
    /// check [`State::busy`] first, or are the tick forcing a frame out.
    fn replay_one(&mut self, now: u64, fx: &mut Vec<Effect>) {
        let Some(job) = self.members.replays.front_mut() else {
            return;
        };
        let (id, seq, from_log) = (job.consumer, job.next, job.from_log);
        job.next += 1;
        let weight = self.replay_frame(id, seq, from_log, fx);
        let m = &mut self.members;
        match m.replays.front_mut() {
            Some(job) if job.next >= job.end => drop(m.replays.pop_front()),
            Some(job) if weight > 0 => job.sent(now, seq, weight),
            _ => {}
        }
        m.note_inflight();
    }

    /// Sends catch-up frame `seq` to consumer `id`; returns what the frame
    /// weighs in the catch-up window (0: nothing went out). See the module
    /// docs for what a frame weighs.
    fn replay_frame(&mut self, id: u64, seq: u64, from_log: bool, fx: &mut Vec<Effect>) -> u64 {
        let Some(mode) = self.members.consumers.get(&id).map(|c| c.mode) else {
            return 0;
        };
        if !from_log {
            self.ctx.metrics.counter("producer.replays").inc();
        }
        if !from_log && self.cfg.flexible.is_some() {
            self.stats.batches_replayed += 1;
            let first = fx.len();
            let _ = self.send_flex_to(id, seq, fx);
            let sent = fx[first..].iter().map(|effect| match effect {
                Effect::Send { frame, .. } => frame.byte_len() as u64,
                _ => 0,
            });
            return sent.sum();
        }
        let streamed = mode == PayloadMode::Stream;
        let stored = || {
            self.log
                .as_ref()
                .and_then(|l| l.record(seq))
                .map(Found::Stored)
        };
        let live = || {
            let frame = match from_log || streamed {
                true => self.encode_streamed(seq),
                false => self.pointer_announce(seq).map(Multipart::single),
            };
            frame.map(Found::Live)
        };
        // A logged range prefers the stored frame (retention may have
        // dropped it since the plan was made; the batch may still be
        // live). A pin prefers the live batch; a shed pin's stored frame
        // IS the streamed frame, and a consumer rebuilds from bytes in any
        // payload mode.
        let found = match from_log {
            true => stored().or_else(live),
            false => live().or_else(stored),
        };
        if !from_log || found.is_some() {
            self.stats.batches_replayed += 1;
        }
        // A logged range counts as a log replay wherever a frame of it was
        // found; a pin, when its frame came out of the log.
        let out_of_log = from_log || matches!(found, Some(Found::Stored(_)));
        let (frame, len, weight) = match found {
            None => return 0,
            Some(Found::Live(frame)) => {
                let len = frame.byte_len() as u64;
                (frame, len, len)
            }
            Some(Found::Stored(record)) => {
                let len = record.len() as u64;
                let (frame, weight) = match mode {
                    PayloadMode::Shm => self.slot_backed(id, seq, record),
                    PayloadMode::Stream => (Multipart::single(record), len),
                };
                (frame, len, weight)
            }
        };
        if out_of_log {
            self.ctx.metrics.counter("replay.log_batches").inc();
            self.ctx.metrics.counter("replay.log_bytes").add(len);
        }
        if streamed && !from_log {
            self.inst.stage.stream_tx_bytes.add(len);
        }
        fx.push(Effect::Send {
            topic: topics::consumer(id).into(),
            frame,
        });
        weight
    }

    /// Stored frame `seq` for pointer consumer `id`: through arena slots
    /// when they can be leased, held until acked and weighing the slot
    /// bytes they pin; else the stored bytes, counted.
    fn slot_backed(&mut self, id: u64, seq: u64, record: Bytes) -> (Multipart, u64) {
        let placed = self.slot_frame(&record);
        let m = &mut self.members;
        match placed {
            Some((announce, storages, pinned)) => {
                m.slot_frames.inc();
                m.held.push(HeldFrame {
                    consumer: id,
                    seq,
                    storages,
                });
                (Multipart::single(announce), pinned)
            }
            None => {
                m.slot_fallbacks.inc();
                let len = record.len() as u64;
                (Multipart::single(record), len)
            }
        }
    }

    /// Copies stored frame `record` — a streamed batch, decoded in place,
    /// so its tensors are slices of the log's mapping — into arena slots of
    /// this shard's pool, one per tensor, and registers them. Returns the
    /// pointer announce for the copies, their storage ids and the slot
    /// bytes they pin; `None` when the record is not a streamed batch or a
    /// slot cannot be leased right now (nothing stays leased then).
    fn slot_frame(&self, record: &Bytes) -> Option<(Bytes, Vec<u64>, u64)> {
        let shard = self.coord.as_ref().map(|_| self.shard);
        let (pool, pool_key) = self.ctx.registry.lease_pool(shard)?;
        let Ok(DataMsg::Batch(mut announce)) = DataMsg::decode_shared(record) else {
            return None;
        };
        let AnnounceContent::Streamed { fields, labels } = &announce.content else {
            return None;
        };
        // The one copy, record to slot. A lease dropped on the way (the
        // next one failed) frees its slot.
        let cpu = DeviceId::Cpu;
        let copy = |t: &StreamedTensor| {
            let view = t.to_tensor(cpu).ok()?;
            collate::cat0_leased(&[view], &pool, cpu).ok()
        };
        let leased: Vec<_> = fields
            .iter()
            .chain([labels])
            .map(copy)
            .collect::<Option<_>>()?;
        let pinned = (leased.len() * pool.arena().slot_size()) as u64;
        let registry = &self.ctx.registry;
        let mut tensors: Vec<Tensor> = leased
            .into_iter()
            .map(|(tensor, lease)| {
                registry.register_placed(tensor.storage(), lease.into_handle(), pool_key);
                tensor
            })
            .collect();
        let storages = tensors.iter().map(Tensor::storage_id).collect();
        let pack = |t: &Tensor| TensorPayload::pack_shared(t, registry);
        let labels = tensors.pop().expect("labels come last");
        announce.content = AnnounceContent::Shared {
            fields: tensors.iter().map(pack).collect(),
            labels: pack(&labels),
        };
        Some((DataMsg::Batch(announce).encode(), storages, pinned))
    }

    /// `Ready` landed: queue the pinned prefix this consumer was admitted
    /// behind. Arrival order is queue order, so every joiner gets exactly
    /// one complete catch-up.
    fn queue_pin_replay(&mut self, id: u64) {
        let Some(info) = self.members.consumers.get(&id) else {
            return;
        };
        if !info.pins.is_empty() {
            let job = ReplayJob::new(id, false, info.pins.clone());
            self.members.replays.push_back(job);
        }
    }

    // -- control ----------------------------------------------------------

    fn log_ad(&self) -> Option<LogAd> {
        let log = self.log.as_ref().filter(|l| !l.failed)?;
        // The inverted range advertises a log that has retained nothing
        // yet, so group consumers register cursors from the first batch.
        let (retained_min, retained_max) = log.log.lock().retained_range().unwrap_or((1, 0));
        Some(LogAd {
            retained_min,
            retained_max,
        })
    }

    fn on_ctrl(&mut self, now: u64, frame: &Bytes, fx: &mut Vec<Effect>) {
        let Ok(ctrl) = CtrlMsg::decode_shared(frame) else {
            return;
        };
        let metrics = &self.ctx.metrics;
        let trace = &self.ctx.trace;
        // HELLO, stats and trace scrapes carry a one-shot reply token, not
        // a consumer id: answered statelessly, in every wait state, and
        // never let near the heartbeat monitor.
        match ctrl {
            CtrlMsg::Hello { token, caps: c, .. } => {
                if c & !caps::KNOWN != 0 {
                    metrics.counter("producer.hello_unknown_caps").inc();
                }
                // Whatever version the HELLO declares, the answer is this
                // build's WELCOME; the caller compares versions.
                let mut info = self.members.welcome.clone();
                info.log = self.log_ad();
                let reply = DataMsg::Welcome { token, info };
                return fx.push(send(topics::hello(token), reply.encode()));
            }
            CtrlMsg::StatsRequest { token, seq, .. } => {
                metrics.gauge("trace.dropped").set(trace.dropped() as f64);
                metrics.gauge("trace.capacity").set(trace.capacity() as f64);
                let mut payload = StatsPayload::from_registry(metrics);
                payload.uptime_ns = now.saturating_sub(self.inst.started);
                payload.snapshot_ns = now;
                payload.verdict = trace.verdict();
                // `seq` echoes the scraper's per-attempt stamp.
                let reply = DataMsg::Stats {
                    token,
                    payload,
                    seq,
                };
                return fx.push(send(topics::stats(token), reply.encode()));
            }
            CtrlMsg::TraceRequest {
                token, seq, max, ..
            } => {
                let payload = TracePayload {
                    version: WIRE_VERSION,
                    now_ns: now,
                    records: trace.last_n((max as usize).clamp(1, 256)),
                };
                let reply = DataMsg::Trace {
                    token,
                    payload,
                    seq,
                };
                return fx.push(send(topics::trace(token), reply.encode()));
            }
            CtrlMsg::Unknown { tag } => {
                if metrics.counter("producer.ctrl_unknown").fetch_inc() == 0 {
                    eprintln!("tensorsocket: ignoring unknown ctrl tag {tag} (newer peer?)");
                }
                return;
            }
            _ => {}
        }
        let id = ctrl.consumer_id();
        if self.members.knows(id) {
            self.members.hb.beat(id, now);
        } else if !matches!(ctrl, CtrlMsg::Join { .. }) {
            // An id that never joined (or already left) owes nothing and
            // must not grow the heartbeat monitor.
            return metrics.counter("producer.ctrl_unknown_consumer").inc();
        }
        match ctrl {
            CtrlMsg::Join {
                consumer_id,
                batch_size,
                mode,
            } => self.on_join(now, consumer_id, batch_size, mode, fx),
            CtrlMsg::Ready { consumer_id } if self.members.awaiting_ready.remove(&consumer_id) => {
                self.members.join_replies.remove(&consumer_id);
                self.queue_pin_replay(consumer_id);
            }
            CtrlMsg::Ack { consumer_id, seq } => {
                self.win.window.on_ack(consumer_id, seq);
                if self.win.acks.on_ack(consumer_id, seq) {
                    self.on_fully_acked(now, seq);
                }
                // A catch-up's window opens on its consumer's acks.
                let m = &mut self.members;
                if !m.replays.is_empty() {
                    let jobs = m.replays.iter_mut();
                    for job in jobs.filter(|job| job.consumer == consumer_id) {
                        job.acked(now, seq);
                    }
                    m.note_inflight();
                }
                // ... and its slot-backed frames up to `seq` let go.
                if !m.held.is_empty() {
                    let acked = |h: &HeldFrame| h.consumer == consumer_id && h.seq <= seq;
                    m.release_held(&self.ctx.registry, acked);
                }
                // The group cursor advances in memory per ack (a replayed
                // old seq is ignored as a regression) and is persisted per
                // tick: a crash re-delivers at most one tick of acked
                // batches.
                if let Some(log) = &mut self.log {
                    if let Some(group) = log.groups.get(&consumer_id) {
                        log.cursors.advance_mem(group, self.shard, seq + 1);
                    }
                }
            }
            CtrlMsg::Replay {
                consumer_id,
                group,
                from,
            } => self.on_replay(consumer_id, group, from, fx),
            CtrlMsg::Leave { consumer_id } => self.remove_consumer(now, consumer_id, false, fx),
            _ => {} // Heartbeat: the beat above was the point
        }
    }

    fn reply_join(&self, id: u64, decision: JoinDecision, fx: &mut Vec<Effect>) -> Bytes {
        let reply = DataMsg::JoinReply {
            consumer_id: id,
            decision,
        }
        .encode();
        fx.push(send(topics::consumer(id), reply.clone()));
        reply
    }

    fn on_join(
        &mut self,
        now: u64,
        id: u64,
        batch_size: u32,
        mode: PayloadMode,
        fx: &mut Vec<Effect>,
    ) {
        if self.members.knows(id) {
            return; // duplicate join
        }
        let reject = match &self.cfg.flexible {
            // The WELCOME never grants STREAM from a flexible producer.
            Some(_) if mode == PayloadMode::Stream => {
                Some("flexible producers serve shm payloads only".to_string())
            }
            Some(flex) if batch_size == 0 || batch_size as usize > flex.producer_batch => {
                let max = flex.producer_batch;
                Some(format!(
                    "batch size {batch_size} exceeds producer batch {max}"
                ))
            }
            _ => None,
        };
        if let Some(reason) = reject {
            self.reply_join(id, JoinDecision::Reject { reason }, fx);
            self.stats.joins_rejected += 1;
            return;
        }
        let w = &self.win;
        let (at_epoch_start, at_current) = (w.epoch_start_seq, w.window.next_seq());
        let nobody = self.members.consumers.is_empty();
        let start_seq = match &self.coord {
            // One shard of a group: admission is decided ONCE for the group
            // (first shard to ask decides, against global state). A decision
            // stamped with an epoch this shard has not begun means the
            // barrier opened while it was still parked: its pins and
            // `epoch_start_seq` are the previous epoch's, so defer.
            Some(coord) => match coord.decide_join(now, id) {
                (GroupJoin::WaitNextEpoch, _) => None,
                (_, decided_for) if decided_for != w.pin_epoch => None,
                (GroupJoin::AdmitReplay, _) => Some(at_epoch_start),
                (GroupJoin::AdmitAtCurrent, _) => Some(at_current),
            },
            // Mid-epoch with nobody attached ("consumers may join training
            // at any point in an epoch", §3.3.1): nothing to halt, nothing
            // to replay.
            None if nobody && w.published_in_epoch() > 0 => Some(at_current),
            None => match self.policy.decide(w.pin_progress(), w.expected_announces) {
                JoinOutcome::AdmitReplay { .. } => Some(at_epoch_start),
                JoinOutcome::WaitNextEpoch => None,
            },
        };
        match start_seq {
            Some(start_seq) => self.admit(now, id, batch_size, mode, start_seq, fx),
            None => {
                self.ctx.metrics.counter("producer.joins_parked").inc();
                self.members.pending_join.push((id, batch_size, mode));
                self.members.hb.beat(id, now);
                let epoch = self.win.epoch + 1;
                self.reply_join(id, JoinDecision::WaitEpoch { epoch }, fx);
            }
        }
    }

    /// Admits a consumer whose live stream starts at `start_seq`: the
    /// epoch's first seq (everything already out is replayed on `Ready`;
    /// joining the window there halts publishing until the joiner catches
    /// up — the rubberband) or the current position (nothing to replay).
    fn admit(
        &mut self,
        now: u64,
        id: u64,
        batch_size: u32,
        mode: PayloadMode,
        start_seq: u64,
        fx: &mut Vec<Effect>,
    ) {
        let m = &mut self.members;
        let pins = &self.win.pins;
        let replayed = start_seq.max(pins.start)..pins.end.max(start_seq);
        let info = ConsumerInfo {
            batch_size,
            index: m.consumers.len(),
            mode,
            start_seq,
            pins: replayed.clone(),
        };
        m.consumers.insert(id, info);
        m.awaiting_ready.insert(id);
        m.hb.beat(id, now);
        self.stats.peak_consumers = self.stats.peak_consumers.max(m.consumers.len());
        let w = &mut self.win;
        w.window.add_consumer(id, start_seq);
        // The joiner owes an ack for everything it will be replayed —
        // including pins the others already fully acked.
        w.acks
            .add_consumer_to_range(id, start_seq, w.window.next_seq());
        for (&seq, b) in w.live.range_mut(replayed) {
            if std::mem::take(&mut b.releasable) {
                w.acks.published(seq, [id]);
            }
        }
        let decision = JoinDecision::AdmitReplay {
            // Not `epoch`, which may already name the next one while this
            // shard is parked at the barrier.
            epoch: w.pin_epoch,
            replay_from: start_seq - w.epoch_start_seq,
            num_batches: w.expected_announces,
            start_seq,
        };
        let reply = self.reply_join(id, decision, fx);
        self.members.join_replies.insert(id, reply);
        if let Some(coord) = &self.coord {
            coord.note_members(self.shard, self.members.consumers.len());
            coord.applied(now, self.shard, id);
        }
    }

    fn remove_consumer(&mut self, now: u64, id: u64, notify: bool, fx: &mut Vec<Effect>) {
        let m = &mut self.members;
        m.consumers.remove(&id);
        if let Some(coord) = &self.coord {
            // A decided admission for a gone consumer must not keep the
            // group's pins alive or wedge the barrier.
            coord.abandon(now, id);
            coord.note_members(self.shard, m.consumers.len());
        }
        m.awaiting_ready.remove(&id);
        m.join_replies.remove(&id);
        m.pending_join.retain(|(j, ..)| *j != id);
        m.replays.retain(|job| job.consumer != id);
        m.release_held(&self.ctx.registry, |h| h.consumer == id);
        m.note_inflight();
        m.hb.remove(id);
        if let Some(log) = &mut self.log {
            log.groups.remove(&id);
            log.log_infos.remove(&id);
        }
        self.win.window.remove_consumer(id);
        for seq in self.win.acks.remove_consumer(id) {
            self.on_fully_acked(now, seq);
        }
        if notify {
            let msg = DataMsg::Detached { consumer_id: id };
            fx.push(send(topics::consumer(id), msg.encode()));
        }
    }

    /// Answers a `Replay` from a group member: resolve the start (cursor /
    /// oldest / explicit, floored at what the log retains, capped at the
    /// consumer's live splice point), register the group cursor, answer
    /// `LogInfo`, and queue the logged range `[start, live_seq)` so it
    /// splices gaplessly onto the live feed.
    ///
    /// A sole consumer was admitted at the current position, so the logged
    /// gap behind it is replayed: exactly-once from its last acked batch.
    /// A member rejoining beside active consumers was admitted at the
    /// epoch start; a cursor past that is capped down to it and the
    /// rubberband replay re-delivers the epoch — epoch-coherent, with the
    /// acked prefix ignored as cursor regressions.
    fn on_replay(&mut self, id: u64, group: String, from: ReplayFrom, fx: &mut Vec<Effect>) {
        self.ctx.metrics.counter("producer.replay_requests").inc();
        let Some(live_seq) = self.members.consumers.get(&id).map(|c| c.start_seq) else {
            return; // only an admitted consumer is replayed to
        };
        let shard = self.shard;
        let pin_epoch = self.win.pin_epoch;
        let Some(log) = &mut self.log else {
            // No log: nothing behind the splice point, live-only.
            let info = DataMsg::LogInfo {
                consumer_id: id,
                start_seq: live_seq,
                start_epoch: pin_epoch,
                start_index: 0,
                live_seq,
                retained_min: 0,
                retained_max: 0,
            };
            return fx.push(send(topics::consumer(id), info.encode()));
        };
        // Requests are resent until answered; the plan is computed once
        // and the same frame re-sent, so a lost answer cannot fork the
        // stream.
        if let Some(frame) = log.log_infos.get(&id) {
            return fx.push(send(topics::consumer(id), frame.clone()));
        }
        let retained = (!log.failed)
            .then(|| log.log.lock().retained_range())
            .flatten();
        let (start, rmin, rmax) = match retained {
            Some((rmin, rmax)) => {
                let want = match from {
                    ReplayFrom::Cursor => log.cursors.load(&group, shard).unwrap_or(rmin),
                    ReplayFrom::Oldest => rmin,
                    ReplayFrom::Seq(n) => n,
                };
                (replay_start(want, rmin, live_seq), rmin, rmax)
            }
            None => (live_seq, 0, 0),
        };
        // Coordinates of the first replayed batch, so the consumer can
        // seed its shard-interleave cursor at the splice point.
        let meta = (start < live_seq)
            .then(|| log.log.lock().meta(start))
            .flatten();
        let (start_epoch, start_index) = match (meta, self.win.live.get(&start)) {
            (Some(m), _) => (m.epoch, m.index_in_epoch),
            (None, Some(b)) if start < live_seq => (b.epoch, b.index_in_epoch),
            _ => (pin_epoch, 0),
        };
        let _ = log.cursors.register(&group, shard, start);
        log.groups.insert(id, group);
        let info = DataMsg::LogInfo {
            consumer_id: id,
            start_seq: start,
            start_epoch,
            start_index,
            live_seq,
            retained_min: rmin,
            retained_max: rmax,
        };
        let frame = info.encode();
        log.log_infos.insert(id, frame.clone());
        fx.push(send(topics::consumer(id), frame));
        if start < live_seq {
            // Ahead of this consumer's own pin replay, if that is queued:
            // it delivers — and acks — the logged range first, and a window
            // full of pin frames it cannot ack yet would wait out a tick
            // per frame.
            let replays = &mut self.members.replays;
            let own = replays.iter().position(|job| job.consumer == id);
            let job = ReplayJob::new(id, true, start..live_seq);
            replays.insert(own.unwrap_or(replays.len()), job);
        }
    }

    // -- the tick ---------------------------------------------------------

    fn housekeeping(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.inst.next_tick = now + TICK_NS;
        self.inst.ticks += 1;
        // Nudge joiners that have not said Ready.
        for (&id, reply) in &self.members.join_replies {
            fx.push(send(topics::consumer(id), reply.clone()));
        }
        // However bursty publishing was, subscribers see at most one
        // cursor frame per tick, and it is the current one.
        if let Some((epoch, seq, index_in_epoch)) = self.inst.cursor.take() {
            let msg = DataMsg::Cursor {
                shard: self.shard,
                epoch,
                seq,
                index_in_epoch,
            };
            fx.push(send(topics::CURSOR, msg.encode()));
        }
        if self.inst.ticks.is_multiple_of(4) {
            self.watchdog_sweep(now);
        }
        // The catch-up window paces, it never decides liveness: a consumer
        // that owes acks it will not send (it skipped the frames, or waits
        // for one that was lost) still gets the rest, a frame per tick.
        let front = self.members.replays.front();
        let silent = |job: &ReplayJob| now.saturating_sub(job.moved_at) >= TICK_NS;
        if front.is_some_and(|job| !job.gate_open() && silent(job)) {
            self.members.gate_timeouts.inc();
            self.replay_one(now, fx);
        }
        self.log_maintenance();
        for dead in self.members.hb.expire(now) {
            let attached = self.members.consumers.contains_key(&dead);
            if attached {
                self.stats.consumers_detached += 1;
                self.ctx.metrics.counter("producer.detached").inc();
            }
            self.remove_consumer(now, dead, attached, fx);
        }
    }

    /// Persists coalesced group-cursor advances, then applies segment
    /// retention floored at the slowest group cursor AND the oldest pin (a
    /// shed pin's log frame is its replay source), and refreshes the
    /// `log.*` gauges.
    fn log_maintenance(&mut self) {
        let pin_floor = (!self.win.pins.is_empty()).then_some(self.win.pins.start);
        let next_seq = self.win.window.next_seq();
        let Some(log) = &mut self.log else {
            return;
        };
        // Flush BEFORE retention so the on-disk resume point is never
        // behind a reclamation decision; on a failed flush skip retention
        // rather than delete segments a stale cursor may still need.
        let cursors_clean = log.cursors.flush().is_ok();
        let floor = match (log.cursors.min_cursor(self.shard), pin_floor) {
            (Some(c), Some(p)) => Some(c.min(p)),
            (c, p) => c.or(p),
        };
        let mut segments = log.log.lock();
        if cursors_clean {
            segments.apply_retention(floor);
        }
        log.lag.set(next_seq.saturating_sub(log.logged) as f64);
        if let Some((min, max)) = segments.retained_range() {
            log.retained_min.set(min as f64);
            log.retained_max.set(max as f64);
        }
    }

    /// One stall-watchdog sweep. A batch un-acked longer than
    /// [`ProducerConfig::watchdog_stall_multiple`] × the ack round trip's
    /// p99 (with an absolute floor) is **consumer-straggler** (a strict
    /// subset of consumers owes it; the lowest id is named) or
    /// **ack-bound** (everyone does). With nothing outstanding the wait
    /// state says where the time goes: parked on [`Wait::Item`] is
    /// **loader-bound** (or **h2d-bound**, whichever upstream p99 is
    /// slower), parked on [`Wait::Arena`] is **arena-bound**, naming what
    /// holds the slots. Each distinct stall counts once under
    /// `watchdog.stalls.<class>` and replaces the verdict in stats
    /// snapshots and the `ts-top` header.
    fn watchdog_sweep(&mut self, now: u64) {
        /// Below this age nothing is a stall, whatever the p99 says.
        const FLOOR_NS: u64 = 25_000_000;
        let multiple = self.cfg.watchdog_stall_multiple.max(1.0);
        let threshold = |p99: u64| ((p99 as f64 * multiple) as u64).max(FLOOR_NS);
        let (w, stage) = (&self.win, &self.inst.stage);
        // Oldest un-acked batch first: it bounds the publish window.
        let oldest = w.live.iter().find_map(|(&seq, b)| {
            let owers = w.acks.owers(seq)?;
            let min_ower = owers.iter().min().copied().unwrap_or(0);
            Some((seq, b.epoch, now - b.published_at, owers.len(), min_ower))
        });
        let idle = now.saturating_sub(self.inst.wait_since);
        let ms = |ns: u64| ns / 1_000_000;
        let (memo, class, verdict) = if let Some((seq, epoch, age, nowers, min_ower)) = oldest {
            if age <= threshold(stage.publish_ack.snapshot().p99()) {
                return;
            }
            let stuck = ms(age);
            if nowers < self.members.consumers.len() {
                let v = format!("consumer-straggler consumer={min_ower} seq={seq} stuck {stuck}ms");
                ((epoch, seq), "consumer", v)
            } else {
                let v =
                    format!("ack-bound seq={seq} stuck {stuck}ms awaiting {nowers} consumer(s)");
                ((epoch, seq), "ack", v)
            }
        } else {
            let fetch_p99 = stage.feeder_fetch.snapshot().p99();
            let h2d_p99 = stage.h2d.as_ref().map_or(0, |h| h.snapshot().p99());
            let next = w.window.next_seq();
            let (class, verdict) = match self.wait {
                Wait::Arena if idle > FLOOR_NS => {
                    let unlogged = |s: &u64| self.log.as_ref().is_some_and(|l| *s >= l.logged);
                    let held = w.live.keys().filter(|s| unlogged(s)).count();
                    let pins = w.live.range(w.pins.clone()).count();
                    let v = format!(
                        "arena-bound parked {}ms before seq={next}: {} live batch(es) hold \
                         slots, {pins} pinned, {held} un-logged",
                        ms(idle),
                        w.live.len()
                    );
                    ("arena", v)
                }
                Wait::Item if idle > threshold(fetch_p99) => {
                    let class = if h2d_p99 > fetch_p99 { "h2d" } else { "loader" };
                    let v = format!("{class}-bound idle {}ms before seq={next}", ms(idle));
                    (class, v)
                }
                _ => return,
            };
            ((w.epoch, next), class, verdict)
        };
        if self.inst.watchdog_memo == Some(memo) {
            return; // same stall, already counted
        }
        self.inst.watchdog_memo = Some(memo);
        let stalls = format!("watchdog.stalls.{class}");
        self.ctx.metrics.counter(&stalls).inc();
        self.ctx.trace.set_verdict(&verdict);
    }
}

#[cfg(test)]
#[path = "step_tests.rs"]
mod step_tests;
