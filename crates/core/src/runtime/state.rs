//! The producer's decisions as a plain state machine: `State::step`
//! takes the time, one `Event` and a buffer for `Effect`s, and touches
//! no socket, no thread and no clock.
//!
//! One `State` is one shard. The pump in `crate::runtime::pump` owns every
//! shard's and is the only caller in production: it blocks in one place,
//! turns whatever woke it into an event for one shard, steps the group
//! (`crate::runtime::group`: the shard's `step`, then the rules that span
//! shards), and executes each shard's effects in order. Tests step a group
//! directly with a `u64` they advance by hand, which makes every decision
//! in here — admission, replay order, release, expiry, the wait state —
//! checkable without a sleep.
//!
//! What the state owns is in-memory only: the shared registry (placing and
//! releasing payloads), the metrics registry and flight recorder
//! (recording, never reading a clock) and the durable log's read side.
//! What it knows of the other shards it is handed with each step, as
//! `Siblings`. Device staging happens upstream, in the pump's copy
//! stage; an item reaches `step` on the device it is published from.
//! The fields split along
//! four seams: `Membership` (who is attached, admission, heartbeats, the
//! replay queue), `Window` (the ack cursors, live batches, pins, the epoch
//! position), `LogTee` (the durable log as seen from the publish side) and
//! `Instruments` (metrics, cadence, watchdog).
//!
//! **Acks are cumulative.** A consumer delivers a shard's batches in seq
//! order and acks them in that order, so an ack of `seq` covers every seq
//! before it. One acked-through word per consumer ([`Cursors`]) is the
//! whole ack book: the publish window, release (a batch is fully acked
//! below the frontier), the watchdog's owers, a catch-up's window and its
//! held frames all read it that way. An ack at or past the next seq names
//! no batch and is refused before any of them sees it
//! (`producer.acks_refused`).
//!
//! **Wait states.** At any moment the producer is waiting for exactly one
//! thing, [`Wait`]: the group barrier, a ready consumer, the next prepared
//! item, the publish window, an arena slot (the feeder is parked on a dry
//! pool), or the final acks. Control frames, `Logged` notices and ticks
//! are handled the same way in all of them.
//!
//! **Replays are jobs, not loops.** A catch-up (rubberband pins or a
//! logged range) is queued as `{consumer, source, next, end}` and advanced
//! one frame per `step`. A pin catch-up halts publishing until it is done
//! (the rubberband "halt everyone while the joiner catches up"). A logged
//! range is a lane beside live publishing: it sends only seqs already
//! published, so a parked group member can be sent its history up to the
//! next epoch's first seq while the others train on. A `Leave` or an
//! expiry between two frames simply removes the job.
//!
//! **A catch-up has a window, like live publishing.** The job remembers
//! what it sent and its consumer has not acked yet, and sends only while
//! those bytes are under `CATCH_UP_BUDGET` — never fewer than
//! `CATCH_UP_MIN_FRAMES` frames.
//! Reading the log outruns any receiver, so without the window a late
//! group's whole history would queue up in its process. While the gate is
//! shut `busy` is false and the pump parks until the next ack rings it.
//! Every frame is looked up when it is sent, never before: the range of a
//! logged job ends at its consumer's first live seq, not at what the
//! spiller has appended, and a batch the log does not have yet is still
//! live (a parked member's lane alone waits for the spiller). The gate paces, it never decides liveness: after a whole tick
//! without an ack from the consumer one frame goes anyway
//! (`replay.gate_timeouts`).
//!
//! **What a frame weighs.** A frame out of the log for a pointer (`Shm`)
//! consumer does not cross the socket as bytes: the stored streamed frame
//! is decoded in place, the batch's tensors are copied into one arena slot
//! leased from the shard's pool (one user-space copy, no kernel copy;
//! first-fit into more when slots are narrower than a batch), and a
//! ~100-byte pointer announce goes out instead. The slots stay registered
//! until that consumer acks the frame or leaves (`HeldFrame`), so such a
//! frame weighs the slot bytes it pins — the slot size times its slots —
//! and the budget bounds arena memory the way it bounds socket memory for
//! a stream consumer, whose frame weighs its own bytes. When no slot can
//! be leased the stored bytes go instead, counted
//! (`replay.[s<N>.]slot_fallbacks`): a catch-up never waits on the arena,
//! because publishing may wait on the catch-up.
//!
//! Every consumer's jobs move side by side, each behind its own window;
//! one consumer's run in arrival order, with one exception: its logged
//! range goes ahead of its own pin replay (a rejoining group member gets
//! the pins on `Ready` and the range on `Replay`). It delivers, and so
//! acks, the older range first; behind a window of pin frames it cannot
//! ack yet the range would wait out a tick per frame.
//!
//! **A parked member's lane.** A group member told to wait for the next
//! epoch asks `Replay` at once, and is answered with the range from its
//! group cursor to the first seq of the next epoch — exactly where the
//! boundary will admit it. Its acks feed that lane's window, its held
//! frames and its group cursor; it owes no live batch yet and has no
//! cursor in [`Cursors`], so they release nothing there.

use crate::protocol::cursors::Cursors;
use crate::protocol::heartbeat::HeartbeatMonitor;
use crate::protocol::messages::{
    caps, topics, AnnounceContent, ArenaAd, BatchAnnounce, CtrlMsg, DataMsg, JoinDecision, LogAd,
    PayloadMode, ReplayFrom, StatsPayload, StreamedTensor, TracePayload, WelcomeInfo, WIRE_VERSION,
};
use crate::protocol::rubberband::{admission, Admission, RubberbandPolicy, ShardStand};
use crate::runtime::config::ProducerConfig;
use crate::runtime::context::TsContext;
use crate::runtime::group::Siblings;
use crate::runtime::producer::{replay_start, streamed_content, ProducerStats};
use crate::runtime::staging::{FeederMsg, PreparedItem, WELCOME_STAGING};
use bytes::Bytes;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::{Range, RangeBounds};
use std::sync::Arc;
use ts_device::DeviceId;
use ts_log::{BatchLog, CursorStore};
use ts_metrics::{Counter, Gauge, Histogram, SpanKind};
use ts_shm::ShmLease;
use ts_socket::Multipart;
use ts_tensor::{collate, SharedRegistry, Storage, Tensor, TensorPayload};

/// Housekeeping cadence: join-reply nudges, the cursor broadcast, log
/// retention and heartbeat expiry run once per tick, the watchdog every
/// fourth.
const TICK_NS: u64 = 25_000_000;
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
    /// Finished the epoch; waits for every other shard to finish theirs
    /// (a producer of one shard passes straight through).
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
    /// Arena slots held by live batches (pins among them) and slot-backed
    /// catch-up frames.
    slots_live: Arc<Gauge>,
    /// Bytes sent over the streamed payload path.
    stream_tx_bytes: Arc<Counter>,
    /// Bytes gathered to build a streamed frame from a non-contiguous view.
    pub stream_copy_bytes: Arc<Counter>,
    /// Frames the data socket refused.
    pub stream_tx_errors: Arc<Counter>,
    /// Payload bytes the feeder copied into a leased slot because the
    /// batch did not arrive placed (anything but a loader-built batch):
    /// every byte the producer copies into its arena.
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
            slots_live: metrics.gauge(&format!("{prefix}slots_live")),
            stream_tx_bytes: counter("stream_tx_bytes"),
            stream_copy_bytes: counter("stream_copy_bytes"),
            stream_tx_errors: counter("stream_tx_errors"),
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
    published_at: u64,
    /// Arena slots registered for it: one per storage when placed, 0 on
    /// the heap.
    slots: u64,
}

impl LiveBatch {
    /// The batch's storages, fields then labels, each once: a run of
    /// tensors over one storage (a batch packed into one slot) is one.
    fn storages(&self) -> impl Iterator<Item = &Arc<Storage>> {
        let mut last = None;
        let tensors = self.fields.iter().chain([&self.labels]);
        tensors
            .filter(move |t| last.replace(t.storage_id()) != Some(t.storage_id()))
            .map(Tensor::storage)
    }
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

    /// True when its next frame has been published, with `next_seq` the
    /// seq the next publish takes: a parked member's lane runs up to the
    /// next epoch, and waits for publishing to get there.
    fn has_frame(&self, next_seq: u64) -> bool {
        self.next < self.end.min(next_seq)
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
/// storages (one per slot) stay registered until `consumer` acks `seq` (or
/// anything after it) or leaves. The ledger outlives the job that sent
/// the frame, which leaves the queue with its last send, before its last
/// acks.
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
    /// Ordered by id, like every map `step` walks: two states stepped
    /// alike emit their effects in one order.
    consumers: BTreeMap<u64, ConsumerInfo>,
    /// Admitted, `Ready` not seen yet (a subset of `consumers`).
    awaiting_ready: HashSet<u64>,
    /// Encoded `JoinReply` per consumer awaiting `Ready`, re-sent every
    /// tick: the reply can go out while the joiner's subscription is still
    /// propagating.
    join_replies: BTreeMap<u64, Bytes>,
    /// Told to wait for the next epoch: `(id, mode, index)`.
    pending_join: Vec<(u64, PayloadMode, u32)>,
    replays: VecDeque<ReplayJob>,
    /// Slot-backed catch-up frames not acked yet, oldest first.
    held: Vec<HeldFrame>,
    /// Un-acked bytes of every catch-up (`replay.[s<N>.]inflight_bytes`).
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
        self.consumers.contains_key(&id) || self.parked(id).is_some()
    }

    /// How consumer `id`, told to wait for the next epoch, is paid.
    fn parked(&self, id: u64) -> Option<PayloadMode> {
        let mut pending = self.pending_join.iter();
        pending.find(|(j, ..)| *j == id).map(|&(_, mode, _)| mode)
    }

    /// True while a rubberband catch-up holds publishing. Asked on every
    /// step, nearly always of an empty queue.
    fn halting(&self) -> bool {
        !self.replays.is_empty() && self.replays.iter().any(|job| !job.from_log)
    }

    /// The job that moves next: the first that has a frame to send —
    /// below `next_seq`, or for a parked member below `logged` — and that
    /// `may_send` lets out, with no job of its consumer queued ahead of it.
    fn movable(
        &self,
        (next_seq, logged): (u64, u64),
        may_send: impl Fn(&ReplayJob) -> bool,
    ) -> Option<usize> {
        let first_of_its_consumer = |at: usize| {
            let consumer = self.replays[at].consumer;
            !self.replays.range(..at).any(|j| j.consumer == consumer)
        };
        let up_to = |job: &ReplayJob| match self.parked(job.consumer) {
            Some(_) => logged,
            None => next_seq,
        };
        let jobs = self.replays.iter().enumerate();
        jobs.filter(|(_, job)| job.has_frame(up_to(job)) && may_send(job))
            .map(|(at, _)| at)
            .find(|&at| first_of_its_consumer(at))
    }

    fn note_inflight(&self) {
        let unacked = self
            .replays
            .iter()
            .map(|job| job.unacked_bytes)
            .sum::<u64>();
        self.inflight_bytes.set(unacked as f64);
    }

    /// Releases the slots of every held frame `done` picks; returns how
    /// many.
    fn release_held(
        &mut self,
        registry: &SharedRegistry,
        done: impl Fn(&HeldFrame) -> bool,
    ) -> u64 {
        let mut freed = 0;
        self.held.retain(|frame| {
            if !done(frame) {
                return true;
            }
            for &storage in &frame.storages {
                registry.release(storage);
            }
            freed += frame.storages.len() as u64;
            false
        });
        freed
    }
}

/// What is out: the ack cursors, live batches, pins, and where in the
/// epoch the stream stands. A live batch below the frontier is fully acked
/// and held only by a pin or the spiller. No per-batch step walks `live`
/// or `pins`: the pin count moves with each batch entering or leaving the
/// range, and only the per-epoch `close_join_window` scans them.
struct Window {
    cursors: Cursors,
    live: BTreeMap<u64, LiveBatch>,
    /// Seqs pinned for rubberband replay: contiguous, ending at the next
    /// seq while the join window is open, empty otherwise.
    pins: Range<u64>,
    /// Live batches whose seq lies in `pins` (a shed pin's seq stays in
    /// the range but holds no memory), kept per event for the gauge.
    pins_resident: u64,
    /// The join window was closed early to relieve a dry arena; stays shut
    /// until the next epoch.
    pins_shut: bool,
    /// The dequeued item waiting for the window, and when it arrived.
    pending: Option<(PreparedItem, u64)>,
    epoch: u64,
    /// The epoch `epoch_start_seq` and the pins belong to. Lags `epoch` by
    /// one while a shard waits at the barrier: a `LogInfo` or `WaitEpoch`
    /// it answers then speaks of the epoch whose pins it still holds.
    pin_epoch: u64,
    epoch_start_seq: u64,
    /// Announcements per epoch (loader batches, or producer batches under
    /// flexible sizing).
    expected_announces: u64,
}

impl Window {
    fn published_in_epoch(&self) -> u64 {
        self.cursors.next_seq() - self.epoch_start_seq
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
    /// [`BatchLog::mapped_bytes`]: what the log keeps resident by its own
    /// books, published with `lag`.
    mapped_bytes: Arc<Gauge>,
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
            mapped_bytes: metrics.gauge(&format!("{prefix}mapped_bytes")),
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
    /// Arena slots registered by live batches and held catch-up frames,
    /// kept per event for `stage.[s<N>.]slots_live`.
    slots_live: u64,
}

/// A join this shard decided for the group, to be applied on the others.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Joiner {
    id: u64,
    mode: PayloadMode,
    admission: Admission,
}

/// One shard's whole decision state. See the module docs.
pub(crate) struct State {
    pub(crate) cfg: ProducerConfig,
    pub(crate) ctx: TsContext,
    pub(crate) shard: u32,
    policy: RubberbandPolicy,
    wait: Wait,
    /// Give-up time of [`Wait::Consumers`] (first-consumer timeout) and
    /// [`Wait::Drain`] (heartbeat timeout).
    until: Option<u64>,
    /// The join the current step decided, until the group takes it.
    joined: Option<Joiner>,
    members: Membership,
    win: Window,
    log: Option<LogTee>,
    inst: Instruments,
    pub(crate) stats: ProducerStats,
}

impl State {
    /// Shard `shard` of `shards`; `loader` is the source's
    /// `(batches_per_epoch, batch_size)`.
    pub(crate) fn new(
        ctx: &TsContext,
        cfg: ProducerConfig,
        (shard, shards): (u32, u32),
        log: Option<LogTee>,
        loader: (u64, u64),
        now: u64,
    ) -> Self {
        let shard_ns = (shards > 1).then_some(shard);
        let expected_announces = cfg.announces_per_epoch(loader);
        let welcome = WelcomeInfo {
            version: WIRE_VERSION,
            shards,
            batch_size: loader.1 as u32,
            flex_producer_batch: cfg
                .flexible
                .as_ref()
                .map(|f| f.producer_batch as u32)
                .unwrap_or(0),
            flex_order: cfg.flexible.as_ref().map(|f| f.order).unwrap_or_default(),
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
                consumers: BTreeMap::new(),
                awaiting_ready: HashSet::new(),
                join_replies: BTreeMap::new(),
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
                cursors: Cursors::new(cfg.buffer_size),
                live: BTreeMap::new(),
                pins: 0..0,
                pins_resident: 0,
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
                slots_live: 0,
            },
            cfg,
            ctx: ctx.clone(),
            shard,
            policy,
            wait: Wait::Consumers,
            until: None,
            joined: None,
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

    /// True while a catch-up has a frame to send and room in its window
    /// for it: the pump must keep stepping. Otherwise the next ack,
    /// publish (or tick) is what moves it, and the pump may park.
    pub(crate) fn busy(&self) -> bool {
        self.next_job(ReplayJob::gate_open).is_some()
    }

    fn next_job(&self, may_send: impl Fn(&ReplayJob) -> bool) -> Option<usize> {
        if self.members.replays.is_empty() {
            return None;
        }
        // A parked member is in no hurry, its live stream starts at the
        // next epoch: its lane waits for the spiller, so each frame comes
        // out of the log (through arena slots for a pointer consumer), not
        // as a live batch's bytes.
        let next_seq = self.win.cursors.next_seq();
        let logged = match &self.log {
            Some(log) if !log.failed => log.logged.min(next_seq),
            _ => next_seq,
        };
        self.members.movable((next_seq, logged), may_send)
    }

    /// When the state next needs an [`Event::Tick`] if nothing else
    /// happens: the housekeeping tick, or sooner when the current wait has
    /// a limit of its own that only time can trip.
    pub(crate) fn deadline(&self) -> u64 {
        let limited = match self.wait {
            Wait::Drain => true,
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

    /// Arrives at epoch 0's barrier (the group opens it). Call once before
    /// the first [`State::step`].
    pub(crate) fn start(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.enter_epoch(now, 0);
        self.advance(now, fx);
    }

    /// Feeds one event; appends what must be done about it to `fx`.
    /// `siblings` are the group's other shards, as they stand.
    pub(crate) fn step(
        &mut self,
        now: u64,
        ev: Event,
        siblings: Siblings<'_>,
        fx: &mut Vec<Effect>,
    ) {
        match ev {
            Event::Ctrl(frame) => self.on_ctrl(now, &frame, siblings, fx),
            Event::Prepared(msg) => self.on_prepared(now, msg),
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
        self.release_held(|_| true);
        let seqs: Vec<u64> = self.win.live.keys().copied().collect();
        for seq in seqs {
            self.release(seq);
        }
        self.win.pins = 0..0;
        self.win.pins_resident = 0;
        self.note_pin_depth();
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
    /// current wait state was waiting for (they cascade: a consumer's
    /// `Ready` can start the epoch and publish in the same step). Only the
    /// group leaves [`Wait::Barrier`].
    fn advance(&mut self, now: u64, fx: &mut Vec<Effect>) {
        if let Some(at) = self.next_job(ReplayJob::gate_open) {
            self.replay_one(now, at, fx);
        }
        self.transitions(now, fx);
    }

    fn transitions(&mut self, now: u64, fx: &mut Vec<Effect>) {
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
            && !self.members.halting()
            && self.win.cursors.can_publish()
        {
            self.publish(now, fx);
        }
        if self.wait == Wait::Arena {
            self.relieve_arena();
        }
        if self.wait == Wait::Drain {
            // Nothing more is published: a lane is through once it sent
            // what there is and its slot-backed frames were acked.
            let m = &self.members;
            let next_seq = self.win.cursors.next_seq();
            let acked = self.win.cursors.outstanding() == 0 || m.consumers.is_empty();
            let lanes_done = m.held.is_empty() && !m.replays.iter().any(|j| j.has_frame(next_seq));
            if acked && lanes_done || self.until.is_some_and(|d| now >= d) {
                fx.push(Effect::Finish);
            }
        }
    }

    /// Waits at the barrier for the other shards; the pins stay until the
    /// group opens the epoch.
    fn enter_epoch(&mut self, now: u64, epoch: u64) {
        if epoch >= self.cfg.epochs {
            return self.enter_drain(now);
        }
        self.win.epoch = epoch;
        self.set_wait(now, Wait::Barrier);
    }

    /// The group opened the barrier: the previous epoch's pins go (they
    /// stayed alive across the boundary), parked joiners are admitted, the
    /// wait for a ready consumer starts, and whatever that lets move moves.
    pub(crate) fn open_epoch(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.close_join_window();
        let w = &mut self.win;
        w.pins_shut = false;
        w.pin_epoch = w.epoch;
        w.epoch_start_seq = w.cursors.next_seq();
        let start_seq = w.epoch_start_seq;
        for (id, mode, index) in std::mem::take(&mut self.members.pending_join) {
            self.admit(now, (id, mode, index), start_seq, fx);
        }
        self.until = self
            .cfg
            .first_consumer_timeout
            .map(|d| now + d.as_nanos() as u64);
        self.set_wait(now, Wait::Consumers);
        self.transitions(now, fx);
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

    fn on_prepared(&mut self, now: u64, msg: FeederMsg) {
        match msg {
            FeederMsg::Item(item) => {
                debug_assert!(self.win.pending.is_none(), "one item in hand at a time");
                self.win.pending = Some((item, now));
                self.set_wait(now, Wait::Window);
            }
            FeederMsg::EpochDone(e) if e == self.win.epoch => {
                self.stats.epochs_completed += 1;
                self.enter_epoch(now, e + 1);
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
        let (w, logged) = (&self.win, self.log.as_ref().map_or(u64::MAX, |l| l.logged));
        if w.cursors.outstanding() > 0 {
            return;
        }
        let stuck = w.pins.start..w.pins.end.min(logged).max(w.pins.start);
        if w.live.range(stuck).next().is_none() {
            return;
        }
        self.win.pins_shut = true;
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
        let seq = self.win.cursors.published();
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
        let batch = LiveBatch {
            epoch,
            index_in_epoch: item.index_in_epoch,
            last_in_epoch: item.last_in_epoch,
            fields: item.fields,
            labels: item.labels,
            published_at: now,
            slots: 0,
        };
        self.inst.stage.collate_copy_bytes.add(item.collate_copied);
        self.register_live(seq, batch, item.placements);
        // One announce for every consumer, flexible or not: a flexible
        // consumer carves its own batches out of it.
        let frame = self.pointer_announce(seq).expect("just registered");
        fx.push(send(topics::BATCH, frame));
        self.send_streamed(seq, fx);
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
        // Pinned while this shard's join window is open: the group admits
        // from the epoch's start only while every shard's is (see
        // `crate::runtime::group`).
        let (progress, expected) = (self.win.pin_progress(), self.win.expected_announces);
        if self.policy.window_open(progress, expected) || self.win.published_in_epoch() == 1 {
            let w = &mut self.win;
            if w.pins.is_empty() {
                w.pins.start = seq;
            }
            w.pins.end = seq + 1;
            w.pins_resident += 1;
        } else if !self.win.pins.is_empty() {
            self.close_join_window();
        }
        self.note_pin_depth();
        self.stats.batches_published += 1;
        self.inst.stage.batches.inc();
        self.set_wait(now, Wait::Item);
    }

    /// Registers each storage of `batch` once: adopting a lease per
    /// storage, in order, for a placed batch (the feeder collated the bytes
    /// into the leased slot — for a staged batch, the slot holds the host
    /// bytes the device copy was made from — so nothing moves), as a heap
    /// storage for a shard without an arena.
    fn register_live(&mut self, seq: u64, mut batch: LiveBatch, placements: Vec<ShmLease>) {
        let registry = &self.ctx.registry;
        batch.slots = placements.len() as u64;
        let mut placements = placements.into_iter();
        for storage in batch.storages() {
            match placements.next() {
                Some(lease) => registry.register_placed(storage, lease.into_handle(), self.shard),
                None => registry.register(storage),
            }
        }
        debug_assert!(placements.next().is_none(), "a lease per storage");
        self.inst.slots_live += batch.slots;
        self.win.live.insert(seq, batch);
        self.note_slots();
    }

    fn release(&mut self, seq: u64) {
        let Some(batch) = self.win.live.remove(&seq) else {
            return;
        };
        if self.win.pins.contains(&seq) {
            self.win.pins_resident -= 1;
        }
        self.inst.slots_live -= batch.slots;
        // Let go of each storage's tensors first: they view its arena slot,
        // and the slot must not look busy to the feeder that leases it
        // next. A staged tensor's slab goes back to the rotation through
        // its storage's reclaim hook when the last view drops. A storage's
        // tensors are one run, so its id is released as the run ends.
        let mut run = None;
        for t in batch.fields.into_iter().chain([batch.labels]) {
            let id = t.storage_id();
            drop(t);
            if let Some(done) = run.replace(id).filter(|&done| done != id) {
                self.ctx.registry.release(done);
            }
        }
        if let Some(done) = run {
            self.ctx.registry.release(done);
        }
        self.note_slots();
    }

    /// Releases the slots of every held catch-up frame `done` picks.
    fn release_held(&mut self, done: impl Fn(&HeldFrame) -> bool) {
        if !self.members.held.is_empty() {
            let freed = self.members.release_held(&self.ctx.registry, done);
            self.inst.slots_live -= freed;
            self.note_slots();
        }
    }

    /// `stage.[s<N>.]slots_live` is a count kept per event; debug builds
    /// check it against the live batches and held frames, counted the
    /// slow way.
    fn note_slots(&self) {
        debug_assert_eq!(
            self.inst.slots_live,
            self.win.live.values().map(|b| b.slots).sum::<u64>()
                + self
                    .members
                    .held
                    .iter()
                    .map(|h| h.storages.len() as u64)
                    .sum::<u64>(),
            "slots_live drifted from the live batches and held frames"
        );
        self.inst.stage.slots_live.set(self.inst.slots_live as f64);
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

    /// The frontier moved over `released`: each live batch in it is fully
    /// acked (again, for a pin a rubberband joiner re-held). Its round trip
    /// is recorded, its trace record closed, and its memory freed unless a
    /// pin or the spiller still holds it.
    fn on_released(&mut self, now: u64, released: Range<u64>) {
        let end = released.end;
        let first_live = |w: &Window, from| {
            let (&seq, b) = w.live.range(from..end).next()?;
            Some((seq, b.epoch, b.published_at))
        };
        let mut from = released.start;
        while let Some((seq, epoch, published_at)) = first_live(&self.win, from) {
            from = seq + 1;
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
    }

    /// Releases every acked batch in `seqs` nothing holds any more.
    fn release_unheld(&mut self, seqs: impl RangeBounds<u64>) {
        let frontier = self.win.cursors.frontier();
        let live = self.win.live.range(seqs).map(|(&seq, _)| seq);
        let free: Vec<u64> = live
            .filter(|&seq| seq < frontier && !self.must_hold(seq))
            .collect();
        for seq in free {
            self.release(seq);
        }
        self.note_pin_depth();
    }

    /// Only the seqs the spiller newly passed can be freed: below the
    /// previous `logged`, whatever still holds a batch (an owed ack, or a
    /// pin while the log failed — `failed` latches) still holds it.
    fn on_logged(&mut self, up_to: u64, failed: bool) {
        if let Some(log) = &mut self.log {
            let newly = log.logged.min(up_to)..up_to;
            log.logged = up_to;
            log.failed = failed;
            self.release_unheld(newly);
        }
    }

    fn close_join_window(&mut self) {
        self.win.pins = 0..0;
        self.win.pins_resident = 0;
        self.release_unheld(..);
    }

    /// Pin depth counts memory-resident pins: a shed pin's seq stays
    /// replayable from the log but holds no slot.
    fn note_pin_depth(&self) {
        let w = &self.win;
        debug_assert_eq!(
            w.pins_resident,
            w.live.range(w.pins.clone()).count() as u64,
            "resident pins drifted from the live batches in {:?}",
            w.pins
        );
        self.inst.stage.pin_depth.set(w.pins_resident as f64);
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

    // -- catch-ups --------------------------------------------------------

    /// Advances catch-up `at` by one frame, window or not: callers pick it
    /// with [`Membership::movable`].
    fn replay_one(&mut self, now: u64, at: usize, fx: &mut Vec<Effect>) {
        let job = &mut self.members.replays[at];
        let (id, seq, from_log) = (job.consumer, job.next, job.from_log);
        job.next += 1;
        let weight = self.replay_frame(id, seq, from_log, fx);
        let m = &mut self.members;
        let job = &mut m.replays[at];
        if job.next >= job.end {
            m.replays.remove(at);
        } else if weight > 0 {
            job.sent(now, seq, weight);
        }
        m.note_inflight();
    }

    /// Sends catch-up frame `seq` to consumer `id`; returns what the frame
    /// weighs in the catch-up window (0: nothing went out). See the module
    /// docs for what a frame weighs.
    fn replay_frame(&mut self, id: u64, seq: u64, from_log: bool, fx: &mut Vec<Effect>) -> u64 {
        let m = &self.members;
        let Some(mode) = m
            .consumers
            .get(&id)
            .map(|c| c.mode)
            .or_else(|| m.parked(id))
        else {
            return 0;
        };
        if !from_log {
            self.ctx.metrics.counter("producer.replays").inc();
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
                self.inst.slots_live += storages.len() as u64;
                m.held.push(HeldFrame {
                    consumer: id,
                    seq,
                    storages,
                });
                self.note_slots();
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
    /// so its tensors are slices of the log's mapping — into one arena slot
    /// of this shard's pool (first-fit into as many as it takes when slots
    /// are narrower than a batch) and registers each slot's storage.
    /// Returns the pointer announce for the copy, its storage ids (one per
    /// slot) and the slot bytes they pin; `None` when the record is not a
    /// streamed batch or the slots cannot be leased right now (nothing
    /// stays leased then).
    fn slot_frame(&self, record: &Bytes) -> Option<(Bytes, Vec<u64>, u64)> {
        let pool = self.ctx.registry.shard_slot_pool(self.shard)?;
        let Ok(DataMsg::Batch(mut announce)) = DataMsg::decode_shared(record) else {
            return None;
        };
        let AnnounceContent::Streamed { fields, labels } = &announce.content else {
            return None;
        };
        // The one copy, record to slot. A lease dropped on the way frees
        // its slot.
        let view = |t: &StreamedTensor| t.to_tensor(DeviceId::Cpu).ok().map(|t| [t]);
        let columns: Vec<[Tensor; 1]> = fields
            .iter()
            .chain([labels])
            .map(view)
            .collect::<Option<_>>()?;
        let (mut tensors, leases) = collate::cat0_batch_leased(&columns, &pool).ok()?;
        let pinned = (leases.len() * pool.arena().slot_size()) as u64;
        let registry = &self.ctx.registry;
        let mut storages = Vec::with_capacity(leases.len());
        let mut leases = leases.into_iter();
        for t in &tensors {
            if storages.last() != Some(&t.storage_id()) {
                let lease = leases.next().expect("a lease per slot");
                registry.register_placed(t.storage(), lease.into_handle(), self.shard);
                storages.push(t.storage_id());
            }
        }
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

    fn on_ctrl(&mut self, now: u64, frame: &Bytes, siblings: Siblings<'_>, fx: &mut Vec<Effect>) {
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
            } => self.on_join(now, consumer_id, batch_size, mode, siblings, fx),
            CtrlMsg::Ready { consumer_id } if self.members.awaiting_ready.remove(&consumer_id) => {
                self.members.join_replies.remove(&consumer_id);
                self.queue_pin_replay(consumer_id);
            }
            CtrlMsg::Ack { consumer_id, seq } => {
                // A parked member owes no live batch yet and has no cursor
                // in the table: its acks, of lane frames, release nothing
                // there and move only its lane below.
                let Some(released) = self.win.cursors.ack(consumer_id, seq) else {
                    return metrics.counter("producer.acks_refused").inc();
                };
                self.on_released(now, released);
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
                self.release_held(|h| h.consumer == consumer_id && h.seq <= seq);
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
        siblings: Siblings<'_>,
        fx: &mut Vec<Effect>,
    ) {
        if self.members.knows(id) {
            return; // duplicate join, or decided already by another shard
        }
        if let Some(max) = self.cfg.flexible.as_ref().map(|f| f.producer_batch) {
            if batch_size == 0 || batch_size as usize > max {
                let reason = format!("batch size {batch_size} exceeds producer batch {max}");
                self.reply_join(id, JoinDecision::Reject { reason }, fx);
                self.stats.joins_rejected += 1;
                return;
            }
        }
        // The first shard to see a join decides it for the group, from
        // where every shard stands; the group applies it on the others.
        let stands = std::iter::once(&*self)
            .chain(siblings.iter())
            .map(State::stand);
        let joiner = Joiner {
            id,
            mode,
            admission: admission(stands),
        };
        self.join(now, joiner, fx);
        self.joined = Some(joiner);
    }

    /// Where this shard stands for a join decision.
    fn stand(&self) -> ShardStand {
        ShardStand {
            at_barrier: self.wait == Wait::Barrier,
            published: self.win.pin_progress(),
            pinned: self.policy.pinned_batches(self.win.expected_announces),
            members: self.members.consumers.len(),
        }
    }

    /// The join the last step decided, once.
    pub(crate) fn take_joined(&mut self) -> Option<Joiner> {
        self.joined.take()
    }

    /// Applies a join decided for the group (here or on another shard):
    /// admits at this shard's epoch start or current position, or parks
    /// the joiner until the next epoch. Nothing else can move for it: an
    /// admitted joiner holds publishing until its `Ready`.
    pub(crate) fn join(&mut self, now: u64, joiner: Joiner, fx: &mut Vec<Effect>) {
        let Joiner {
            id,
            mode,
            admission,
        } = joiner;
        let m = &mut self.members;
        if m.knows(id) {
            return; // its own copy of the join came first
        }
        // Its index is the member count at admission; a parked joiner's
        // is fixed now, behind those parked before it.
        let index = m.consumers.len() as u32;
        let w = &self.win;
        match admission {
            Admission::EpochStart => self.admit(now, (id, mode, index), w.epoch_start_seq, fx),
            Admission::Current => self.admit(now, (id, mode, index), w.cursors.next_seq(), fx),
            Admission::NextEpoch => {
                self.ctx.metrics.counter("producer.joins_parked").inc();
                let index = index + m.pending_join.len() as u32;
                m.pending_join.push((id, mode, index));
                m.hb.beat(id, now);
                // Not `epoch`, which already names the next one while this
                // shard waits at the barrier.
                let epoch = self.win.pin_epoch + 1;
                self.reply_join(id, JoinDecision::WaitEpoch { epoch, index }, fx);
                // A parked group member carves its history while it waits.
                self.tell_members(topics::consumer(id), fx);
            }
        }
    }

    /// Under flexible sizing, tells `topic` how many members carve the
    /// batches from the next seq on — the `consumers.len()` each one's
    /// carve reads.
    fn tell_members(&self, topic: impl Into<Cow<'static, [u8]>>, fx: &mut Vec<Effect>) {
        if self.cfg.flexible.is_some() {
            let msg = DataMsg::Members {
                seq: self.win.cursors.next_seq(),
                count: self.members.consumers.len() as u32,
            };
            fx.push(send(topic, msg.encode()));
        }
    }

    /// Admits a consumer whose live stream starts at `start_seq`: the
    /// epoch's first seq (everything already out is replayed on `Ready`;
    /// joining the window there halts publishing until the joiner catches
    /// up — the rubberband) or the current position (nothing to replay).
    fn admit(
        &mut self,
        now: u64,
        (id, mode, index): (u64, PayloadMode, u32),
        start_seq: u64,
        fx: &mut Vec<Effect>,
    ) {
        let m = &mut self.members;
        let pins = &self.win.pins;
        let replayed = start_seq.max(pins.start)..pins.end.max(start_seq);
        let info = ConsumerInfo {
            mode,
            start_seq,
            pins: replayed,
        };
        m.consumers.insert(id, info);
        m.awaiting_ready.insert(id);
        m.hb.beat(id, now);
        self.stats.peak_consumers = self.stats.peak_consumers.max(m.consumers.len());
        let w = &mut self.win;
        // The joiner owes an ack for everything from `start_seq` on —
        // including pins the others already fully acked.
        w.cursors.add(id, start_seq);
        let decision = JoinDecision::AdmitReplay {
            // Not `epoch`, which may already name the next one while this
            // shard is parked at the barrier.
            epoch: w.pin_epoch,
            replay_from: start_seq - w.epoch_start_seq,
            num_batches: w.expected_announces,
            start_seq,
            index,
        };
        let reply = self.reply_join(id, decision, fx);
        self.members.join_replies.insert(id, reply);
        self.tell_members(topics::CTRL, fx);
    }

    fn remove_consumer(&mut self, now: u64, id: u64, notify: bool, fx: &mut Vec<Effect>) {
        let m = &mut self.members;
        let member = m.consumers.remove(&id).is_some();
        m.awaiting_ready.remove(&id);
        m.join_replies.remove(&id);
        m.pending_join.retain(|(j, ..)| *j != id);
        m.replays.retain(|job| job.consumer != id);
        m.note_inflight();
        m.hb.remove(id);
        self.release_held(|h| h.consumer == id);
        if let Some(log) = &mut self.log {
            log.groups.remove(&id);
            log.log_infos.remove(&id);
        }
        let released = self.win.cursors.remove(id);
        self.on_released(now, released);
        if notify {
            let msg = DataMsg::Detached { consumer_id: id };
            fx.push(send(topics::consumer(id), msg.encode()));
        }
        if member {
            self.tell_members(topics::CTRL, fx);
        }
    }

    /// Where consumer `id`'s live stream starts, as `(seq, epoch)`: its
    /// admission point; for a member parked until the next epoch, that
    /// epoch's first seq — exactly where [`State::open_epoch`] will admit
    /// it. `None` for a consumer this shard does not know.
    fn splice_point(&self, id: u64) -> Option<(u64, u64)> {
        let (m, w) = (&self.members, &self.win);
        if let Some(c) = m.consumers.get(&id) {
            return Some((c.start_seq, w.pin_epoch));
        }
        m.parked(id)?;
        let next_epoch = match self.wait {
            Wait::Barrier => w.cursors.next_seq(),
            _ => w.epoch_start_seq + w.expected_announces,
        };
        Some((next_epoch, w.pin_epoch + 1))
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
    /// acked prefix ignored as cursor regressions. A member parked until
    /// the next epoch is sent everything up to it while it waits.
    fn on_replay(&mut self, id: u64, group: String, from: ReplayFrom, fx: &mut Vec<Effect>) {
        self.ctx.metrics.counter("producer.replay_requests").inc();
        let Some((live_seq, live_epoch)) = self.splice_point(id) else {
            return; // only a member is replayed to
        };
        let shard = self.shard;
        let Some(log) = &mut self.log else {
            // No log: nothing behind the splice point, live-only.
            let info = DataMsg::LogInfo {
                consumer_id: id,
                start_seq: live_seq,
                start_epoch: live_epoch,
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
        // The history is what the log retains and every batch the spiller
        // has not passed yet, which is still live: a log that has nothing
        // yet (its spiller behind a fast stream) still has it all to come.
        let retained = (!log.failed).then(|| log.log.lock().retained_range());
        let (start, rmin, rmax) = match retained {
            Some(range) => {
                let oldest = range.map_or(log.logged, |(rmin, _)| rmin);
                let want = match from {
                    ReplayFrom::Cursor => log.cursors.load(&group, shard).unwrap_or(oldest),
                    ReplayFrom::Oldest => oldest,
                    ReplayFrom::Seq(n) => n,
                };
                let (rmin, rmax) = range.unwrap_or((0, 0));
                (replay_start(want, oldest, live_seq), rmin, rmax)
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
            _ => (live_epoch, 0),
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
        let silent = |job: &ReplayJob| now.saturating_sub(job.moved_at) >= TICK_NS;
        if let Some(at) = self.next_job(|job| !job.gate_open() && silent(job)) {
            self.members.gate_timeouts.inc();
            self.replay_one(now, at, fx);
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
        let next_seq = self.win.cursors.next_seq();
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
        log.mapped_bytes.set(segments.mapped_bytes() as f64);
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
        // Oldest un-acked batch first: it bounds the publish window. Its
        // owers are the consumers whose cursor has not passed it.
        let oldest = w.live.range(w.cursors.frontier()..).next();
        let oldest = oldest.map(|(&seq, b)| {
            let owers = w.cursors.owers(seq);
            let (nowers, min_ower) = owers.fold((0, u64::MAX), |(n, m), id| (n + 1, m.min(id)));
            (seq, b.epoch, now - b.published_at, nowers, min_ower)
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
            let next = w.cursors.next_seq();
            let (class, verdict) = match self.wait {
                Wait::Arena if idle > FLOOR_NS => {
                    let unlogged = |s: &u64| self.log.as_ref().is_some_and(|l| *s >= l.logged);
                    let held = w.live.keys().filter(|s| unlogged(s)).count();
                    let pins = w.pins_resident;
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
impl State {
    /// The consumers that hold an ack cursor on this shard.
    pub(crate) fn cursor_holders(&self) -> Vec<u64> {
        self.win.cursors.owers(u64::MAX).collect()
    }

    /// Group `group`'s cursor on this shard, as acks moved it.
    pub(crate) fn group_cursor(&self, group: &str) -> Option<u64> {
        self.log.as_ref()?.cursors.load(group, self.shard)
    }
}

#[cfg(test)]
#[path = "step_tests.rs"]
mod step_tests;
