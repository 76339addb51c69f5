//! The producer pipeline behind [`crate::Producer`]: a server owning the
//! data-loading pipeline and multicasting batch payloads to consumers
//! (§3.2.1).
//!
//! The paper's producer is one loop that alternates "publish the next
//! batch" with "serve joins, acks and heartbeats" (§3.2.1, §3.3.1). Here
//! that loop is split in two:
//!
//! * `State` decides. It is a plain state machine
//!   — `step(now, event, &mut effects)` — that owns no socket, thread or
//!   clock, so every decision (admission, replay order, release, expiry,
//!   which of the six things the producer is waiting for) is testable by
//!   feeding it events.
//! * the **pump** (`runtime::pump`) does. One pump thread serves every
//!   shard: it owns their sockets and helper threads, blocks in exactly
//!   one call (`PullSocket::wait` over every shard's control socket),
//!   turns whatever woke it into one `Event` for one shard, steps the
//!   shards as a group (`runtime::group`: the shard's `step`, then the
//!   barrier and join rules that span shards), and executes each shard's
//!   `Effect`s in order on that shard's publisher: send a frame, tee a
//!   batch to the log spiller, finish. One shard is a group of one.
//!
//! Upstream of the pump a **feeder** thread owns the wrapped loader and
//! prepares batches *ahead of the publish cursor*: it iterates the loader
//! (whose own `num_workers` threads decode samples straight into the
//! batch), applies the producer map, fuses loader batches into producer
//! batches under flexible sizing, and hands prepared batches over a
//! bounded queue of `num_workers × prefetch_factor` items (at least one —
//! [`EpochSource::pipeline_hint`]). With a slot pool bound the feeder
//! offers it to the loader it drives (`bind_slot_pool`): a
//! [`ts_data::DataLoader`]'s workers then lease the slot first and decode
//! into it, so a batch arrives **already placed** — its tensors carry
//! their leases, the feeder adopts them and moves nothing. Whatever does
//! not arrive placed (another kind of source — its tensors on the heap,
//! tagged with a device, or views of some other arena — a producer-map
//! output, the flexible fuse, a batch whose worker found the pool dry)
//! the feeder collates into a leased slot itself, one copy, counted in
//! `stage.collate_copy_bytes`. That lease is the only way a payload byte
//! enters the arena: the publish step adopts leases and copies nothing.
//! Under a GPU producer an H2D copy stage
//! (`runtime::staging`) sits between the two, so the pump only ever sees
//! items already on the device they are published from. A loader with
//! `num_workers == 0` runs the same feeder at depth 1: there is one
//! pipeline shape.
//!
//! **Wake-ups.** The pump's one blocking call is a `poll` over every
//! shard's control connections and [`ts_socket::Bell`]s. Control frames need
//! nobody in between: a consumer's ack is written by the consumer's thread
//! and read by the pump's, and an announce is written by the pump's thread
//! and read by the consumer's (in its one wait over every shard's link) —
//! two threads woken per publish→ack round trip, one on each side. The
//! publisher's `ts-pub-listen`, which reads every subscriber's
//! subscriptions, sleeps in `poll` for input, so the room each drained
//! announce makes in the socket does not wake it, and the subscriber's
//! `ts-pub-writer` wakes only for bulk frames and for what a full socket
//! would not take. Every other source keeps its own typed queue —
//! the feeder's bounded channel (whose back-pressure is the feeder's
//! pacing), the copy stage's, the spiller's progress counter — and rings
//! its shard's bell after enqueueing: two stores while the pump is awake,
//! one `write` only when it sleeps. `abort` rings it too. The epoch
//! barrier needs no bell and no tick: it is a check the group makes after
//! every step, so the step in which the last shard finishes its epoch
//! opens the next one on all of them.
//!
//! **A dry arena is a wait state, not a mode.** When a pool-backed arena
//! has no slot to lease, the feeder parks (observing `stop`) and says so
//! (`FeederMsg::ArenaDry`); the state machine shows [`crate::Wait::Arena`],
//! releases slots the moment an `Ack` or `Logged` event frees them, and
//! closes the join window early if only acked pins hold the memory. A
//! batch that can never fit a slot fails the pipeline with a counted,
//! logged reason. Nothing falls back to the heap.
//!
//! Batch order is the loader's: the feeder queue is FIFO and sequence
//! numbers are assigned at publish.

use crate::protocol::messages::{AnnounceContent, BatchAnnounce, DataMsg, StreamedTensor};
use crate::runtime::config::{ProducerConfig, ProducerMap};
use crate::runtime::context::TsContext;
use crate::runtime::pump::{Lane, Pump};
use crate::runtime::staging::{FeederMsg, PreparedItem, StagingEngine};
use crate::runtime::state::{Event, LogTee, SpillMsg, StageMetrics, State};
use crate::{Result, TsError};
use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ts_data::{bind_slot_pool, Batch, DataLoader};
use ts_log::{BatchLog, CursorStore};
use ts_metrics::{Counter, Histogram, TraceRing};
use ts_shm::{ShmError, ShmLease};
use ts_socket::{Bell, PubSocket, PullSocket};
use ts_tensor::{collate, SlotPacking, SlotPool, Tensor, TensorError};

/// A batch's tensors as streamed content. Contiguous tensors are borrowed
/// (the frame shares their storage); `copied` counts the bytes of any view
/// that had to be gathered instead.
pub(crate) fn streamed_content(
    fields: &[Tensor],
    labels: &Tensor,
    copied: &Counter,
) -> AnnounceContent {
    let streamed = |t: &Tensor| {
        if !t.is_contiguous() {
            copied.add(t.view_bytes() as u64);
        }
        StreamedTensor::from_tensor(t)
    };
    AnnounceContent::Streamed {
        fields: fields.iter().map(streamed).collect(),
        labels: streamed(labels),
    }
}

/// The durable-log spiller: a thread that encodes each published batch as
/// its streamed wire frame and appends it, entirely off the publish path.
pub(crate) struct Spiller {
    /// Dropped to stop the thread once its queue is drained.
    pub(crate) tx: Sender<SpillMsg>,
    pub(crate) handle: std::thread::JoinHandle<()>,
    /// `seq + 1` of the last record the thread is done with — the release
    /// gate the pump reports as [`Event::Logged`]. Advances past failed
    /// appends (with `failed` latched: logging is off for the rest of the
    /// run) so releases never wedge on a bad disk.
    progress: Arc<(AtomicU64, AtomicBool)>,
    /// The `(up_to, failed)` last reported to the state machine.
    reported: (u64, bool),
}

/// Appends one batch. Returns false when the append failed.
pub(crate) fn spill_one(
    log: &Mutex<BatchLog>,
    m: &SpillMsg,
    stage: &StageMetrics,
    errors: &Counter,
) -> bool {
    let announce = BatchAnnounce {
        seq: m.seq,
        epoch: m.epoch,
        index_in_epoch: m.index_in_epoch,
        last_in_epoch: m.last_in_epoch,
        content: streamed_content(&m.fields, &m.labels, &stage.stream_copy_bytes),
    };
    // The frame stays in pieces (head bytes, then each tensor's own
    // memory, borrowed); the log copies every piece into its mapping once,
    // checksumming as it goes — the one copy of the payload on this path.
    let segments = DataMsg::Batch(announce).encode_segments();
    let chunks: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
    // The guard goes at the end of this statement: a segment the append
    // sealed gives its pages back below, while readers may take the lock.
    let appended = log
        .lock()
        .append_chunks(m.seq, m.epoch, m.index_in_epoch, &chunks);
    match appended {
        Ok(sealed) => {
            let len: usize = chunks.iter().map(|c| c.len()).sum();
            stage.log_append_bytes.add(len as u64);
            drop(sealed);
            true
        }
        Err(e) => {
            if errors.fetch_inc() == 0 {
                eprintln!(
                    "tensorsocket: log append failed at seq {} ({e}) — \
                     disabling the durable log for this run",
                    m.seq
                );
            }
            false
        }
    }
}

impl Spiller {
    pub(crate) fn spawn(
        log: Arc<Mutex<BatchLog>>,
        stage: StageMetrics,
        errors: Arc<Counter>,
        shard: u32,
        bell: Bell,
    ) -> Self {
        let (tx, rx) = channel::unbounded::<SpillMsg>();
        let progress = Arc::new((AtomicU64::new(0), AtomicBool::new(false)));
        let shared = progress.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ts-log-spiller-s{shard}"))
            .spawn(move || {
                let (up_to, failed) = &*shared;
                while let Ok(m) = rx.recv() {
                    if !failed.load(Ordering::Relaxed) && !spill_one(&log, &m, &stage, &errors) {
                        failed.store(true, Ordering::Release);
                    }
                    up_to.store(m.seq + 1, Ordering::Release);
                    bell.ring();
                }
            })
            // Only an OS out of threads fails this, never a peer's input;
            // the producer thread's panic is then `join()`'s error.
            .expect("spawn spiller thread");
        Self {
            tx,
            handle,
            progress,
            reported: (0, false),
        }
    }

    /// The spiller's progress, when it moved since the last call.
    pub(crate) fn news(&mut self) -> Option<Event> {
        let (up_to, failed) = &*self.progress;
        let now = (
            up_to.load(Ordering::Acquire),
            failed.load(Ordering::Acquire),
        );
        (now != self.reported).then(|| {
            self.reported = now;
            Event::Logged {
                up_to: now.0,
                failed: now.1,
            }
        })
    }
}

/// Resolves where a log-backed replay starts: the requested position,
/// floored at what the log retains and capped at the consumer's live
/// splice point. Deliberately not `Ord::clamp` — `clamp` asserts
/// `min <= max`, and `retained_min > live_seq` is reachable from remote
/// input (an arbitrary `ReplayFrom::Seq`, or retention racing a join),
/// which must degrade to "nothing replayable behind the splice point"
/// (`start == live_seq`), never a panic on the producer control loop.
pub(crate) fn replay_start(want: u64, retained_min: u64, live_seq: u64) -> u64 {
    want.max(retained_min).min(live_seq)
}
/// Per-sample tensor geometry, the hint [`crate::Producer`]'s builder
/// uses to auto-size the shared-memory arena and its recycling slot pool
/// from the loader instead of user-computed depths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleGeometry {
    /// Byte size of each decoded tensor field, for one sample.
    pub field_bytes: Vec<usize>,
    /// Byte size of one sample's label.
    pub label_bytes: usize,
}

impl SampleGeometry {
    /// The bytes of each tensor — fields, then labels — of a batch of
    /// `batch_size` samples.
    fn tensor_bytes(&self, batch_size: usize) -> impl Iterator<Item = usize> + '_ {
        let label = std::iter::once(&self.label_bytes);
        self.field_bytes
            .iter()
            .chain(label)
            .map(move |b| b * batch_size)
    }

    /// The bytes a batch of `batch_size` samples takes packed into one
    /// arena slot ([`SlotPacking::packed_len`]): its tensors in order, each
    /// at a 64-byte-aligned offset. A slot this wide holds the batch.
    pub fn batch_bytes(&self, batch_size: usize) -> usize {
        SlotPacking::packed_len(self.tensor_bytes(batch_size))
    }

    /// Slots of `slot_size` bytes a batch of `batch_size` samples takes,
    /// packed first-fit: 1 when a slot is [`SampleGeometry::batch_bytes`]
    /// wide or wider. `None` when one of its tensors fits no slot.
    pub fn slots_per_batch(&self, batch_size: usize, slot_size: usize) -> Option<usize> {
        SlotPacking::first_fit(self.tensor_bytes(batch_size), slot_size).map(|p| p.slots())
    }
}

/// A source of epochs of batches — the loader the producer wraps.
///
/// Implemented by [`ts_data::DataLoader`]; implement it for custom loaders
/// (e.g. a Hugging-Face-style loader) to share them the same way, matching
/// the paper's "wrapper around data loaders" design (§3.2).
pub trait EpochSource: Send + 'static {
    /// Batches one epoch yields.
    fn batches_per_epoch(&self) -> usize;

    /// Samples per batch (used to size flexible producer batches).
    fn batch_size(&self) -> usize;

    /// Iterate one epoch.
    fn epoch(&self, epoch: u64) -> Box<dyn Iterator<Item = Batch> + Send + '_>;

    /// Pipeline sizing hint, `(num_workers, prefetch_factor)`.
    ///
    /// The producer's feeder thread prepares batches ahead of the publish
    /// cursor over a hand-off queue of `num_workers × prefetch_factor`
    /// prepared batches, at least one (`num_workers == 0` — the loader
    /// decodes on the feeder thread itself — gives depth 1).
    fn pipeline_hint(&self) -> (usize, usize) {
        (0, 2)
    }

    /// Per-sample tensor geometry, when the source can cheaply know it
    /// (e.g. by decoding one sample). `None` means the
    /// [`crate::Producer`] builder cannot auto-size a shared-memory
    /// arena for this source and requires explicit geometry.
    fn sample_geometry(&self) -> Option<SampleGeometry> {
        None
    }
}

impl EpochSource for DataLoader {
    fn batches_per_epoch(&self) -> usize {
        DataLoader::batches_per_epoch(self)
    }

    fn batch_size(&self) -> usize {
        self.config().batch_size
    }

    fn epoch(&self, epoch: u64) -> Box<dyn Iterator<Item = Batch> + Send + '_> {
        Box::new(DataLoader::epoch(self, epoch))
    }

    fn pipeline_hint(&self) -> (usize, usize) {
        DataLoader::pipeline_hint(self)
    }

    /// Decodes sample 0 to measure one sample's tensor geometry. Assumes
    /// the transform pipeline preserves per-sample byte size (the usual
    /// augmentation case); pass explicit arena geometry to the builder
    /// for size-changing pipelines.
    fn sample_geometry(&self) -> Option<SampleGeometry> {
        let dataset = self.dataset();
        if dataset.is_empty() {
            return None;
        }
        let raw = dataset.get(0).ok()?;
        let decoded = dataset.decode(&raw).ok()?;
        Some(SampleGeometry {
            field_bytes: decoded.fields.iter().map(|t| t.view_bytes()).collect(),
            label_bytes: std::mem::size_of::<i64>(),
        })
    }
}

/// An in-memory epoch source: serves the same pre-built batches every
/// epoch.
///
/// This is the adapter for loaders this crate does not know about — e.g.
/// a Hugging-Face-style loader (the Table 4 scenario wraps one): build the
/// batches with whatever pipeline you have, hand them to a `VecSource`,
/// and the producer shares them like any other loader.
pub struct VecSource {
    batches: Vec<Batch>,
    batch_size: usize,
}

impl VecSource {
    /// Wraps pre-built batches. All batches must have the same size;
    /// returns an error otherwise (flexible sizing depends on it).
    pub fn new(batches: Vec<Batch>) -> Result<Self> {
        let batch_size = batches
            .first()
            .map(|b| b.batch_size())
            .ok_or_else(|| TsError::Config("VecSource needs at least one batch".into()))?;
        if let Some(bad) = batches.iter().find(|b| b.batch_size() != batch_size) {
            return Err(TsError::Config(format!(
                "VecSource batches must be uniform: found {} and {}",
                batch_size,
                bad.batch_size()
            )));
        }
        Ok(Self {
            batches,
            batch_size,
        })
    }
}

impl EpochSource for VecSource {
    fn batches_per_epoch(&self) -> usize {
        self.batches.len()
    }

    fn batch_size(&self) -> usize {
        self.batch_size
    }

    fn sample_geometry(&self) -> Option<SampleGeometry> {
        let first = self.batches.first()?;
        let b = self.batch_size.max(1);
        Some(SampleGeometry {
            field_bytes: first
                .fields
                .iter()
                .map(|t| t.view_bytes().div_ceil(b))
                .collect(),
            label_bytes: first.labels.view_bytes().div_ceil(b),
        })
    }

    fn epoch(&self, epoch: u64) -> Box<dyn Iterator<Item = Batch> + Send + '_> {
        let n = self.batches.len();
        Box::new(self.batches.iter().enumerate().map(move |(i, b)| {
            let mut batch = b.clone();
            batch.epoch = epoch;
            batch.index = i;
            batch.last_in_epoch = i + 1 == n;
            batch
        }))
    }
}

/// Batches that own their arena slots *ahead of* the publish window when
/// every stage upstream of it is full: what the loader keeps in flight —
/// per worker, its prefetch channel plus the batch it is building — the
/// feeder queue, the staging hand-off, and the batch in the feeder's hand
/// and the one in the pump's. Arena auto-sizing provisions for it and
/// [`loader_pool`] asks for it, so the two cannot disagree.
pub(crate) fn batches_ahead_of_publish(cfg: &ProducerConfig, hint: (usize, usize)) -> usize {
    let (workers, prefetch) = hint;
    let in_loader = workers.max(1) * (prefetch.max(1) + 1);
    let feeder_queue = (workers * prefetch).max(1);
    let staging_queue = cfg.buffer_size;
    in_loader + feeder_queue + staging_queue + 2
}

/// The pool `source`'s loader may build its batches in: `pool`, unless
///
/// * sizing is flexible — loader batches are then only *parts* of what is
///   published, a slot-backed part is not something the fuse can lease
///   for, and the fused batch would fall to the heap and be copied at
///   publish; or
/// * the arena lacks room for the loader's own in-flight set on top of
///   the publish window and the stages in between
///   ([`batches_ahead_of_publish`]), counted in slots per batch
///   ([`SampleGeometry::slots_per_batch`]). Batches *behind* the head of
///   the stream would otherwise hold every slot while the head, built on
///   the heap by a worker that found the pool dry, waits in the feeder for
///   a slot only a publish could free. An auto-sized arena always has the
///   room; an explicit one that does not keeps the feeder-collated path,
///   says so once and counts it (`stage.loader_unbound`).
///
/// Decided once at spawn from what the code can see; nobody sets it.
pub(crate) fn loader_pool(
    cfg: &ProducerConfig,
    source: &impl EpochSource,
    pool: &SlotPool,
    unbound: &Counter,
) -> Option<SlotPool> {
    if cfg.flexible.is_some() {
        return None;
    }
    let geometry = source.sample_geometry()?;
    let per_batch = geometry.slots_per_batch(source.batch_size(), pool.arena().slot_size())?;
    let batches = cfg.buffer_size + batches_ahead_of_publish(cfg, source.pipeline_hint());
    let slots = pool.depth().min(pool.arena().nslots());
    if slots < batches * per_batch {
        unbound.inc();
        eprintln!(
            "tensorsocket: the arena gives this pipeline {slots} slots, fewer than the \
             {batches} batches x {per_batch} slots its window and loader keep in flight: \
             loader workers build on the heap and the feeder collates into the arena",
        );
        return None;
    }
    Some(pool.clone())
}

/// How long a feeder parked on a dry arena sleeps between attempts when
/// nothing wakes it sooner (the pump does, after every step that may have
/// freed a slot; a consumer process dropping its last view cannot).
const ARENA_RETRY: Duration = Duration::from_millis(1);

/// Turns raw loader batches into [`PreparedItem`]s: applies the producer
/// map and, under flexible sizing, accumulates loader batches until a
/// producer batch is full and collates it.
pub(crate) struct Preparer {
    /// Flexible producer batch size; `None` passes loader batches through.
    producer_batch: Option<usize>,
    map: Option<ProducerMap>,
    /// The recycling slot pool of this pipeline's shard, which it leases
    /// arena slots from. `None` (no arena) leaves tensors on the heap.
    pool: Option<SlotPool>,
    acc: Vec<Batch>,
    acc_samples: usize,
    pb_index: u64,
}

impl Preparer {
    pub(crate) fn new(cfg: &ProducerConfig, pool: Option<SlotPool>) -> Self {
        Self {
            producer_batch: cfg.flexible.as_ref().map(|f| f.producer_batch),
            map: cfg.producer_map.clone(),
            pool,
            acc: Vec::new(),
            acc_samples: 0,
            pb_index: 0,
        }
    }

    /// Places one batch, given as its columns (fields, then labels), each
    /// the parts of one output tensor. With a pool bound, every batch is
    /// published from slots leased from it: a batch that arrives *placed*
    /// — every tensor a single part the loader built in a slot of this
    /// pipeline's arena, its storage still carrying the lease — is adopted
    /// as it is, zero bytes moved, and any other (heap parts, device-tagged
    /// parts, views of some other arena, several parts to fuse) has every
    /// column collated into one lease ([`collate::cat0_batch_leased`]),
    /// one copy. The leases, one per slot in order, go to the publish
    /// step, which adopts them with zero bytes moved. Without a pool the
    /// parts stay on the heap. Returns the tensors, the leases and the
    /// bytes copied into them.
    ///
    /// A dry pool ([`ShmError::Full`]) is waited out: `dry` is called
    /// before each retry and returns false to give up (the producer is
    /// stopping). Any other failure — a batch larger than a slot can never
    /// fit — is an error naming the cause.
    fn place(
        &self,
        mut columns: Vec<Vec<Tensor>>,
        dry: &mut dyn FnMut() -> bool,
    ) -> std::result::Result<(Vec<Tensor>, Vec<ShmLease>, u64), String> {
        let fail = |e: TensorError| format!("collating a batch: {e}");
        let Some(pool) = &self.pool else {
            let tensors = columns.into_iter().map(|mut parts| match parts.len() {
                1 => Ok(parts.pop().expect("one part")),
                _ => collate::cat0(&parts).map_err(fail),
            });
            return Ok((
                tensors.collect::<std::result::Result<_, _>>()?,
                Vec::new(),
                0,
            ));
        };
        if let Some(leases) = adopt(&columns, pool) {
            let tensors = columns
                .iter_mut()
                .map(|parts| parts.pop().expect("one part"));
            return Ok((tensors.collect(), leases, 0));
        }
        loop {
            match collate::cat0_batch_leased(&columns, pool) {
                Ok((tensors, leases)) => {
                    let copied = tensors.iter().map(|t| t.view_bytes() as u64).sum();
                    return Ok((tensors, leases, copied));
                }
                Err(TensorError::Arena(ShmError::Full)) if dry() => {}
                Err(TensorError::Arena(ShmError::Full)) => return Err("stopped".into()),
                Err(e) => return Err(fail(e)),
            }
        }
    }

    /// Feeds one loader batch; returns a prepared item when one is ready
    /// (always, in default mode; on producer-batch boundaries under
    /// flexible sizing). See [`Preparer::place`] for `dry` and errors.
    pub(crate) fn push(
        &mut self,
        batch: Batch,
        last: bool,
        dry: &mut dyn FnMut() -> bool,
    ) -> std::result::Result<Option<PreparedItem>, String> {
        let (index_in_epoch, columns): (u64, Vec<Vec<Tensor>>) = match self.producer_batch {
            None => {
                let batch = match &self.map {
                    Some(map) => map(batch),
                    None => batch,
                };
                let fields = batch.fields.into_iter().map(|t| vec![t]);
                let columns = fields.chain(std::iter::once(vec![batch.labels])).collect();
                (batch.index as u64, columns)
            }
            Some(producer_batch) => {
                // Flexible sizing accumulates *raw* loader batches and
                // applies the map only at flush: boundaries must count raw
                // sample sizes, because the announces-per-epoch figure is
                // computed from raw loader geometry.
                self.acc_samples += batch.batch_size();
                self.acc.push(batch);
                if self.acc_samples < producer_batch && !last {
                    return Ok(None);
                }
                self.acc_samples = 0;
                let parts: Vec<Batch> = match &self.map {
                    Some(map) => self.acc.drain(..).map(|b| map(b)).collect(),
                    None => std::mem::take(&mut self.acc),
                };
                // One contiguous producer batch per field — straight into
                // leased slots when a pool is bound, so the fuse IS the
                // placement.
                let field = |f: usize| -> Vec<Tensor> {
                    parts.iter().map(|b| b.fields[f].clone()).collect()
                };
                let fields = (0..parts[0].fields.len()).map(field);
                let labels = parts.iter().map(|b| b.labels.clone()).collect();
                let columns = fields.chain(std::iter::once(labels)).collect();
                self.pb_index += 1;
                (self.pb_index - 1, columns)
            }
        };
        let (mut tensors, placements, collate_copied) = self.place(columns, dry)?;
        let labels = tensors.pop().expect("labels come last");
        Ok(Some(PreparedItem {
            index_in_epoch,
            last_in_epoch: last,
            fields: tensors,
            labels,
            placements,
            collate_copied,
            staged_bytes: 0,
            fetch_span: (0, 0),
            copy_wait_span: (0, 0),
            h2d_span: (0, 0),
        }))
    }
}

/// The leases of a batch that arrives placed in `pool`'s arena: every
/// column a single part, and each run of parts over one storage — the
/// batch's tensors in one slot — carrying that slot's lease. `None` when
/// any does not; the leases taken by then drop, and their slots free once
/// the batch's views are gone.
fn adopt(columns: &[Vec<Tensor>], pool: &SlotPool) -> Option<Vec<ShmLease>> {
    let mut leases = Vec::with_capacity(1);
    let mut last = None;
    for parts in columns {
        let [part] = &parts[..] else {
            return None;
        };
        if last.replace(part.storage_id()) != Some(part.storage_id()) {
            leases.push(part.storage().take_lease(pool.arena())?);
        }
    }
    Some(leases)
}

/// The feeder stage: owns the epoch source for the whole run and prepares
/// every epoch's batches ahead of the publish cursor — it rolls straight
/// from one epoch into the next, so the publish tail of epoch `e`
/// overlaps the preparation of `e + 1`. The bounded item channel is both
/// the backpressure (the feeder parks once `depth` prepared batches are
/// waiting) and the pacing (the pump does not take epoch `e + 1` items
/// before `EpochDone(e)`).
pub(crate) struct Feeder {
    pub cfg: ProducerConfig,
    /// This shard's pool, which the feeder collates unplaced batches into.
    pub pool: Option<SlotPool>,
    /// The pool the source's loader builds its batches in ([`loader_pool`]).
    pub loader_pool: Option<SlotPool>,
    pub item_tx: Sender<FeederMsg>,
    pub stop: Arc<AtomicBool>,
    pub fetch_hist: Arc<Histogram>,
    pub trace: Arc<TraceRing>,
    pub bell: Bell,
}

impl Feeder {
    /// Hands `msg` to the pump; false when the pump went away.
    fn hand_over(&self, msg: FeederMsg) -> bool {
        let sent = self.item_tx.send(msg).is_ok();
        self.bell.ring();
        sent
    }

    pub(crate) fn run(self, source: impl EpochSource) {
        // Every `source.epoch()` below runs on this thread, whatever wraps
        // the loader: a binding scoped to it reaches the loader where a
        // method on the (public, wrapper-forwarded) `EpochSource` trait
        // would stop at the first wrapper that does not know it.
        let _bound = self.loader_pool.clone().map(bind_slot_pool);
        let stopping = || self.stop.load(Ordering::Relaxed);
        for epoch in 0..self.cfg.epochs {
            let mut preparer = Preparer::new(&self.cfg, self.pool.clone());
            let total = source.batches_per_epoch();
            let mut iter = source.epoch(epoch);
            let mut i = 0usize;
            // Under flexible sizing one item fuses several loader batches,
            // and its fetch span covers the whole accumulation.
            let mut fetch_open = 0u64;
            loop {
                // Time the fetch+collate of one loader batch — the
                // "loader-bound" signal. Backpressure (a full item channel,
                // a dry arena) is excluded: it means the *publish* side is
                // behind, not the loader.
                let fetch_start = Instant::now();
                if fetch_open == 0 {
                    fetch_open = self.trace.now_ns().max(1);
                }
                let Some(batch) = iter.next() else { break };
                if stopping() {
                    return;
                }
                let (mut parked, mut noticed) = (Duration::ZERO, false);
                let mut dry = || {
                    // One notice per dry spell, retried while the queue is
                    // full (the pump then has batches to publish and is
                    // not waiting on us yet).
                    noticed = noticed || self.item_tx.try_send(FeederMsg::ArenaDry).is_ok();
                    self.bell.ring();
                    let since = Instant::now();
                    std::thread::park_timeout(ARENA_RETRY);
                    parked += since.elapsed();
                    !stopping()
                };
                let pushed = preparer.push(batch, i + 1 == total, &mut dry);
                let fetched = fetch_start.elapsed().saturating_sub(parked);
                self.fetch_hist.record_duration(fetched);
                match pushed {
                    Ok(Some(mut item)) => {
                        item.fetch_span = (fetch_open, self.trace.now_ns());
                        fetch_open = 0;
                        if !self.hand_over(FeederMsg::Item(item)) {
                            return;
                        }
                    }
                    Ok(None) => {}
                    Err(reason) => {
                        if !stopping() {
                            self.hand_over(FeederMsg::Failed(reason));
                        }
                        return;
                    }
                }
                i += 1;
            }
            drop(iter);
            if !self.hand_over(FeederMsg::EpochDone(epoch)) {
                return;
            }
        }
    }
}

/// Counters reported by [`crate::Producer::join`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProducerStats {
    /// Epochs fully published.
    pub epochs_completed: u64,
    /// Announcements published (loader batches in default mode, producer
    /// batches in flexible mode).
    pub batches_published: u64,
    /// Batches replayed to rubberband joiners.
    pub batches_replayed: u64,
    /// Bytes staged onto the producer device.
    pub bytes_staged: u64,
    /// Peak number of simultaneously admitted consumers.
    pub peak_consumers: usize,
    /// Consumers detached for missing heartbeats.
    pub consumers_detached: u64,
    /// Joins rejected.
    pub joins_rejected: u64,
}
/// Handle to a running producer: the one pump thread that serves every
/// shard of a [`crate::Producer`].
///
/// Mirrors the paper's `producer.join()` clean-up call (Figure 3b): the
/// producer thread runs every epoch, then waits for outstanding acks and
/// publishes `End`.
pub(crate) struct TensorProducer {
    handle: Option<std::thread::JoinHandle<Vec<ProducerStats>>>,
    stop: Arc<AtomicBool>,
    /// Wakes the pump to see `stop`.
    bell: Bell,
}

impl std::fmt::Debug for TensorProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorProducer")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

/// Refuses a configuration no pipeline can run.
fn check(cfg: &ProducerConfig) -> Result<()> {
    if cfg.buffer_size == 0 {
        return Err(TsError::Config("buffer_size must be >= 1".into()));
    }
    if let Some(flex) = &cfg.flexible {
        if flex.producer_batch == 0 {
            return Err(TsError::Config("producer_batch must be >= 1".into()));
        }
    }
    Ok(())
}

impl TensorProducer {
    /// Binds every shard's sockets and opens its log, then spawns the pump
    /// thread over them: shard `i` publishes source `i` under config `i`.
    /// Nothing runs until every shard is set up, so a failure leaves
    /// nothing to unwind.
    pub(crate) fn spawn<S: EpochSource>(
        ctx: &TsContext,
        shards: Vec<(ProducerConfig, S)>,
    ) -> Result<TensorProducer> {
        let count = shards.len() as u32;
        let shard_ns = |shard: u32| (count > 1).then_some(shard);
        let (mut states, mut lanes, mut sources) = (Vec::new(), Vec::new(), Vec::new());
        for (shard, (cfg, source)) in (0..count).zip(shards) {
            check(&cfg)?;
            let loader = (
                source.batches_per_epoch() as u64,
                source.batch_size() as u64,
            );
            // Pinned batches keep their slabs past full acknowledgement, so
            // the rotation must cover the pin set.
            let pins = cfg.pinned_per_epoch(loader);
            let staging = StagingEngine::build(ctx, &cfg, shard_ns(shard), pins)?;
            let publisher = PubSocket::bind(&ctx.sockets, &cfg.data_endpoint())
                .map_err(|e| TsError::Socket(e.to_string()))?;
            let ctrl = PullSocket::bind(&ctx.sockets, &cfg.ctrl_endpoint())
                .map_err(|e| TsError::Socket(e.to_string()))?;
            let log = match &cfg.log {
                None => None,
                Some(logcfg) => Some(Self::open_log(ctx, logcfg, shard_ns(shard), shard)?),
            };
            let now = ctx.trace.now_ns();
            let mut state = State::new(ctx, cfg, (shard, count), log, loader, now);
            if let Some(engine) = &staging {
                state.watch_h2d(engine.h2d_hist());
            }
            states.push(state);
            lanes.push(Lane {
                publisher,
                ctrl,
                staging,
            });
            sources.push(source);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let bell = lanes[0].ctrl.bell();
        let pump = Pump {
            shards: states,
            lanes,
            stop: stop.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("tensorsocket-producer".to_string())
            .spawn(move || pump.run(sources))
            .map_err(|e| TsError::Socket(format!("spawn failed: {e}")))?;
        Ok(TensorProducer {
            handle: Some(handle),
            stop,
            bell,
        })
    }

    /// Opens the shard's durable batch log and cursor store.
    ///
    /// A non-empty existing log is refused: sequence numbers restart at 0
    /// every producer run, so appending over a previous run's records
    /// would serve stale bytes to groups that replay. The log directory is
    /// per-producer-run; consumer restarts (the crash-resume contract)
    /// happen within one producer run.
    pub(crate) fn open_log(
        ctx: &TsContext,
        logcfg: &ts_log::LogConfig,
        shard_ns: Option<u32>,
        shard: u32,
    ) -> Result<LogTee> {
        let log =
            BatchLog::open(logcfg, shard).map_err(|e| TsError::Config(format!("log open: {e}")))?;
        if log.next_seq().is_some() {
            return Err(TsError::Config(format!(
                "log dir {} already holds records from a previous run; point \
                 .log() at a fresh directory (sequence numbers restart per run)",
                logcfg.dir.display()
            )));
        }
        let cursors = CursorStore::open(&logcfg.dir)
            .map_err(|e| TsError::Config(format!("cursor store open: {e}")))?;
        let log = Arc::new(Mutex::new(log));
        Ok(LogTee::new(log, cursors, &ctx.metrics, shard_ns))
    }

    /// Requests the producer to stop after the batch in flight.
    pub(crate) fn abort(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.bell.ring();
    }

    /// Waits for the producer to finish all epochs and shut down cleanly;
    /// returns every shard's stats (index = shard).
    ///
    /// Joining an aborted producer is not an error: the partial
    /// [`ProducerStats`] accumulated up to the abort are returned (with
    /// `epochs_completed` short of the configured count), and the
    /// producer skips the outstanding-ack drain so the join returns
    /// promptly. `Err` is reserved for a panicked producer thread.
    pub(crate) fn join(mut self) -> Result<Vec<ProducerStats>> {
        let handle = self.handle.take().expect("join called once");
        handle
            .join()
            .map_err(|_| TsError::Socket("producer thread panicked".into()))
    }
}

impl Drop for TensorProducer {
    fn drop(&mut self) {
        self.abort();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
