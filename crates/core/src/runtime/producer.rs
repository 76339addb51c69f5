//! The producer pipeline behind [`crate::Producer`]: a server owning the
//! data-loading pipeline and multicasting batch payloads to consumers
//! (§3.2.1).
//!
//! The producer is a two-stage pipeline:
//!
//! 1. a **feeder** stage prepares batches *ahead of the publish cursor*:
//!    it iterates the wrapped loader (whose own `num_workers` threads
//!    decode and collate samples), applies the producer map, fuses loader
//!    batches into producer batches under flexible sizing, and hands the
//!    prepared batches over a bounded queue sized by the loader's
//!    `num_workers × prefetch_factor` ([`EpochSource::pipeline_hint`]);
//! 2. the **publish** stage stages each prepared batch on the configured
//!    device (accounting PCIe/NVLink/VRAM), registers storages in the
//!    shared registry (placing bytes in the shared-memory arena — through
//!    the recycling slot pool when one is bound), publishes pointer
//!    payloads, and processes the control stream (joins, readiness, acks,
//!    heartbeats, leaves).
//!
//! With `num_workers == 0` the feeder stage collapses into the publish
//! thread and batches are loaded inline (the serial producer). In both
//! shapes the publish loop never sleeps on a fixed poll: every wait parks
//! on the control channel and wakes the moment an ack/join/leave arrives,
//! with `poll_interval` only bounding stop-flag and liveness checks.
//!
//! Publishing is gated by the [`BatchWindow`]; memory release by the
//! [`AckTracker`]; admission by the [`RubberbandPolicy`]; liveness by the
//! [`HeartbeatMonitor`]. Batch order is identical across pipeline shapes:
//! the feeder queue is FIFO and sequence numbers are assigned at publish.

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
use crate::runtime::config::{ProducerConfig, ProducerMap};
use crate::runtime::context::TsContext;
use crate::runtime::coordinator::{EpochCoordinator, GroupJoin};
use crate::runtime::staging::{FeederMsg, Placement, PreparedItem, StagingEngine};
use crate::{Result, TsError};
use crossbeam::channel::{self, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ts_data::{Batch, DataLoader};
use ts_log::{BatchLog, CursorStore};
use ts_metrics::{Counter, Gauge, Histogram, SpanKind, TraceRing};
use ts_socket::{
    coalescing_cell, CoalescingReceiver, CoalescingSender, Multipart, PubSocket, PullSocket,
    RecvError,
};
use ts_tensor::{collate, SlotPool, Tensor, TensorError, TensorPayload};

/// Pre-resolved per-pipeline stage instrumentation: histogram and gauge
/// handles looked up once at spawn (same pattern as the staging engine's
/// gauges), so hot paths record with lock-free atomics and never touch
/// the registry. Namespaced like the staging metrics: `stage.` for the
/// first standalone producer, `stage.p<n>.` for further standalone
/// producers in the same context, `stage.s<shard>.` inside a sharded
/// group.
#[derive(Clone)]
struct StageMetrics {
    /// Feeder fetch+collate time per loader batch, nanoseconds.
    feeder_fetch: Arc<Histogram>,
    /// Publish→fully-acked round trip per batch, nanoseconds.
    publish_ack: Arc<Histogram>,
    /// Current rubberband pin depth (batches held for late joiners).
    pin_depth: Arc<Gauge>,
    /// Bytes sent over the streamed payload path (one increment per
    /// stream-mode subscriber per batch: each crosses the socket).
    stream_tx_bytes: Arc<Counter>,
    /// Payload bytes gathered into a new buffer to build a streamed frame
    /// because a tensor view was not contiguous. Contiguous tensors are
    /// borrowed into the frame, so this stays 0 on every collated batch —
    /// the streamed path's twin of `publish_copy_bytes`.
    stream_copy_bytes: Arc<Counter>,
    /// Streamed frames the data socket refused (a frame above the stream
    /// transports' limit); the consumer never receives that batch.
    stream_tx_errors: Arc<Counter>,
    /// Payload bytes the *publish loop* copied into the arena because an
    /// item arrived without a feeder placement. The zero-copy path — the
    /// feeder collates straight into leased slots — keeps this at 0 in
    /// steady state; every non-zero increment is a fallback (arena
    /// momentarily exhausted, or a source that hands out pre-shared
    /// storages the feeder cannot lease for).
    publish_copy_bytes: Arc<Counter>,
    /// Cursor offers displaced before any consumer-visible broadcast —
    /// the coalescing working as intended (latest-wins, no backlog).
    cursor_coalesced: Arc<Counter>,
    /// Bytes the durable-log spiller appended (CRC-framed streamed
    /// records, written off the publish hot path). 0 with no log bound.
    log_append_bytes: Arc<Counter>,
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
        Self {
            feeder_fetch: metrics.histogram(&format!("{prefix}feeder_fetch_ns")),
            publish_ack: metrics.histogram(&format!("{prefix}publish_ack_ns")),
            pin_depth: metrics.gauge(&format!("{prefix}pin_depth")),
            stream_tx_bytes: metrics.counter(&format!("{prefix}stream_tx_bytes")),
            stream_copy_bytes: metrics.counter(&format!("{prefix}stream_copy_bytes")),
            stream_tx_errors: metrics.counter(&format!("{prefix}stream_tx_errors")),
            publish_copy_bytes: metrics.counter(&format!("{prefix}publish_copy_bytes")),
            cursor_coalesced: metrics.counter(&format!("{prefix}cursor_coalesced")),
            log_append_bytes: metrics.counter(&format!("{prefix}log_append_bytes")),
        }
    }
}

/// A batch's tensors as streamed content. Contiguous tensors are borrowed
/// (the frame shares their storage); `copied` counts the bytes of any view
/// that had to be gathered instead.
fn streamed_content(fields: &[Tensor], labels: &Tensor, copied: &Counter) -> AnnounceContent {
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

/// One published batch handed to the durable-log spiller: cheap `Arc`
/// clones of the live tensors plus the announce metadata. The spiller
/// encodes the exact streamed wire frame
/// ([`ProducerLoop::encode_streamed`]'s shape) and appends it, so a log
/// replay later re-sends the bytes bit-identically to what a streamed
/// subscriber would have received live.
struct SpillMsg {
    seq: u64,
    epoch: u64,
    index_in_epoch: u64,
    last_in_epoch: bool,
    fields: Vec<Tensor>,
    labels: Tensor,
}

/// Producer-side durable-log state: the shared log handle (spiller
/// appends, control path reads), the persisted consumer-group cursors,
/// and the spiller thread's plumbing.
struct LogRuntime {
    log: Arc<Mutex<BatchLog>>,
    cursors: CursorStore,
    /// Dropped at drain to stop the spiller; `None` afterwards.
    spill_tx: Option<Sender<SpillMsg>>,
    spiller: Option<std::thread::JoinHandle<()>>,
    /// `seq + 1` of the last record the spiller durably appended — the
    /// release gate: a live batch's memory may only go once its bytes are
    /// in the log (the spiller reads the arena slots while encoding).
    logged_up_to: Arc<AtomicU64>,
    /// Set by the spiller on an append failure: logging is disabled for
    /// the rest of the run (releases proceed, replay stops being offered)
    /// instead of wedging the pipeline on a bad disk.
    failed: Arc<AtomicBool>,
    /// Pre-resolved gauges (`log.` / `log.s<N>.` namespace).
    lag: Arc<Gauge>,
    retained_min: Arc<Gauge>,
    retained_max: Arc<Gauge>,
}

/// The spiller loop: encode each published batch as its streamed wire
/// frame and append it to the log, entirely off the publish hot path.
/// `logged_up_to` advances even past a failed append (with `failed`
/// latched) so the producer's release gating never wedges on disk errors.
fn run_spiller(
    rx: channel::Receiver<SpillMsg>,
    log: Arc<Mutex<BatchLog>>,
    logged_up_to: Arc<AtomicU64>,
    failed: Arc<AtomicBool>,
    append_bytes: Arc<Counter>,
    append_errors: Arc<Counter>,
    copied: Arc<Counter>,
) {
    while let Ok(m) = rx.recv() {
        if !failed.load(Ordering::Relaxed) {
            let announce = BatchAnnounce {
                seq: m.seq,
                epoch: m.epoch,
                index_in_epoch: m.index_in_epoch,
                last_in_epoch: m.last_in_epoch,
                content: streamed_content(&m.fields, &m.labels, &copied),
            };
            // The log appends one contiguous record: the one copy of the
            // payload on this path.
            let frame = DataMsg::Batch(announce).encode();
            match log.lock().append(m.seq, m.epoch, m.index_in_epoch, &frame) {
                Ok(()) => append_bytes.add(frame.len() as u64),
                Err(e) => {
                    if append_errors.fetch_inc() == 0 {
                        eprintln!(
                            "tensorsocket: log append failed at seq {} ({e}) — \
                             disabling the durable log for this run",
                            m.seq
                        );
                    }
                    failed.store(true, Ordering::Release);
                }
            }
        }
        logged_up_to.store(m.seq + 1, Ordering::Release);
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
    /// Tensors per collated batch (fields + the label tensor).
    pub fn tensors_per_batch(&self) -> usize {
        self.field_bytes.len() + 1
    }

    /// The largest single tensor a batch of `batch_size` samples
    /// produces.
    pub fn max_tensor_bytes(&self, batch_size: usize) -> usize {
        self.field_bytes
            .iter()
            .chain(std::iter::once(&self.label_bytes))
            .map(|b| b * batch_size)
            .max()
            .unwrap_or(0)
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
    /// With `num_workers == 0` the producer loads inline on the publish
    /// thread (the serial shape); otherwise it spawns a feeder stage that
    /// prepares batches ahead of the publish cursor, with a hand-off queue
    /// of `num_workers × prefetch_factor` prepared batches (overridable
    /// via [`ProducerConfig::pipeline_depth`]).
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

/// Turns raw loader batches into [`PreparedItem`]s: applies the producer
/// map and, under flexible sizing, accumulates loader batches until a
/// producer batch is full and collates it. Used by both pipeline shapes so
/// serial and pipelined producers publish byte-identical streams.
struct Preparer {
    /// Flexible producer batch size; `None` passes loader batches through.
    producer_batch: Option<usize>,
    map: Option<ProducerMap>,
    /// Zero-copy publish: the recycling slot pool this pipeline's feeder
    /// leases arena slots from, plus the placement key the publish loop
    /// hands to [`ts_tensor::SharedRegistry::register_placed`]. `None`
    /// (no arena, or no pool bound for the shard) keeps the copying
    /// publish path.
    lease: Option<(SlotPool, Option<u32>)>,
    acc: Vec<Batch>,
    acc_samples: usize,
    pb_index: u64,
}

impl Preparer {
    fn new(cfg: &ProducerConfig, lease: Option<(SlotPool, Option<u32>)>) -> Self {
        Self {
            producer_batch: cfg.flexible.as_ref().map(|f| f.producer_batch),
            map: cfg.producer_map.clone(),
            lease,
            acc: Vec::new(),
            acc_samples: 0,
            pb_index: 0,
        }
    }

    /// Produces one output tensor from `parts`, collating directly into a
    /// leased arena slot when the zero-copy path applies (a pool is
    /// bound and every part is a host tensor not already backed by the
    /// arena). The resulting [`Placement`] carries the armed lease to the
    /// publish loop, which adopts it with zero bytes moved.
    ///
    /// Lease exhaustion (`TensorError::Arena`) falls back to the heap
    /// path silently — the publish loop will place (and count) the copy.
    /// `Err(())` is reserved for real collation failures.
    fn place_one(
        &self,
        parts: Vec<Tensor>,
    ) -> std::result::Result<(Tensor, Option<Placement>), ()> {
        if let Some((pool, pool_key)) = &self.lease {
            let eligible = parts
                .iter()
                .all(|t| !t.device().is_gpu() && !t.storage().is_shared_memory());
            if eligible {
                match collate::cat0_leased(&parts, pool, parts[0].device()) {
                    Ok((tensor, lease)) => {
                        return Ok((
                            tensor,
                            Some(Placement {
                                lease,
                                pool_key: *pool_key,
                            }),
                        ));
                    }
                    Err(TensorError::Arena(_)) => {}
                    Err(_) => return Err(()),
                }
            }
        }
        match parts.len() {
            1 => Ok((parts.into_iter().next().expect("one part"), None)),
            _ => Ok((collate::cat0(&parts).map_err(|_| ())?, None)),
        }
    }

    /// Feeds one loader batch; returns a prepared item when one is ready
    /// (always, in default mode; on producer-batch boundaries under
    /// flexible sizing) and `Err(())` when collation fails.
    fn push(&mut self, batch: Batch, last: bool) -> std::result::Result<Option<PreparedItem>, ()> {
        let Some(producer_batch) = self.producer_batch else {
            let batch = match &self.map {
                Some(map) => map(batch),
                None => batch,
            };
            let index_in_epoch = batch.index as u64;
            let mut fields = Vec::with_capacity(batch.fields.len());
            let mut placements = Vec::with_capacity(batch.fields.len() + 1);
            for t in batch.fields {
                let (t, p) = self.place_one(vec![t])?;
                fields.push(t);
                placements.push(p);
            }
            let (labels, p) = self.place_one(vec![batch.labels])?;
            placements.push(p);
            return Ok(Some(PreparedItem {
                index_in_epoch,
                last_in_epoch: last,
                fields,
                labels,
                placements,
                staged: false,
                staged_bytes: 0,
                fetch_span: (0, 0),
                copy_wait_span: (0, 0),
                h2d_span: (0, 0),
            }));
        };
        // Flexible sizing accumulates *raw* loader batches and applies the
        // map only at flush: boundary decisions must count raw sample
        // sizes, because `expected_announces` is computed from raw loader
        // geometry — a size-changing map would otherwise desynchronize
        // the two.
        self.acc_samples += batch.batch_size();
        self.acc.push(batch);
        if self.acc_samples < producer_batch && !last {
            return Ok(None);
        }
        let parts = std::mem::take(&mut self.acc);
        self.acc_samples = 0;
        let parts: Vec<Batch> = match &self.map {
            Some(map) => parts.into_iter().map(|b| map(b)).collect(),
            None => parts,
        };
        // Build the contiguous producer batch per field — straight into
        // leased arena slots when the zero-copy path is on, so the fuse
        // IS the placement and the publish loop moves no bytes.
        let num_fields = parts[0].fields.len();
        let mut fields = Vec::with_capacity(num_fields);
        let mut placements = Vec::with_capacity(num_fields + 1);
        for f in 0..num_fields {
            let per_part: Vec<Tensor> = parts.iter().map(|b| b.fields[f].clone()).collect();
            let (t, p) = self.place_one(per_part)?;
            fields.push(t);
            placements.push(p);
        }
        let label_parts: Vec<Tensor> = parts.iter().map(|b| b.labels.clone()).collect();
        let (labels, p) = self.place_one(label_parts)?;
        placements.push(p);
        let item = PreparedItem {
            index_in_epoch: self.pb_index,
            last_in_epoch: last,
            fields,
            labels,
            placements,
            staged: false,
            staged_bytes: 0,
            fetch_span: (0, 0),
            copy_wait_span: (0, 0),
            h2d_span: (0, 0),
        };
        self.pb_index += 1;
        Ok(Some(item))
    }
}

/// The feeder stage: owns the epoch source for the whole run and prepares
/// every epoch's batches ahead of the publish cursor — it rolls straight
/// from one epoch into the next, so the publish tail of epoch `e`
/// overlaps the preparation of `e + 1` with no refill bubble at the
/// boundary. The bounded item channel is both the backpressure (the
/// feeder parks once `depth` prepared batches are waiting) and the pacing
/// (the publish stage does not read epoch `e + 1` items before its
/// `EpochDone(e)` marker).
fn feeder_main(
    source: impl EpochSource,
    cfg: ProducerConfig,
    lease: Option<(SlotPool, Option<u32>)>,
    item_tx: Sender<FeederMsg>,
    stop: Arc<AtomicBool>,
    fetch_hist: Arc<Histogram>,
    trace: Arc<TraceRing>,
) {
    for epoch in 0..cfg.epochs {
        let mut preparer = Preparer::new(&cfg, lease.clone());
        let total = source.batches_per_epoch();
        let mut iter = source.epoch(epoch);
        let mut i = 0usize;
        // Fetch-span open stamp: under flexible sizing one item fuses
        // several loader batches, and its span covers the whole
        // accumulation, not just the last fetch.
        let mut fetch_open = 0u64;
        loop {
            // Time the fetch+collate of one loader batch — the
            // "loader-bound" signal. Backpressure on the item channel is
            // deliberately excluded: a full queue means the *publish*
            // stage is behind, not the loader.
            let fetch_start = Instant::now();
            if fetch_open == 0 {
                fetch_open = trace.now_ns().max(1);
            }
            let Some(batch) = iter.next() else { break };
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let pushed = preparer.push(batch, i + 1 == total);
            fetch_hist.record_duration(fetch_start.elapsed());
            match pushed {
                Ok(Some(mut item)) => {
                    item.fetch_span = (fetch_open, trace.now_ns());
                    fetch_open = 0;
                    if item_tx.send(FeederMsg::Item(item)).is_err() {
                        return; // publish stage went away
                    }
                }
                Ok(None) => {}
                Err(()) => {
                    let _ = item_tx.send(FeederMsg::Failed);
                    return;
                }
            }
            i += 1;
        }
        drop(iter);
        if item_tx.send(FeederMsg::EpochDone(epoch)).is_err() {
            return;
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

/// Handle to one running producer pipeline (one shard of a
/// [`crate::Producer`]).
///
/// Mirrors the paper's `producer.join()` clean-up call (Figure 3b): the
/// producer thread runs every epoch, then waits for outstanding acks and
/// publishes `End`.
pub(crate) struct TensorProducer {
    handle: Option<std::thread::JoinHandle<ProducerStats>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for TensorProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorProducer")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl TensorProducer {
    /// Spawns the producer thread over `source` — standalone, or as shard
    /// `shard` of a group when `coord` is given: epoch boundaries, join
    /// admission and pin release then go through the coordinator.
    pub(crate) fn spawn(
        source: impl EpochSource,
        ctx: &TsContext,
        cfg: ProducerConfig,
        coord: Option<Arc<EpochCoordinator>>,
        shard: u32,
    ) -> Result<TensorProducer> {
        if cfg.buffer_size == 0 {
            return Err(TsError::Config("buffer_size must be >= 1".into()));
        }
        if let Some(flex) = &cfg.flexible {
            if flex.producer_batch == 0 {
                return Err(TsError::Config("producer_batch must be >= 1".into()));
            }
        }
        if cfg.log.is_some() && cfg.flexible.is_some() {
            return Err(TsError::Config(
                "durable log and flexible sizing are incompatible: per-consumer carved \
                 views have no streamed serialization to store"
                    .into(),
            ));
        }
        let publisher = PubSocket::bind(&ctx.sockets, &cfg.data_endpoint())
            .map_err(|e| TsError::Socket(e.to_string()))?;
        let ctrl = PullSocket::bind(&ctx.sockets, &cfg.ctrl_endpoint())
            .map_err(|e| TsError::Socket(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let staging = StagingEngine::build(ctx, &cfg, coord.as_ref().map(|_| shard));
        let stage = StageMetrics::new(&ctx.metrics, coord.as_ref().map(|_| shard));
        let logrt = match &cfg.log {
            None => None,
            Some(logcfg) => Some(Self::build_log_runtime(
                ctx,
                logcfg,
                coord.as_ref().map(|_| shard),
                shard,
                &stage,
            )?),
        };
        let (cursor_tx, cursor_rx) = coalescing_cell();
        let state = ProducerLoop {
            ctx: ctx.clone(),
            cfg,
            coord,
            shard,
            publisher,
            ctrl,
            stop: stop.clone(),
            staging,
            cursor_tx,
            cursor_rx,
            last_cursor_flush: Instant::now(),
            replaying: false,
            deferred_replays: Vec::new(),
            logrt,
            groups: HashMap::new(),
            log_infos: HashMap::new(),
            deferred_log_replays: Vec::new(),
            last_log_sweep: Instant::now(),
            window: BatchWindow::new(0), // re-created in run() with real capacity
            acks: AckTracker::new(),
            hb: HeartbeatMonitor::new(1),
            consumers: HashMap::new(),
            awaiting_ready: HashSet::new(),
            join_replies: HashMap::new(),
            last_reply_nudge: Instant::now(),
            pending_join: Vec::new(),
            live: BTreeMap::new(),
            pinned: Vec::new(),
            pin_epoch: 0,
            epoch_start_seq: 0,
            published_in_epoch: 0,
            expected_announces: 0,
            epoch: 0,
            loader_batches: 0,
            loader_batch_size: 0,
            welcome: None,
            started: Instant::now(),
            stats: ProducerStats::default(),
            stage,
            trace: ctx.trace.clone(),
            last_publish: Instant::now(),
            last_watchdog: Instant::now(),
            watchdog_memo: None,
        };
        let name = match &state.coord {
            Some(_) => format!("tensorsocket-producer-s{shard}"),
            None => "tensorsocket-producer".to_string(),
        };
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || state.run(source))
            .map_err(|e| TsError::Socket(format!("spawn failed: {e}")))?;
        Ok(TensorProducer {
            handle: Some(handle),
            stop,
        })
    }

    /// Opens the shard's durable batch log and cursor store, spawns the
    /// spiller thread and pre-resolves the `log.*` gauges.
    ///
    /// A non-empty existing log is refused: sequence numbers restart at 0
    /// every producer run, so appending over a previous run's records
    /// would serve stale bytes to replaying groups. The log directory is
    /// per-producer-run; consumer restarts (the crash-resume contract)
    /// happen within one producer run.
    fn build_log_runtime(
        ctx: &TsContext,
        logcfg: &ts_log::LogConfig,
        shard_ns: Option<u32>,
        shard: u32,
        stage: &StageMetrics,
    ) -> Result<LogRuntime> {
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
        let logged_up_to = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(log));
        let (spill_tx, spill_rx) = channel::unbounded::<SpillMsg>();
        let spiller = {
            let log = log.clone();
            let logged_up_to = logged_up_to.clone();
            let failed = failed.clone();
            let append_bytes = stage.log_append_bytes.clone();
            let append_errors = ctx.metrics.counter("log.append_errors");
            let copied = stage.stream_copy_bytes.clone();
            std::thread::Builder::new()
                .name(format!("ts-log-spiller-s{shard}"))
                .spawn(move || {
                    run_spiller(
                        spill_rx,
                        log,
                        logged_up_to,
                        failed,
                        append_bytes,
                        append_errors,
                        copied,
                    )
                })
                .map_err(|e| TsError::Socket(format!("spawn spiller: {e}")))?
        };
        let prefix = match shard_ns {
            Some(s) => format!("log.s{s}."),
            None => "log.".to_string(),
        };
        let retained_min = ctx.metrics.gauge(&format!("{prefix}retained_min"));
        let retained_max = ctx.metrics.gauge(&format!("{prefix}retained_max"));
        // Same inverted-range convention as the WELCOME ad: min > max
        // reads "log enabled, nothing retained yet" to scrapers.
        retained_min.set(1.0);
        retained_max.set(0.0);
        Ok(LogRuntime {
            log,
            cursors,
            spill_tx: Some(spill_tx),
            spiller: Some(spiller),
            logged_up_to,
            failed,
            lag: ctx.metrics.gauge(&format!("{prefix}lag")),
            retained_min,
            retained_max,
        })
    }

    /// Requests the producer to stop after the batch in flight.
    pub(crate) fn abort(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the producer to finish all epochs and shut down cleanly.
    ///
    /// Joining an aborted producer is not an error: the partial
    /// [`ProducerStats`] accumulated up to the abort are returned (with
    /// `epochs_completed` short of the configured count), and the
    /// producer skips the outstanding-ack drain so the join returns
    /// promptly. `Err` is reserved for a panicked producer thread.
    pub(crate) fn join(mut self) -> Result<ProducerStats> {
        let handle = self.handle.take().expect("join called once");
        handle
            .join()
            .map_err(|_| TsError::Socket("producer thread panicked".into()))
    }
}

impl Drop for TensorProducer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct ConsumerInfo {
    batch_size: u32,
    /// Stable index used for flexible-mode offsets.
    index: usize,
    /// How this consumer's payload bytes travel: shm pointer-passing or
    /// length-prefixed streaming — negotiated at attach, fixed per
    /// subscription.
    mode: PayloadMode,
    /// First live-stream sequence this consumer was admitted at: the
    /// splice point a durable-log replay streams up to (exclusive).
    start_seq: u64,
}

/// A published batch whose tensors are still registered.
struct LiveBatch {
    epoch: u64,
    index_in_epoch: u64,
    last_in_epoch: bool,
    fields: Vec<Tensor>,
    labels: Tensor,
    /// Fully acked, release deferred because the rubberband window is open.
    releasable: bool,
    /// When the announcement went out, for the publish→ack round trip.
    published_at: Instant,
    /// Same instant on the flight recorder's clock — the ack span's start.
    published_ns: u64,
}

struct ProducerLoop {
    ctx: TsContext,
    cfg: ProducerConfig,
    /// Group coordinator when this loop is one shard of a sharded
    /// [`crate::Producer`].
    coord: Option<Arc<EpochCoordinator>>,
    /// Shard index within the group (0 when uncoordinated).
    shard: u32,
    publisher: PubSocket,
    ctrl: PullSocket,
    stop: Arc<AtomicBool>,
    /// Device staging engine (GPU devices with staging enabled): the
    /// slab pool plus, in the overlapped mode, the H2D copy stage.
    staging: Option<Arc<StagingEngine>>,
    /// Latest-wins publish-cursor cell: every publish offers the shard's
    /// position, housekeeping broadcasts whatever is current at a bounded
    /// cadence — a consumer waking from a stall reads ONE announcement,
    /// never a backlog.
    cursor_tx: CoalescingSender<(u64, u64, u64)>,
    cursor_rx: CoalescingReceiver<(u64, u64, u64)>,
    last_cursor_flush: Instant,
    /// True while `replay_to` or `stream_log_replay` streams a catch-up:
    /// control is drained between replayed batches (to observe a
    /// mid-replay detach), and a Ready or Replay landing there must defer
    /// its own replay instead of recursing.
    replaying: bool,
    deferred_replays: Vec<u64>,
    /// Durable-log state when [`ProducerConfig::log`] is set: spiller,
    /// cursor store and pre-resolved gauges.
    logrt: Option<LogRuntime>,
    /// Consumer id → registered group name, for the ack → cursor-advance
    /// write-through.
    groups: HashMap<u64, String>,
    /// Cached encoded `LogInfo` reply per consumer: a re-sent `Replay`
    /// request re-answers the cached frame, never a second replay stream.
    log_infos: HashMap<u64, bytes::Bytes>,
    /// Log replays `(consumer, from, to)` that landed while another
    /// replay was streaming; drained in arrival order.
    deferred_log_replays: Vec<(u64, u64, u64)>,
    /// Last pin-shed / retention / gauge sweep of the log subsystem.
    last_log_sweep: Instant,
    window: BatchWindow,
    acks: AckTracker,
    hb: HeartbeatMonitor,
    consumers: HashMap<u64, ConsumerInfo>,
    awaiting_ready: HashSet<u64>,
    /// Encoded `JoinReply` per consumer still awaiting `Ready`, re-sent
    /// periodically: on remote transports the reply can be published while
    /// the joiner's subscription is still propagating, and a lost reply
    /// would otherwise deadlock the handshake.
    join_replies: HashMap<u64, bytes::Bytes>,
    last_reply_nudge: Instant,
    pending_join: Vec<(u64, u32, PayloadMode)>,
    live: BTreeMap<u64, LiveBatch>,
    /// Seqs pinned for rubberband replay (current epoch, window open).
    pinned: Vec<u64>,
    /// The epoch the current admission state (`epoch_start_seq`, pin set)
    /// belongs to. Usually equals `epoch`; it lags by one while a
    /// coordinated shard is parked at the epoch barrier — `epoch` already
    /// names the next epoch, but a join admitted there replays the
    /// PREVIOUS epoch's pins, and its reply must say so or the consumer's
    /// shard-interleave cursors desynchronize.
    pin_epoch: u64,
    epoch_start_seq: u64,
    published_in_epoch: u64,
    expected_announces: u64,
    epoch: u64,
    /// Loader geometry, captured before the source moves into the feeder.
    loader_batches: u64,
    loader_batch_size: u64,
    /// The WELCOME self-description answered to attach HELLOs, built at
    /// `run` start once the loader geometry is known. Every shard of a
    /// group carries the identical description, but only shard 0 — whose
    /// control endpoint *is* the base endpoint consumers hello at — ever
    /// answers one.
    welcome: Option<WelcomeInfo>,
    started: Instant,
    stats: ProducerStats,
    /// Pre-resolved stage histogram/gauge handles (lock-free recording).
    stage: StageMetrics,
    /// The context's flight recorder (also cloned into the feeder and the
    /// staging engine): per-batch span stamps, TraceRequest replies, and
    /// the watchdog verdict all go through this one ring.
    trace: Arc<TraceRing>,
    /// When the last batch was announced — the watchdog's idle signal.
    last_publish: Instant,
    /// Last watchdog sweep, bounding the sweep to a low cadence.
    last_watchdog: Instant,
    /// Identity of the last stall counted — `(epoch, seq)` — so one
    /// ongoing stall increments its counter once, not once per sweep.
    watchdog_memo: Option<(u64, u64)>,
}

impl ProducerLoop {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn run(mut self, source: impl EpochSource) -> ProducerStats {
        self.window = BatchWindow::new(self.cfg.buffer_size);
        self.hb = HeartbeatMonitor::new(self.cfg.heartbeat_timeout.as_nanos() as u64);
        let policy = RubberbandPolicy {
            cutoff: self.cfg.rubberband_cutoff,
        };
        self.loader_batches = source.batches_per_epoch() as u64;
        self.loader_batch_size = source.batch_size() as u64;
        self.welcome = Some(WelcomeInfo {
            version: WIRE_VERSION,
            shards: self
                .coord
                .as_ref()
                .map(|c| c.num_shards() as u32)
                .unwrap_or(1),
            batch_size: self.loader_batch_size as u32,
            flex_producer_batch: self
                .cfg
                .flexible
                .as_ref()
                .map(|f| f.producer_batch as u32)
                .unwrap_or(0),
            staging: self.cfg.staging.mode.wire_code(),
            arena: self.ctx.registry.arena().map(|a| {
                let g = a.geometry();
                ArenaAd {
                    path: g.path.display().to_string(),
                    nslots: g.nslots as u64,
                    slot_size: g.slot_size as u64,
                }
            }),
            endpoint_overrides: self.cfg.shard_endpoints.clone(),
            // Flexible sizing carves per-consumer views of shared
            // storage; there is no streamed serialization of those views
            // yet, so flex producers grant the shm path only.
            payload_modes: if self.cfg.flexible.is_some() {
                caps::SHM
            } else {
                caps::SHM | caps::STREAM
            },
            // The retained range moves with every append and retention
            // sweep, so the ad is stamped per-HELLO (see the Hello arm),
            // not baked into the template.
            log: None,
        });
        if let Some(engine) = &self.staging {
            // Size the slab rotation before the first item is staged:
            // rubberband-pinned batches keep their slabs leased past full
            // acknowledgement, so the pool must cover the pin set or
            // steady-state staging would fall back to transient device
            // allocations on long epochs.
            engine.set_pin_headroom(policy.pinned_batches(self.expected_announces()) as usize);
        }
        // Resolve the feeder's lease pool once: pools are bound by the
        // builder before spawn. With one bound, collation writes straight
        // into recycled arena slots and publish is pure metadata.
        let lease = self
            .ctx
            .registry
            .lease_pool(self.coord.as_ref().map(|_| self.shard));
        let (workers, prefetch) = source.pipeline_hint();
        if workers == 0 {
            self.epochs_inline(source, lease, &policy);
        } else {
            let depth = self.cfg.pipeline_depth.unwrap_or(workers * prefetch).max(1);
            self.epochs_pipelined(source, lease, depth, &policy);
        }
        self.drain_outstanding();
        let _ = self
            .publisher
            .send(topics::CTRL, Multipart::single(DataMsg::End.encode()));
        // Release the staging subsystem: join the copy stage and drain
        // the VRAM slab rotation (consumers still reading return their
        // slabs' accounting when they let go).
        if let Some(engine) = &self.staging {
            engine.shutdown();
        }
        // Leave the group: barriers must not wait for a finished shard.
        if let Some(coord) = &self.coord {
            coord.retire(self.shard);
        }
        self.stats
    }

    /// Coordinated mode: parks at the group's epoch barrier until every
    /// shard finished the previous epoch, while staying responsive on the
    /// control channel (acks, heartbeats and joins keep flowing — a join
    /// landing here is deferred to the boundary by the coordinator).
    /// Uncoordinated producers pass straight through. Returns false to
    /// stop.
    fn sync_epoch_barrier(&mut self, policy: &RubberbandPolicy) -> bool {
        let Some(coord) = self.coord.clone() else {
            return true;
        };
        let pin_limit = policy.pinned_batches(self.expected_announces);
        let target = coord.arrive(self.shard, self.epoch, pin_limit);
        while !coord.reached(target) {
            if self.stop.load(Ordering::Relaxed) || coord.is_stopped() {
                return false;
            }
            if !self.wait_ctrl() {
                return false;
            }
        }
        !coord.is_stopped()
    }

    /// The serial shape: load, prepare and publish on this thread.
    fn epochs_inline(
        &mut self,
        source: impl EpochSource,
        lease: Option<(SlotPool, Option<u32>)>,
        policy: &RubberbandPolicy,
    ) {
        for epoch in 0..self.cfg.epochs {
            self.epoch = epoch;
            self.expected_announces = self.expected_announces();
            // In a group, align with the other shards BEFORE flushing the
            // pin set: pins survive the coordinated boundary, so a join
            // racing the boundary still replays from every shard.
            if !self.sync_epoch_barrier(policy) {
                return;
            }
            // Flush the previous epoch's deferred releases only now: the
            // pin set stays alive across the epoch boundary, so a join
            // landing between its last publish and this point can still
            // rubberband into it (after the final epoch, during drain).
            self.close_join_window();
            if !self.begin_epoch() {
                return; // stopped or no consumer ever arrived
            }
            let mut preparer = Preparer::new(&self.cfg, lease.clone());
            let total = source.batches_per_epoch();
            let mut iter = source.epoch(epoch);
            let mut i = 0usize;
            let mut fetch_open = 0u64;
            loop {
                // Same fetch+collate timing as the pipelined feeder:
                // publish time is excluded, so the histogram means the
                // same thing in both shapes.
                let fetch_start = Instant::now();
                if fetch_open == 0 {
                    fetch_open = self.trace.now_ns().max(1);
                }
                let Some(batch) = iter.next() else { break };
                if self.stop.load(Ordering::Relaxed) {
                    return;
                }
                let pushed = preparer.push(batch, i + 1 == total);
                self.stage
                    .feeder_fetch
                    .record_duration(fetch_start.elapsed());
                match pushed {
                    Ok(Some(mut item)) => {
                        item.fetch_span = (fetch_open, self.trace.now_ns());
                        fetch_open = 0;
                        if !self.publish_prepared(item, policy) {
                            return;
                        }
                    }
                    Ok(None) => {}
                    Err(()) => return, // collation failed: stop producing
                }
                i += 1;
            }
            drop(iter);
            self.stats.epochs_completed += 1;
        }
    }

    /// The pipelined shape: a feeder thread owns the source and prepares
    /// batches ahead of the publish cursor; this thread publishes them in
    /// arrival (= loader) order.
    fn epochs_pipelined(
        &mut self,
        source: impl EpochSource,
        lease: Option<(SlotPool, Option<u32>)>,
        depth: usize,
        policy: &RubberbandPolicy,
    ) {
        let (item_tx, item_rx) = channel::bounded::<FeederMsg>(depth);
        let feeder_cfg = self.cfg.clone();
        let feeder_stop = self.stop.clone();
        let feeder_hist = self.stage.feeder_fetch.clone();
        let feeder_trace = self.trace.clone();
        let feeder = std::thread::Builder::new()
            .name("tensorsocket-feeder".to_string())
            .spawn(move || {
                feeder_main(
                    source,
                    feeder_cfg,
                    lease,
                    item_tx,
                    feeder_stop,
                    feeder_hist,
                    feeder_trace,
                )
            })
            .expect("spawn feeder thread");
        // Overlapped staging interposes the H2D copy stage between the
        // feeder and this publish loop: items arrive here already staged,
        // so the copy of batch n runs while n+1 collates and n-1
        // publishes. Serial/off modes keep the direct hand-off.
        let item_rx = match &self.staging {
            Some(engine) if engine.overlapped() => {
                engine.spawn_copy_stage(item_rx, self.stop.clone())
            }
            _ => item_rx,
        };
        'epochs: for epoch in 0..self.cfg.epochs {
            self.epoch = epoch;
            self.expected_announces = self.expected_announces();
            if !self.sync_epoch_barrier(policy) {
                break;
            }
            // As in the serial shape: the previous epoch's pin set stays
            // alive across the boundary for rubberband joins.
            self.close_join_window();
            // The feeder is already loading this epoch (it rolls across
            // epoch boundaries on its own): by the time the first consumer
            // is admitted, `depth` batches are ready.
            if !self.begin_epoch() {
                break;
            }
            loop {
                if self.stop.load(Ordering::Relaxed) {
                    break 'epochs;
                }
                match item_rx.recv_timeout(self.cfg.poll_interval) {
                    Ok(FeederMsg::Item(item)) => {
                        if !self.publish_prepared(item, policy) {
                            break 'epochs;
                        }
                    }
                    Ok(FeederMsg::EpochDone(e)) if e == epoch => break,
                    Ok(FeederMsg::EpochDone(_)) => {}
                    Ok(FeederMsg::Failed) | Err(RecvTimeoutError::Disconnected) => break 'epochs,
                    // No item ready yet (loader-bound): stay responsive to
                    // joins/acks/heartbeats while the feeder catches up.
                    Err(RecvTimeoutError::Timeout) => self.poll_ctrl_once(),
                }
            }
            self.stats.epochs_completed += 1;
        }
        // Disconnect the item channel: the feeder observes the hangup even
        // mid-`send` and exits; nothing it prepared was registered, so
        // undelivered items just drop.
        drop(item_rx);
        let _ = feeder.join();
    }

    fn expected_announces(&self) -> u64 {
        match &self.cfg.flexible {
            None => self.loader_batches,
            Some(flex) => {
                let samples = self.loader_batches * self.loader_batch_size;
                samples.div_ceil(flex.producer_batch as u64)
            }
        }
    }

    /// Waits for at least one admitted consumer, admits pending boundary
    /// joiners, and announces the epoch. Returns false to stop.
    fn begin_epoch(&mut self) -> bool {
        self.published_in_epoch = 0;
        self.pin_epoch = self.epoch;
        self.epoch_start_seq = self.window.next_seq();
        // Admit everyone who was told to wait for this epoch (including
        // joins deferred because their group decision was stamped with an
        // epoch this shard had not begun yet — now it has).
        let pending = std::mem::take(&mut self.pending_join);
        for (id, bs, mode) in pending {
            self.admit(id, bs, mode, /*replay=*/ false);
            if let Some(coord) = &self.coord {
                coord.applied(self.shard, id);
            }
        }
        let deadline = self.cfg.first_consumer_timeout.map(|d| Instant::now() + d);
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return false;
            }
            self.poll_ctrl_once();
            if !self.consumers.is_empty() && self.awaiting_ready.is_empty() {
                break;
            }
            if self.consumers.is_empty() {
                if let Some(d) = deadline {
                    if Instant::now() > d {
                        return false;
                    }
                }
            }
            // Park until the next control message (a join/ready, normally)
            // rather than sleeping a fixed interval.
            if !self.wait_ctrl() {
                return false;
            }
        }
        let msg = DataMsg::EpochStart {
            epoch: self.epoch,
            num_batches: self.expected_announces,
        };
        let _ = self
            .publisher
            .send(topics::CTRL, Multipart::single(msg.encode()));
        true
    }

    /// Ensures a prepared item's tensors sit on the producer device,
    /// whichever staging shape is configured:
    ///
    /// * already staged (the overlapped copy stage ran) — pass through;
    /// * engine present (serial mode, or overlapped in the inline
    ///   producer shape, which has no feeder to overlap with) — stage
    ///   through the slab pool now;
    /// * no engine — the legacy per-tensor transfer.
    ///
    /// Returns `None` on device OOM (the producer stops, exactly like
    /// the legacy path).
    fn ensure_staged(&mut self, item: PreparedItem) -> Option<PreparedItem> {
        let staged_bytes = if item.staged {
            item.staged_bytes
        } else if let Some(engine) = self.staging.clone() {
            let staged = engine.stage_item(item).ok()?;
            let bytes = staged.staged_bytes;
            self.note_staged(bytes);
            return Some(staged);
        } else {
            // Legacy path: transfer tensor by tensor, rolling back the
            // accounted transfers if one fails mid-batch so the memory
            // book never leaks (a dropped legacy tensor has no reclaim
            // hook to free its accounting). A configured h2d bandwidth is
            // forwarded per call — caller-scoped, so Off-mode benchmark
            // rows carry the same constrained link model the staged
            // modes use without perturbing other users of the books.
            let mut staged: Vec<Tensor> = Vec::new();
            let mut transferred: Vec<u64> = Vec::new();
            for t in item.fields.iter().chain(std::iter::once(&item.labels)) {
                if t.device() == self.cfg.device {
                    staged.push(t.clone());
                    continue;
                }
                match self.ctx.devices.transfer_with_bandwidth(
                    t,
                    self.cfg.device,
                    self.cfg.staging.h2d_bandwidth,
                ) {
                    Ok(s) => {
                        transferred.push(s.view_bytes() as u64);
                        staged.push(s);
                    }
                    Err(_) => {
                        for bytes in transferred {
                            let _ = self.ctx.devices.account_free(self.cfg.device, bytes);
                        }
                        return None;
                    }
                }
            }
            let bytes: u64 = transferred.iter().sum();
            self.note_staged(bytes);
            let labels = staged.pop().expect("labels staged last");
            return Some(PreparedItem {
                fields: staged,
                labels,
                ..item
            });
        };
        self.note_staged(staged_bytes);
        Some(item)
    }

    /// Accounts bytes that were staged for a batch about to publish.
    fn note_staged(&mut self, bytes: u64) {
        self.stats.bytes_staged += bytes;
        self.ctx.metrics.counter("producer.bytes_staged").add(bytes);
    }

    fn register_live(
        &mut self,
        seq: u64,
        batch: LiveBatch,
        mut placements: Vec<Option<Placement>>,
    ) {
        // In a group, placements go through this shard's own slot pool
        // when one is bound (TsContext::enable_shard_slot_recycling).
        let pool_key = self.coord.as_ref().map(|_| self.shard);
        let arena_bound = self.ctx.registry.arena().is_some();
        // `placements` aligns with fields-then-labels; a short (or empty)
        // vec means the copying path for the remaining tensors.
        placements.resize_with(batch.fields.len() + 1, || None);
        for (t, placement) in batch
            .fields
            .iter()
            .chain(std::iter::once(&batch.labels))
            .zip(placements)
        {
            match placement {
                // Zero-copy: the feeder already collated the bytes into
                // this leased slot (for a staged tensor, the slot holds
                // the exact host bytes the device copy was made from) —
                // adopt the lease, move nothing.
                Some(p) => {
                    self.ctx.registry.register_placed(
                        t.storage(),
                        p.lease.into_handle(),
                        p.pool_key,
                    );
                }
                None => {
                    // Copying fallback: with an arena bound, registering a
                    // storage the arena does not already back memcpys it
                    // into a slot on THIS thread. Count the bytes so tests
                    // and the CI smoke gate can assert steady state stays
                    // at zero.
                    if arena_bound && !t.storage().is_shared_memory() {
                        self.stage.publish_copy_bytes.add(t.view_bytes() as u64);
                    }
                    self.ctx.registry.register_for_shard(t.storage(), pool_key);
                }
            }
        }
        self.live.insert(seq, batch);
    }

    fn release(&mut self, seq: u64) {
        let Some(batch) = self.live.remove(&seq) else {
            return;
        };
        for t in batch.fields.iter().chain(std::iter::once(&batch.labels)) {
            self.ctx.registry.release(t.storage_id());
            // Per tensor, not per batch: a slab-backed storage returns
            // its slab (and keeps its device accounting in the rotation)
            // through its reclaim hook, while a tensor that reached the
            // device some other way — the legacy transfer path, or a
            // producer_map that staged it itself — was accounted as a
            // one-off allocation and must be freed here.
            if t.device().is_gpu() && !t.storage().is_recycled() {
                let _ = self
                    .ctx
                    .devices
                    .account_free(t.device(), t.view_bytes() as u64);
            }
        }
    }

    fn on_fully_acked(&mut self, seq: u64) {
        if let Some(b) = self.live.get(&seq) {
            self.stage
                .publish_ack
                .record_duration(b.published_at.elapsed());
            // The retire span closes the record: the batch's whole
            // producer-side life is now covered and it becomes visible to
            // TraceRequest scrapes.
            self.trace.record(
                b.epoch,
                self.shard,
                seq,
                SpanKind::Ack,
                b.published_ns,
                self.trace.now_ns(),
            );
            self.trace.complete(b.epoch, self.shard, seq);
        }
        if self.pinned.contains(&seq) || !self.durably_logged(seq) {
            if let Some(b) = self.live.get_mut(&seq) {
                // Defer: the rubberband window is still open, or the
                // spiller has not durably appended this batch yet (its
                // encode reads the arena slots). The log sweep releases
                // deferred batches — including shed pins — once logged.
                b.releasable = true;
            }
        } else {
            self.release(seq);
        }
    }

    /// True when the spiller no longer needs batch `seq`'s arena bytes:
    /// either no log is bound, or the spiller has moved past it. This is
    /// the memory-release gate only — `logged_up_to` advances past failed
    /// appends, so this is NOT proof the bytes are in the log; the log
    /// sweep makes that distinction when shedding pins (replay sources).
    fn durably_logged(&self, seq: u64) -> bool {
        match &self.logrt {
            None => true,
            Some(rt) => seq < rt.logged_up_to.load(Ordering::Acquire),
        }
    }

    fn join_window_open(&self, policy: &RubberbandPolicy) -> bool {
        self.published_in_epoch <= policy.pinned_batches(self.expected_announces)
            && self.published_in_epoch > 0
    }

    fn close_join_window(&mut self) {
        let pinned = std::mem::take(&mut self.pinned);
        self.stage.pin_depth.set(0.0);
        for seq in pinned {
            let releasable = self.live.get(&seq).map(|b| b.releasable).unwrap_or(false);
            // An acked pin the spiller has not caught up with yet keeps
            // its `releasable` flag; the log sweep frees it once logged.
            if releasable && self.durably_logged(seq) {
                self.release(seq);
            }
        }
    }

    /// Blocks until the window admits the next publish, parking on the
    /// control channel between checks (an ack is what reopens the window,
    /// so the wake is immediate). Returns false to stop.
    fn wait_for_window(&mut self) -> bool {
        self.poll_ctrl_once();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return false;
            }
            if !self.consumers.is_empty()
                && self.awaiting_ready.is_empty()
                && self.window.can_publish()
            {
                return true;
            }
            if !self.wait_ctrl() {
                return false;
            }
        }
    }

    /// Publishes one prepared batch: wait for the window, stage on the
    /// device (unless the overlapped copy stage already did), register
    /// (placing bytes in the arena — recycled slots when a pool is
    /// bound), announce, and maintain the rubberband pin set.
    fn publish_prepared(&mut self, mut item: PreparedItem, policy: &RubberbandPolicy) -> bool {
        // Close the copy-wait span at dequeue: its start was stamped by
        // the overlapped copy stage when it finished staging this item.
        if item.copy_wait_span.0 != 0 && item.copy_wait_span.1 == 0 {
            item.copy_wait_span.1 = self.trace.now_ns();
        }
        // The publish span: window admission (waiting for acks to reopen
        // it), inline staging when the copy stage did not run, and
        // payload registration — everything before the announce.
        let publish_open = self.trace.now_ns().max(1);
        if !self.wait_for_window() {
            return false;
        }
        let Some(item) = self.ensure_staged(item) else {
            return false; // device OOM: stop producing
        };
        // The batch only now gets its key: spans measured upstream rode
        // on the item, and land in the recorder together here.
        let pre_spans = [
            (SpanKind::Fetch, item.fetch_span),
            (SpanKind::CopyWait, item.copy_wait_span),
            (SpanKind::H2d, item.h2d_span),
        ];
        let (fields, labels, placements) = (item.fields, item.labels, item.placements);
        let seq = self.window.published();
        for (kind, (start, end)) in pre_spans {
            self.trace
                .record(self.epoch, self.shard, seq, kind, start, end);
        }
        self.published_in_epoch += 1;
        if let Some(coord) = &self.coord {
            coord.note_published(self.shard, self.published_in_epoch);
        }
        // Register first: adopting the feeder's placements when the
        // zero-copy path ran (pure metadata), else — with an arena bound —
        // placing the bytes in shared memory here; packing then embeds
        // the placement either way.
        self.register_live(
            seq,
            LiveBatch {
                epoch: self.epoch,
                index_in_epoch: item.index_in_epoch,
                last_in_epoch: item.last_in_epoch,
                fields,
                labels,
                releasable: false,
                published_at: Instant::now(),
                published_ns: self.trace.now_ns().max(1),
            },
            placements,
        );
        self.acks.published(seq, self.consumers.keys().copied());
        self.trace.record(
            self.epoch,
            self.shard,
            seq,
            SpanKind::Publish,
            publish_open,
            self.trace.now_ns(),
        );
        let announce_open = self.trace.now_ns().max(1);
        if self.cfg.flexible.is_some() {
            // Send each consumer its own carved view of the producer batch.
            let consumer_ids: Vec<u64> = self.consumers.keys().copied().collect();
            for id in consumer_ids {
                if self.send_flex_to(id, seq).is_err() {
                    return false;
                }
            }
        } else {
            let live = self.live.get(&seq).expect("just inserted");
            let announce = BatchAnnounce {
                seq,
                epoch: self.epoch,
                index_in_epoch: live.index_in_epoch,
                last_in_epoch: live.last_in_epoch,
                content: AnnounceContent::Shared {
                    fields: live
                        .fields
                        .iter()
                        .map(|t| TensorPayload::pack_shared(t, &self.ctx.registry))
                        .collect(),
                    labels: TensorPayload::pack_shared(&live.labels, &self.ctx.registry),
                },
            };
            let _ = self.publisher.send(
                topics::BATCH,
                Multipart::single(DataMsg::Batch(announce).encode()),
            );
            // Stream-mode consumers cannot follow the pointer announce:
            // send them the bytes themselves on their private topics.
            self.send_streamed(seq);
        }
        self.trace.record(
            self.epoch,
            self.shard,
            seq,
            SpanKind::Announce,
            announce_open,
            self.trace.now_ns(),
        );
        // Tee the published batch into the durable log: a metadata-only
        // hand-off (Arc clones) to the spiller thread, which encodes and
        // appends off this hot path. Release of the batch's memory is
        // gated on `logged_up_to`, so the spiller always reads live bytes.
        if let Some(tx) = self.logrt.as_ref().and_then(|rt| rt.spill_tx.as_ref()) {
            if let Some(live) = self.live.get(&seq) {
                let _ = tx.send(SpillMsg {
                    seq,
                    epoch: self.epoch,
                    index_in_epoch: live.index_in_epoch,
                    last_in_epoch: live.last_in_epoch,
                    fields: live.fields.clone(),
                    labels: live.labels.clone(),
                });
            }
        }
        self.last_publish = Instant::now();
        // In a group the pin predicate is global: this shard keeps pinning
        // while ANY shard could still admit a joiner (which would replay
        // from all of them), and while a decided admission has not been
        // applied here yet — otherwise a shard racing past its own pin
        // boundary would drop batches an in-flight joiner must replay.
        let window_open = match &self.coord {
            Some(coord) => coord.pin_window_open(self.shard),
            None => self.join_window_open(policy),
        };
        if window_open || self.published_in_epoch == 1 {
            self.pinned.push(seq);
        } else {
            self.close_join_window();
        }
        self.stage.pin_depth.set(self.pinned.len() as f64);
        self.stats.batches_published += 1;
        self.ctx.metrics.counter("producer.batches").inc();
        // Offer (never send) the publish cursor: the coalescing cell keeps
        // only the newest position, and housekeeping broadcasts it at a
        // bounded cadence off the hot path.
        if let Some(live) = self.live.get(&seq) {
            if self
                .cursor_tx
                .offer((self.epoch, seq, live.index_in_epoch))
                .is_some()
            {
                self.stage.cursor_coalesced.inc();
            }
        }
        true
    }

    /// Builds and sends consumer `id`'s flexible announce for producer batch
    /// `seq` from the live record.
    fn send_flex_to(&mut self, id: u64, seq: u64) -> Result<()> {
        let flex = self.cfg.flexible.clone().expect("flex mode");
        let info = self
            .consumers
            .get(&id)
            .ok_or_else(|| TsError::Join("unknown consumer".into()))?;
        let consumer_bs = info.batch_size as usize;
        let consumer_index = info.index;
        let live = self
            .live
            .get(&seq)
            .ok_or_else(|| TsError::Socket("live batch missing".into()))?;
        let p = live.labels.shape()[0];
        let bs = consumer_bs.min(p).max(1);
        let offset = flex
            .order
            .offset_for(consumer_index, self.consumers.len().max(1), p);
        let plan = plan_flex(p, bs, offset)?;
        let order = flex.order.visit_order(id, seq, plan.batches.len());
        let mut batches = Vec::with_capacity(plan.batches.len());
        for &k in &order {
            let planned = &plan.batches[k];
            let mut field_segs = Vec::with_capacity(live.fields.len());
            for field in &live.fields {
                let segs: Result<Vec<TensorPayload>> = planned
                    .segments
                    .iter()
                    .map(|s| {
                        Ok(TensorPayload::pack_shared(
                            &field.narrow(0, s.start, s.len)?,
                            &self.ctx.registry,
                        ))
                    })
                    .collect();
                field_segs.push(segs?);
            }
            let label_segs: Result<Vec<TensorPayload>> = planned
                .segments
                .iter()
                .map(|s| {
                    Ok(TensorPayload::pack_shared(
                        &live.labels.narrow(0, s.start, s.len)?,
                        &self.ctx.registry,
                    ))
                })
                .collect();
            batches.push(FlexBatchPayload {
                fields: field_segs,
                labels: label_segs?,
            });
        }
        let announce = BatchAnnounce {
            seq,
            epoch: live.epoch,
            index_in_epoch: live.index_in_epoch,
            last_in_epoch: live.last_in_epoch,
            content: AnnounceContent::Flex { batches },
        };
        self.publisher
            .send(
                &topics::consumer(id),
                Multipart::single(DataMsg::Batch(announce).encode()),
            )
            .map_err(|e| TsError::Socket(e.to_string()))?;
        Ok(())
    }

    /// The streamed (length-prefixed bytes) announce for live batch `seq`
    /// as a chunked frame: small head segments plus the tensors' own
    /// memory, borrowed. Built once; every stream-mode subscriber gets a
    /// clone (reference counts, no bytes).
    fn encode_streamed(&self, seq: u64) -> Option<Multipart> {
        let live = self.live.get(&seq)?;
        let announce = BatchAnnounce {
            seq,
            epoch: live.epoch,
            index_in_epoch: live.index_in_epoch,
            last_in_epoch: live.last_in_epoch,
            content: streamed_content(&live.fields, &live.labels, &self.stage.stream_copy_bytes),
        };
        Some(Multipart::chunked(
            DataMsg::Batch(announce).encode_segments(),
        ))
    }

    /// Publishes a frame of payload bytes on consumer `id`'s topic. The
    /// socket refuses a frame no stream peer would accept; that consumer
    /// then never sees the batch, so the refusal is counted and the first
    /// one reported.
    fn send_bytes_to(&self, id: u64, frame: Multipart) {
        if let Err(e) = self.publisher.send(&topics::consumer(id), frame) {
            if self.stage.stream_tx_errors.fetch_inc() == 0 {
                eprintln!(
                    "tensorsocket: a streamed batch for consumer {id} was not sent ({e}); \
                     further refusals are counted in stream_tx_errors"
                );
            }
        }
    }

    /// Sends live batch `seq` as bytes to every stream-mode consumer (the
    /// negotiated fallback for consumers that cannot map the arena). Same
    /// seq space as the pointer announce, so window/ack accounting is
    /// shared between the two payload paths.
    fn send_streamed(&mut self, seq: u64) {
        let stream_ids: Vec<u64> = self
            .consumers
            .iter()
            .filter(|(_, c)| c.mode == PayloadMode::Stream)
            .map(|(&id, _)| id)
            .collect();
        if stream_ids.is_empty() {
            return;
        }
        let Some(frame) = self.encode_streamed(seq) else {
            return;
        };
        for id in stream_ids {
            self.stage.stream_tx_bytes.add(frame.byte_len() as u64);
            self.send_bytes_to(id, frame.clone());
        }
    }

    /// Replays the pinned epoch prefix to a rubberband joiner.
    fn replay_to(&mut self, id: u64) {
        let mode = self
            .consumers
            .get(&id)
            .map(|c| c.mode)
            .unwrap_or(PayloadMode::Shm);
        let pinned = self.pinned.clone();
        for seq in pinned {
            // A consumer can detach mid-replay — an explicit Leave, or a
            // heartbeat expiry while we stream its catch-up. Drain control
            // between batches so the detach is observed, and stop encoding
            // for it the moment it is gone: the streamed path in
            // particular would otherwise keep serializing full payloads
            // at a dead topic until the loop ran dry.
            self.poll_ctrl_once();
            if !self.consumers.contains_key(&id) {
                break;
            }
            if self.cfg.flexible.is_some() {
                let _ = self.send_flex_to(id, seq);
            } else if mode == PayloadMode::Stream {
                // A shed pin's live entry is gone; its stored log frame IS
                // the streamed frame, bit-identical.
                let (frame, from_log) = match self.encode_streamed(seq) {
                    Some(f) => (Some(f), false),
                    None => (self.log_frame(seq), true),
                };
                if let Some(frame) = frame {
                    let len = frame.byte_len() as u64;
                    if from_log {
                        self.ctx.metrics.counter("replay.log_batches").inc();
                        self.ctx.metrics.counter("replay.log_bytes").add(len);
                    }
                    self.stage.stream_tx_bytes.add(len);
                    self.send_bytes_to(id, frame);
                }
            } else if let Some(live) = self.live.get(&seq) {
                let announce = BatchAnnounce {
                    seq,
                    epoch: live.epoch,
                    index_in_epoch: live.index_in_epoch,
                    last_in_epoch: live.last_in_epoch,
                    content: AnnounceContent::Shared {
                        fields: live
                            .fields
                            .iter()
                            .map(|t| TensorPayload::pack_shared(t, &self.ctx.registry))
                            .collect(),
                        labels: TensorPayload::pack_shared(&live.labels, &self.ctx.registry),
                    },
                };
                let _ = self.publisher.send(
                    &topics::consumer(id),
                    Multipart::single(DataMsg::Batch(announce).encode()),
                );
            } else if let Some(frame) = self.log_frame(seq) {
                // Shed pin on the shm path: the live entry was released
                // once durably logged. Replay the stored streamed frame —
                // the consumer rebuilds from bytes in any payload mode.
                self.ctx.metrics.counter("replay.log_batches").inc();
                self.ctx
                    .metrics
                    .counter("replay.log_bytes")
                    .add(frame.byte_len() as u64);
                self.send_bytes_to(id, frame);
            }
            self.stats.batches_replayed += 1;
            self.ctx.metrics.counter("producer.replays").inc();
        }
    }

    /// The stored wire frame for logged batch `seq`, if the log holds it:
    /// the buffer the log read it into, as it is.
    fn log_frame(&self, seq: u64) -> Option<Multipart> {
        let rt = self.logrt.as_ref()?;
        let record = rt.log.lock().read(seq)?;
        Some(Multipart::single(bytes::Bytes::from(record)))
    }

    /// The durable-log section of a WELCOME: `None` with no (healthy)
    /// log; the inverted range `min > max` advertises a log that has not
    /// retained anything yet, so group consumers still register replay
    /// cursors from the very first batch.
    fn log_ad(&self) -> Option<LogAd> {
        let rt = self.logrt.as_ref()?;
        if rt.failed.load(Ordering::Relaxed) {
            return None;
        }
        Some(match rt.log.lock().retained_range() {
            Some((min, max)) => LogAd {
                retained_min: min,
                retained_max: max,
            },
            None => LogAd {
                retained_min: 1,
                retained_max: 0,
            },
        })
    }

    /// Admits a consumer: reply, track, and (on `replay`) schedule catch-up.
    fn admit(&mut self, id: u64, batch_size: u32, mode: PayloadMode, replay: bool) {
        let index = self.consumers.len();
        self.consumers.insert(
            id,
            ConsumerInfo {
                batch_size,
                index,
                mode,
                start_seq: self.epoch_start_seq,
            },
        );
        self.stats.peak_consumers = self.stats.peak_consumers.max(self.consumers.len());
        self.awaiting_ready.insert(id);
        // Joining the window immediately halts publishing until the joiner
        // catches up — the rubberband "halt all other consumers".
        self.window.add_consumer(id, self.epoch_start_seq);
        if replay {
            self.acks
                .add_consumer_to_range(id, self.epoch_start_seq, self.window.next_seq());
            // Batches whose release was deferred (fully acked by the old
            // consumers while pinned) must be re-armed: the newcomer will
            // consume the replay, so the memory may only go once it acks.
            let pinned = self.pinned.clone();
            for seq in pinned {
                if let Some(b) = self.live.get_mut(&seq) {
                    if b.releasable {
                        b.releasable = false;
                        self.acks.published(seq, [id]);
                    }
                }
            }
        }
        let reply = DataMsg::JoinReply {
            consumer_id: id,
            decision: JoinDecision::AdmitReplay {
                // The epoch whose pins will be replayed — NOT `self.epoch`,
                // which may already name the next epoch while this shard is
                // parked at the group's boundary barrier.
                epoch: self.pin_epoch,
                replay_from: 0,
                num_batches: self.expected_announces,
                start_seq: self.epoch_start_seq,
            },
        };
        let encoded = reply.encode();
        self.join_replies.insert(id, encoded.clone());
        let _ = self
            .publisher
            .send(&topics::consumer(id), Multipart::single(encoded));
    }

    /// Admits a consumer mid-epoch at the current stream position (used when
    /// no other consumer is active, so there is nobody to halt and nothing
    /// pinned to replay).
    fn admit_at_current(&mut self, id: u64, batch_size: u32, mode: PayloadMode) {
        let start_seq = self.window.next_seq();
        let index = self.consumers.len();
        self.consumers.insert(
            id,
            ConsumerInfo {
                batch_size,
                index,
                mode,
                start_seq,
            },
        );
        self.stats.peak_consumers = self.stats.peak_consumers.max(self.consumers.len());
        self.awaiting_ready.insert(id);
        self.window.add_consumer(id, start_seq);
        let reply = DataMsg::JoinReply {
            consumer_id: id,
            decision: JoinDecision::AdmitReplay {
                epoch: self.pin_epoch,
                replay_from: self.published_in_epoch,
                num_batches: self.expected_announces,
                start_seq,
            },
        };
        let encoded = reply.encode();
        self.join_replies.insert(id, encoded.clone());
        let _ = self
            .publisher
            .send(&topics::consumer(id), Multipart::single(encoded));
    }

    fn remove_consumer(&mut self, id: u64, notify: bool) {
        if let Some(coord) = &self.coord {
            // A decided admission for a gone consumer must not keep the
            // group's pins alive or wedge the epoch barrier.
            coord.abandon(id);
        }
        self.consumers.remove(&id);
        self.awaiting_ready.remove(&id);
        self.join_replies.remove(&id);
        self.groups.remove(&id);
        self.log_infos.remove(&id);
        self.deferred_log_replays.retain(|(cid, ..)| *cid != id);
        self.window.remove_consumer(id);
        self.hb.remove(id);
        for seq in self.acks.remove_consumer(id) {
            self.on_fully_acked(seq);
        }
        if notify {
            let msg = DataMsg::Detached { consumer_id: id };
            let _ = self
                .publisher
                .send(&topics::consumer(id), Multipart::single(msg.encode()));
        }
    }

    /// Dispatches one control message.
    fn handle_ctrl_frame(&mut self, msg: Multipart) {
        let policy = RubberbandPolicy {
            cutoff: self.cfg.rubberband_cutoff,
        };
        let Some(frame) = msg.frames().first() else {
            return;
        };
        let Ok(ctrl) = CtrlMsg::decode_shared(frame) else {
            return;
        };
        // HELLO carries a one-shot reply token, not a consumer id: answer
        // it statelessly (a consumer that missed the reply retries with
        // the same token) and never let the token into the heartbeat
        // monitor, where it would register a phantom consumer.
        if let CtrlMsg::Hello {
            token,
            caps: hello_caps,
            ..
        } = ctrl
        {
            // Capability bits we do not know yet are ignored (the peer
            // falls back to what the WELCOME grants), but counted so a
            // mixed-version fleet is observable.
            if hello_caps & !caps::KNOWN != 0 {
                self.ctx
                    .metrics
                    .counter("producer.hello_unknown_caps")
                    .inc();
            }
            // Whatever version the HELLO declares, the answer is this
            // build's WELCOME: the caller compares versions and fails
            // typed on a mismatch.
            if let Some(mut info) = self.welcome.clone() {
                // Stamped per HELLO — the retained range moves with
                // appends and retention.
                info.log = self.log_ad();
                let reply = DataMsg::Welcome { token, info };
                let _ = self
                    .publisher
                    .send(&topics::hello(token), Multipart::single(reply.encode()));
            }
            return;
        }
        // Stats scrapes follow the same stateless pattern: snapshot the
        // registry, answer on the caller's one-shot topic, done. Every
        // wait loop funnels through here, so a producer is scrapeable in
        // any state — mid-epoch, at an epoch barrier, or draining acks.
        if let CtrlMsg::StatsRequest { token, seq, .. } = ctrl {
            // Echo the scraper's per-attempt stamp: it re-sends the
            // request while waiting, and a late duplicate snapshot from
            // attempt N must not be mistaken for attempt N+1's reply.
            // Fold the flight recorder's own health into the registry
            // right before snapshotting — scrape-time only, never on the
            // publish path.
            self.ctx
                .metrics
                .gauge("trace.dropped")
                .set(self.trace.dropped() as f64);
            self.ctx
                .metrics
                .gauge("trace.capacity")
                .set(self.trace.capacity() as f64);
            let mut payload = StatsPayload::from_registry(&self.ctx.metrics);
            payload.uptime_ns = self.started.elapsed().as_nanos() as u64;
            payload.snapshot_ns = self.trace.now_ns();
            payload.verdict = self.trace.verdict();
            let reply = DataMsg::Stats {
                token,
                payload,
                seq,
            };
            let _ = self
                .publisher
                .send(&topics::stats(token), Multipart::single(reply.encode()));
            return;
        }
        // Trace scrapes are the same stateless shape on their own one-shot
        // topic: the last-N completed flight-recorder records, answered
        // from any wait state.
        if let CtrlMsg::TraceRequest {
            token, seq, max, ..
        } = ctrl
        {
            let max = (max as usize).clamp(1, 256);
            let reply = DataMsg::Trace {
                token,
                payload: TracePayload {
                    version: WIRE_VERSION,
                    now_ns: self.trace.now_ns(),
                    records: self.trace.last_n(max),
                },
                seq,
            };
            let _ = self
                .publisher
                .send(&topics::trace(token), Multipart::single(reply.encode()));
            return;
        }
        // Forward compatibility: a well-formed frame with a tag from a
        // newer peer is ignored (logged once), never an error and never a
        // phantom consumer in the heartbeat monitor.
        if let CtrlMsg::Unknown { tag } = ctrl {
            if self
                .ctx
                .metrics
                .counter("producer.ctrl_unknown")
                .fetch_inc()
                == 0
            {
                eprintln!("tensorsocket: ignoring unknown ctrl tag {tag} (newer peer?)");
            }
            return;
        }
        let now = self.now_ns();
        self.hb.beat(ctrl.consumer_id(), now);
        match ctrl {
            CtrlMsg::Join {
                consumer_id,
                batch_size,
                mode,
            } => self.handle_join(consumer_id, batch_size, mode, &policy),
            CtrlMsg::Ready { consumer_id } => {
                if self.awaiting_ready.remove(&consumer_id) {
                    self.join_replies.remove(&consumer_id);
                    self.replay_needed(consumer_id);
                }
            }
            CtrlMsg::Ack { consumer_id, seq } => {
                self.window.on_ack(consumer_id, seq);
                if self.acks.on_ack(consumer_id, seq) {
                    self.on_fully_acked(seq);
                }
                // Exactly-once resume: advance the consumer's group cursor
                // in memory on every ack (a log-replayed old seq below the
                // stored cursor is ignored as a regression); the log sweep
                // persists the coalesced value at its ~25ms cadence, so a
                // crash re-delivers at most one sweep interval of acked
                // batches — which acks already tolerate as regressions —
                // instead of paying tmp+rename syscalls per ack on the
                // control path.
                let shard = self.shard;
                if let Some(group) = self.groups.get(&consumer_id) {
                    if let Some(rt) = &mut self.logrt {
                        rt.cursors.advance_mem(group, shard, seq + 1);
                    }
                }
            }
            CtrlMsg::Replay {
                consumer_id,
                group,
                from,
            } => self.handle_replay(consumer_id, group, from),
            CtrlMsg::Heartbeat { .. } => {}
            CtrlMsg::Leave { consumer_id } => {
                self.remove_consumer(consumer_id, false);
            }
            CtrlMsg::Hello { .. }
            | CtrlMsg::StatsRequest { .. }
            | CtrlMsg::TraceRequest { .. }
            | CtrlMsg::Unknown { .. } => {
                unreachable!("answered before heartbeat tracking")
            }
        }
    }

    /// Periodic duties that are not reactions to a specific message.
    fn ctrl_housekeeping(&mut self) {
        // Nudge joiners that have not said Ready: their JoinReply may have
        // been published before their subscription reached us.
        if !self.awaiting_ready.is_empty()
            && self.last_reply_nudge.elapsed() > std::time::Duration::from_millis(25)
        {
            self.last_reply_nudge = Instant::now();
            for (&id, encoded) in &self.join_replies {
                if self.awaiting_ready.contains(&id) {
                    let _ = self
                        .publisher
                        .send(&topics::consumer(id), Multipart::single(encoded.clone()));
                }
            }
        }
        // Broadcast the latest publish cursor at a bounded cadence. The
        // cell already collapsed every intermediate position, so however
        // bursty publishing was, subscribers see at most one cursor frame
        // per flush interval — and it is the current one.
        if self.last_cursor_flush.elapsed() > std::time::Duration::from_millis(25) {
            if let Some((epoch, seq, index_in_epoch)) = self.cursor_rx.poll() {
                self.last_cursor_flush = Instant::now();
                let msg = DataMsg::Cursor {
                    shard: self.shard,
                    epoch,
                    seq,
                    index_in_epoch,
                };
                let _ = self
                    .publisher
                    .send(topics::CURSOR, Multipart::single(msg.encode()));
            }
        }
        // The stall watchdog: a low-frequency sweep entirely off the hot
        // path (housekeeping runs when the publish loop is parked or
        // between control bursts).
        if self.last_watchdog.elapsed() > std::time::Duration::from_millis(100) {
            self.last_watchdog = Instant::now();
            self.watchdog_sweep();
        }
        // Durable-log sweep: shed fully-acked pins whose bytes are on
        // disk, apply group-cursor-floored retention, refresh gauges.
        if self.logrt.is_some()
            && self.last_log_sweep.elapsed() > std::time::Duration::from_millis(25)
        {
            self.last_log_sweep = Instant::now();
            self.log_sweep();
        }
        // Expire silent consumers.
        let now = self.now_ns();
        for dead in self.hb.expire(now) {
            if self.consumers.contains_key(&dead) || self.awaiting_ready.contains(&dead) {
                self.remove_consumer(dead, true);
                self.stats.consumers_detached += 1;
                self.ctx.metrics.counter("producer.detached").inc();
            }
            self.pending_join.retain(|(id, ..)| *id != dead);
        }
    }

    /// One durable-log maintenance sweep (bounded cadence, off the hot
    /// path): sheds rubberband pins that are fully acked AND durably on
    /// disk — their live arena slots release while the seq stays pinned,
    /// so a joiner's catch-up falls back to the stored log frame — then
    /// flushes coalesced group-cursor advances and applies segment
    /// retention floored at the slowest group cursor AND the oldest
    /// rubberband pin, and refreshes the `log.*` gauges.
    fn log_sweep(&mut self) {
        let (logged, log_failed) = match &self.logrt {
            Some(rt) => (
                rt.logged_up_to.load(Ordering::Acquire),
                rt.failed.load(Ordering::Acquire),
            ),
            None => return,
        };
        // `logged_up_to` advances past failed appends (so release gating
        // never wedges on a bad disk), which makes `seq < logged` alone
        // NOT proof the bytes are in the log. A pinned batch is the
        // rubberband replay source — once the log has failed it must stay
        // memory-resident or a joiner's catch-up would silently skip it.
        // Non-pinned releasable batches only wait for the spiller to be
        // past them (it reads arena memory while encoding); those still
        // free normally after a failure.
        let shed: Vec<u64> = self
            .live
            .iter()
            .filter(|(&seq, b)| {
                b.releasable && seq < logged && !(log_failed && self.pinned.contains(&seq))
            })
            .map(|(&seq, _)| seq)
            .collect();
        for seq in shed {
            self.release(seq);
        }
        // Pin depth now counts memory-resident pins only: seqs pinned for
        // replay but backed by the log no longer hold arena slots.
        let resident = self
            .pinned
            .iter()
            .filter(|s| self.live.contains_key(s))
            .count();
        self.stage.pin_depth.set(resident as f64);
        let next_seq = self.window.next_seq();
        let shard = self.shard;
        // A shed pin's log frame IS its replay source, so retention must
        // not outrun the pin set any more than the group cursors: floor
        // reclamation at the oldest pinned seq while the join window is
        // open. (Without this, an epoch longer than the segment budget
        // lets retention trim into the pinned range and a mid-epoch
        // joiner's catch-up would find neither live bytes nor log frame.)
        let pin_floor = self.pinned.iter().min().copied();
        if let Some(rt) = &mut self.logrt {
            // Acks advance cursors in memory only; persist the coalesced
            // values here, BEFORE retention, so the on-disk resume point
            // is never behind a reclamation decision. If a flush fails,
            // skip retention this sweep rather than delete segments a
            // stale on-disk cursor may still need after a crash.
            let cursors_clean = rt.cursors.flush().is_ok();
            let floor = match (rt.cursors.min_cursor(shard), pin_floor) {
                (Some(c), Some(p)) => Some(c.min(p)),
                (c, p) => c.or(p),
            };
            let mut log = rt.log.lock();
            if cursors_clean {
                log.apply_retention(floor);
            }
            rt.lag.set(next_seq.saturating_sub(logged) as f64);
            if let Some((min, max)) = log.retained_range() {
                rt.retained_min.set(min as f64);
                rt.retained_max.set(max as f64);
            }
        }
    }

    /// One stall-watchdog sweep: finds the batch stuck longest in its
    /// current stage, compares its age against the stage's rolling p99
    /// scaled by [`ProducerConfig::watchdog_stall_multiple`] (with an
    /// absolute floor so a cold, fast pipeline is not all "stalls"),
    /// classifies the bottleneck and publishes the verdict:
    ///
    /// * **consumer-straggler** — a published batch waits on a strict
    ///   subset of consumers: the named (lowest-id) ower is holding
    ///   everyone's window;
    /// * **ack-bound** — a published batch waits on *every* consumer: the
    ///   whole subscription side is behind;
    /// * **h2d-bound / loader-bound** — nothing is outstanding but the
    ///   publish loop has gone quiet mid-epoch: the upstream stage with
    ///   the slower p99 is the verdict.
    ///
    /// Each distinct stall increments `watchdog.stalls.<class>` once (the
    /// memo dedups re-sweeps of the same stuck batch) and replaces the
    /// verdict surfaced in stats snapshots and the `ts-top` header.
    fn watchdog_sweep(&mut self) {
        /// Below this age nothing is a stall, whatever the p99 says.
        const FLOOR_NS: u64 = 25_000_000;
        let multiple = self.cfg.watchdog_stall_multiple.max(1.0);
        let threshold = |p99: u64| ((p99 as f64 * multiple) as u64).max(FLOOR_NS);
        // Oldest un-acked batch first: it bounds the publish window, so
        // its wait is the stall that matters. (`live` also holds fully
        // acked batches pinned for rubberband replay — those are healthy.)
        let oldest = self.live.iter().find_map(|(&seq, b)| {
            self.acks.owers(seq).map(|owers| {
                (
                    seq,
                    b.epoch,
                    b.published_at.elapsed().as_nanos() as u64,
                    owers.len(),
                    owers.iter().min().copied().unwrap_or(0),
                )
            })
        });
        if let Some((seq, epoch, age_ns, nowers, min_ower)) = oldest {
            if age_ns <= threshold(self.stage.publish_ack.snapshot().p99()) {
                return;
            }
            if self.watchdog_memo == Some((epoch, seq)) {
                return; // same stall, already counted
            }
            self.watchdog_memo = Some((epoch, seq));
            let ms = age_ns / 1_000_000;
            let (class, verdict) = if nowers < self.consumers.len() {
                (
                    "consumer",
                    format!("consumer-straggler consumer={min_ower} seq={seq} stuck {ms}ms"),
                )
            } else {
                (
                    "ack",
                    format!("ack-bound seq={seq} stuck {ms}ms awaiting {nowers} consumer(s)"),
                )
            };
            self.ctx
                .metrics
                .counter(&format!("watchdog.stalls.{class}"))
                .inc();
            self.trace.set_verdict(&verdict);
            return;
        }
        // Nothing outstanding: if the publish loop has gone quiet
        // mid-epoch with consumers attached, the bottleneck is upstream.
        if self.consumers.is_empty()
            || self.published_in_epoch == 0
            || self.published_in_epoch >= self.expected_announces
        {
            return;
        }
        let idle_ns = self.last_publish.elapsed().as_nanos() as u64;
        let fetch_p99 = self.stage.feeder_fetch.snapshot().p99();
        if idle_ns <= threshold(fetch_p99) {
            return;
        }
        let next_seq = self.window.next_seq();
        if self.watchdog_memo == Some((self.epoch, next_seq)) {
            return;
        }
        self.watchdog_memo = Some((self.epoch, next_seq));
        let h2d_p99 = self.staging.as_ref().map(|e| e.h2d_p99()).unwrap_or(0);
        let ms = idle_ns / 1_000_000;
        let (class, verdict) = if h2d_p99 > fetch_p99 {
            (
                "h2d",
                format!("h2d-bound idle {ms}ms before seq={next_seq}"),
            )
        } else {
            (
                "loader",
                format!("loader-bound idle {ms}ms before seq={next_seq}"),
            )
        };
        self.ctx
            .metrics
            .counter(&format!("watchdog.stalls.{class}"))
            .inc();
        self.trace.set_verdict(&verdict);
    }

    /// Drains every queued control message, then does housekeeping. Never
    /// blocks.
    fn poll_ctrl_once(&mut self) {
        while let Ok(Some(msg)) = self.ctrl.try_recv() {
            self.handle_ctrl_frame(msg);
        }
        self.ctrl_housekeeping();
    }

    /// One *blocking* control round: parks on the control channel until a
    /// message arrives — waking immediately on acks/joins/leaves instead
    /// of sleeping a fixed interval — with `poll_interval` bounding how
    /// long stop-flag and liveness checks can starve. Returns false when
    /// the control socket is gone.
    fn wait_ctrl(&mut self) -> bool {
        match self.ctrl.recv_timeout(self.cfg.poll_interval) {
            Ok(msg) => {
                self.handle_ctrl_frame(msg);
                // Whatever arrived together with it is ready too.
                self.poll_ctrl_once();
                true
            }
            Err(RecvError::Timeout) => {
                self.ctrl_housekeeping();
                true
            }
            Err(RecvError::Closed) => false,
        }
    }

    fn replay_needed(&mut self, id: u64) {
        // Replay whatever of this epoch is already out (pinned prefix).
        if self.published_in_epoch == 0 {
            return;
        }
        // `replay_to` drains control between batches, so a Ready from a
        // SECOND joiner can land while the first replay is in flight.
        // Queue it instead of recursing: each consumer still gets exactly
        // one complete catch-up, in arrival order.
        if self.replaying {
            self.deferred_replays.push(id);
            return;
        }
        self.replaying = true;
        self.replay_to(id);
        self.drain_deferred();
        self.replaying = false;
    }

    /// Drain queued catch-ups (rubberband pin replays and log-backed
    /// range replays) in arrival order until both queues are empty.
    /// Caller must hold `self.replaying = true`.
    fn drain_deferred(&mut self) {
        loop {
            if !self.deferred_replays.is_empty() {
                let next = self.deferred_replays.remove(0);
                self.replay_to(next);
            } else if !self.deferred_log_replays.is_empty() {
                let (id, from, to) = self.deferred_log_replays.remove(0);
                self.stream_log_replay(id, from, to);
            } else {
                break;
            }
        }
    }

    /// Answer a `CtrlMsg::Replay` from a consumer group member: resolve
    /// the replay start (cursor / oldest / explicit, floored at what the
    /// log retains and capped at the consumer's live splice point),
    /// register the group cursor, send a `LogInfo` describing the plan,
    /// then stream the logged range `[start, live_seq)` so it splices
    /// gaplessly onto the live feed that begins at `live_seq`.
    ///
    /// Resume semantics depend on the admission path. A sole consumer is
    /// admitted at the current stream position (`admit_at_current`), so
    /// `live_seq` is ahead of its cursor and the logged gap is replayed:
    /// exactly-once from the last acked batch. A member rejoining while
    /// other consumers are active is admitted on the rubberband path with
    /// `live_seq = epoch_start_seq`; a cursor already past that point is
    /// capped down to it, and the rubberband replay re-delivers the
    /// current epoch from its start — **epoch-coherent** rather than
    /// cursor-exact. Re-delivered seqs below the stored cursor are
    /// ignored as cursor regressions, so the cursor never moves backward.
    fn handle_replay(&mut self, id: u64, group: String, from: ReplayFrom) {
        self.ctx.metrics.counter("producer.replay_requests").inc();
        if !self.consumers.contains_key(&id) {
            return; // must be admitted (Join/Welcome) before replaying
        }
        // Replay requests are resent until answered; the plan is computed
        // once and the cached LogInfo frame re-sent byte-identically so a
        // lost first answer cannot fork the stream.
        if let Some(frame) = self.log_infos.get(&id) {
            let frame = frame.clone();
            let _ = self
                .publisher
                .send(&topics::consumer(id), Multipart::single(frame));
            return;
        }
        let live_seq = self.consumers[&id].start_seq;
        let retained = self
            .logrt
            .as_ref()
            .filter(|rt| !rt.failed.load(Ordering::Acquire))
            .and_then(|rt| rt.log.lock().retained_range());
        let (start, start_epoch, start_index, rmin, rmax) = match retained {
            Some((rmin, rmax)) => {
                let want = match from {
                    ReplayFrom::Cursor => self
                        .logrt
                        .as_ref()
                        .and_then(|rt| rt.cursors.load(&group, self.shard))
                        .unwrap_or(rmin),
                    ReplayFrom::Oldest => rmin,
                    ReplayFrom::Seq(n) => n,
                };
                let start = replay_start(want, rmin, live_seq);
                let (e, i) = self.replay_position(start, live_seq);
                (start, e, i, rmin, rmax)
            }
            // No log (or spiller failed): nothing to replay, live-only.
            None => (live_seq, self.pin_epoch, 0, 0, 0),
        };
        if let Some(rt) = &mut self.logrt {
            let _ = rt.cursors.register(&group, self.shard, start);
        }
        self.groups.insert(id, group);
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
        self.log_infos.insert(id, frame.clone());
        let _ = self
            .publisher
            .send(&topics::consumer(id), Multipart::single(frame));
        if start < live_seq {
            if self.replaying {
                self.deferred_log_replays.push((id, start, live_seq));
                return;
            }
            self.replaying = true;
            self.stream_log_replay(id, start, live_seq);
            self.drain_deferred();
            self.replaying = false;
        }
    }

    /// Epoch/index coordinates of the first replayed batch, so the
    /// consumer can seed its shard-interleave cursor at the splice point.
    fn replay_position(&self, start: u64, live_seq: u64) -> (u64, u64) {
        if start >= live_seq {
            return (self.pin_epoch, 0);
        }
        if let Some(rt) = &self.logrt {
            if let Some(m) = rt.log.lock().meta(start) {
                return (m.epoch, m.index_in_epoch);
            }
        }
        if let Some(b) = self.live.get(&start) {
            return (b.epoch, b.index_in_epoch);
        }
        (self.pin_epoch, 0)
    }

    /// Stream logged frames `[from, to)` to one consumer's topic. Frames
    /// come straight off the log (already-encoded streamed batches); a
    /// seq the retention sweep dropped between planning and streaming
    /// falls back to re-encoding the still-live batch. Control is
    /// drained between frames so a Leave (consumer dropped mid-replay)
    /// stops the stream promptly instead of flooding a dead topic.
    fn stream_log_replay(&mut self, id: u64, from: u64, to: u64) {
        let replayed = self.ctx.metrics.counter("replay.log_batches");
        let replayed_bytes = self.ctx.metrics.counter("replay.log_bytes");
        for seq in from..to {
            self.poll_ctrl_once();
            if !self.consumers.contains_key(&id) {
                break; // left mid-replay: release the stream
            }
            let Some(frame) = self.log_frame(seq).or_else(|| self.encode_streamed(seq)) else {
                continue;
            };
            replayed.inc();
            replayed_bytes.add(frame.byte_len() as u64);
            self.send_bytes_to(id, frame);
            self.stats.batches_replayed += 1;
        }
    }

    fn handle_join(
        &mut self,
        id: u64,
        batch_size: u32,
        mode: PayloadMode,
        policy: &RubberbandPolicy,
    ) {
        if self.consumers.contains_key(&id) {
            return; // duplicate join
        }
        // The WELCOME never grants STREAM from a flexible producer; a
        // streamed Join here means the consumer ignored the grant mask.
        if mode == PayloadMode::Stream && self.cfg.flexible.is_some() {
            let reply = DataMsg::JoinReply {
                consumer_id: id,
                decision: JoinDecision::Reject {
                    reason: "flexible producers serve shm payloads only".into(),
                },
            };
            let _ = self
                .publisher
                .send(&topics::consumer(id), Multipart::single(reply.encode()));
            self.stats.joins_rejected += 1;
            return;
        }
        if let Some(flex) = &self.cfg.flexible {
            if batch_size == 0 || batch_size as usize > flex.producer_batch {
                let reply = DataMsg::JoinReply {
                    consumer_id: id,
                    decision: JoinDecision::Reject {
                        reason: format!(
                            "batch size {batch_size} exceeds producer batch {}",
                            flex.producer_batch
                        ),
                    },
                };
                let _ = self
                    .publisher
                    .send(&topics::consumer(id), Multipart::single(reply.encode()));
                self.stats.joins_rejected += 1;
                return;
            }
        }
        // One shard of a group: admission is decided ONCE for the whole
        // group (first shard to ask decides, against global state) so the
        // joiner is treated identically by every shard.
        if let Some(coord) = self.coord.clone() {
            let (decision, decision_epoch) = coord.decide_join(id, self.consumers.is_empty());
            // A decision stamped with an epoch this shard has not begun
            // yet means the barrier opened while we were still parked at
            // it: our admission state (pin set, epoch_start_seq) is the
            // PREVIOUS epoch's. Applying it would hand the consumer a
            // stale start position and desynchronize its interleave
            // cursors — defer to begin_epoch, which admits with the
            // decision epoch's fresh state.
            let out_of_phase =
                matches!(decision, GroupJoin::AdmitReplay | GroupJoin::AdmitAtCurrent)
                    && decision_epoch != self.pin_epoch;
            match (decision, out_of_phase) {
                (GroupJoin::AdmitReplay, false) => {
                    self.admit(id, batch_size, mode, self.published_in_epoch > 0);
                    coord.applied(self.shard, id);
                }
                (GroupJoin::AdmitAtCurrent, false) => {
                    self.admit_at_current(id, batch_size, mode);
                    coord.applied(self.shard, id);
                }
                (GroupJoin::WaitNextEpoch, _) | (_, true) => {
                    self.pending_join.push((id, batch_size, mode));
                    let reply = DataMsg::JoinReply {
                        consumer_id: id,
                        decision: JoinDecision::WaitEpoch {
                            epoch: self.epoch + 1,
                        },
                    };
                    let _ = self
                        .publisher
                        .send(&topics::consumer(id), Multipart::single(reply.encode()));
                }
            }
            return;
        }
        if self.consumers.is_empty() && self.published_in_epoch > 0 {
            // Mid-epoch with no active consumers ("consumers may join
            // training at any point in an epoch", §3.3.1): admit at the
            // current position without replay.
            self.admit_at_current(id, batch_size, mode);
            return;
        }
        match policy.decide(self.published_in_epoch, self.expected_announces) {
            JoinOutcome::AdmitReplay { .. } => {
                self.admit(id, batch_size, mode, self.published_in_epoch > 0);
            }
            JoinOutcome::WaitNextEpoch => {
                self.pending_join.push((id, batch_size, mode));
                let reply = DataMsg::JoinReply {
                    consumer_id: id,
                    decision: JoinDecision::WaitEpoch {
                        epoch: self.epoch + 1,
                    },
                };
                let _ = self
                    .publisher
                    .send(&topics::consumer(id), Multipart::single(reply.encode()));
            }
        }
    }

    /// After the final epoch: wait (bounded) for outstanding acks so
    /// consumers finish cleanly, then release everything. Parks on the
    /// control channel so each ack is processed the moment it arrives.
    /// An aborted producer skips the wait — `join` after `abort` must
    /// return the partial stats promptly, not block out the timeout.
    fn drain_outstanding(&mut self) {
        let deadline = Instant::now() + self.cfg.heartbeat_timeout;
        self.poll_ctrl_once();
        while !self.acks.is_empty() && Instant::now() < deadline {
            if self.stop.load(Ordering::Relaxed) || self.consumers.is_empty() || !self.wait_ctrl() {
                break;
            }
        }
        // Stop the spiller BEFORE releasing slots: it reads arena memory
        // while encoding queued appends, so every tee must hit disk first.
        if let Some(rt) = &mut self.logrt {
            rt.spill_tx = None; // closes the channel; spiller drains + exits
            if let Some(handle) = rt.spiller.take() {
                let _ = handle.join();
            }
            // Persist any cursor advances the sweep has not flushed yet:
            // the final acks of a run land between sweeps.
            let _ = rt.cursors.flush();
        }
        let seqs: Vec<u64> = self.live.keys().copied().collect();
        for seq in seqs {
            self.release(seq);
        }
        self.pinned.clear();
        self.stage.pin_depth.set(0.0);
    }
}
