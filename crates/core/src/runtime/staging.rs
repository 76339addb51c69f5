//! The device-staging stage of the producer pipeline.
//!
//! The paper's producer stages every collated batch on GPU 0 before
//! announcing it (§3.2.4). Done naively that is a device allocation, a
//! copy and a free per batch, the copy serialized with publishing. This
//! module does it through the staging subsystem from `ts-staging`:
//!
//! * a [`DeviceSlabPool`] of pre-allocated VRAM slabs, sized from the
//!   publish window and rotated in lockstep with the host
//!   [`ts_tensor::SlotPool`] — after warm-up, staging performs **zero
//!   device allocations** (each staged tensor rewrites a leased slab,
//!   returned when producer and consumers drop it);
//! * an asynchronous **H2D copy stage** between the feeder and the
//!   publish loop (`StagingEngine::spawn_copy_stage`): the copy of
//!   batch *n* overlaps the host collation of batch *n + 1* and the
//!   publish/ack round of batch *n − 1*, so the modeled PCIe time leaves
//!   the critical path.
//!
//! That is the one staging shape: a producer whose device is a GPU gets
//! the engine and its copy stage, a CPU producer gets neither, and nobody
//! chooses. The state machine never sees the engine — items reach it
//! already on the device — and a device the context cannot stage on fails
//! the spawn, not the first batch.
//!
//! The backend is pluggable ([`ts_staging::DeviceBackend`]); the default
//! [`SimBackend`] routes allocation and traffic through the context's
//! `ts-device` books, so Tables 3–4 accounting is unchanged to the byte.
//! Each producer pipeline owns its own engine and pool — one per shard in
//! a sharded [`crate::Producer`], mirroring the per-shard host slot
//! pool binding.
//!
//! Exported staging metrics (via the context's [`ts_metrics::Registry`]):
//! counter `staging.h2d_bytes` (aggregated across engines), gauges
//! `staging.slab_occupancy` (slabs in use), `staging.copy_queue_depth`
//! (staged batches waiting for the publish loop) and
//! `staging.h2d_bytes_per_sec` (average copy throughput), plus two
//! latency histograms: `staging.h2d_ns` (slab lease + H2D copy + fence
//! per batch) and `staging.copy_wait_ns` (how long a staged batch waited
//! in the copy stage's hand-off queue for the publish loop). Gauges and
//! histograms are per-engine: a shard of a
//! sharded [`crate::Producer`] reports them as `staging.s<shard>.
//! <name>` so concurrent shards never clobber each other.

use crate::runtime::config::ProducerConfig;
use crate::runtime::context::TsContext;
use crate::TsError;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ts_device::DeviceId;
use ts_socket::Bell;

use ts_staging::{DeviceBackend, DeviceSlabPool, SimBackend, StagingError};
use ts_tensor::{contiguous_strides, Storage, Tensor};

/// The WELCOME's `staging` byte: the wire code of the copy-stage shape,
/// which every producer has always sent and peers of any age expect.
/// Informational: no peer acts on it.
pub(crate) const WELCOME_STAGING: u8 = 2;

/// Configuration of the device-staging stage (ignored when the producer
/// device is the CPU, where there is nothing to stage). Queue and slab
/// depths are not here: both follow from the publish window
/// (`buffer_size`) and the rubberband pin set.
#[derive(Debug, Clone, Default)]
pub struct StagingConfig {
    /// Modeled H2D copy bandwidth in bytes/second for the simulated
    /// backend. `None` uses the topology's link bandwidth (PCIe gen4 by
    /// default); benchmarks lower it to make overlap effects visible at
    /// small batch sizes.
    pub h2d_bandwidth: Option<f64>,
}

/// A shared-memory arena slot the feeder already collated a tensor into
/// (the zero-copy publish path): the lease still holds the slot's
/// producer reference, so an item dropped before publishing frees its
/// slots automatically. At publish time the loop adopts the lease into
/// the registry ([`ts_tensor::SharedRegistry::register_placed`]) instead
/// of copying bytes into a fresh placement.
pub(crate) struct Placement {
    /// The leased slot holding the tensor's bytes.
    pub lease: ts_shm::ShmLease,
    /// Which recycling pool the slot came from (`Some(shard)` for one
    /// pipeline of a sharded group, `None` for the default pool), so the
    /// registration reclaims into the right pool on release.
    pub pool_key: Option<u32>,
    /// Payload bytes the feeder copied to fill the slot: 0 for a slot the
    /// loader built the tensor in.
    pub copied: u64,
}

/// A batch the feeder stage finished preparing: producer map applied and
/// (under flexible sizing) loader batches fused into one producer batch.
/// Under a GPU producer the copy stage has additionally placed its tensors
/// on the device before the pump sees it; either way the publish step only
/// registers and announces.
pub(crate) struct PreparedItem {
    /// Loader-batch index (default mode) or producer-batch index (flex).
    pub index_in_epoch: u64,
    /// True when this is the epoch's final announcement.
    pub last_in_epoch: bool,
    pub fields: Vec<Tensor>,
    pub labels: Tensor,
    /// Per-tensor arena placements the feeder collated in place, aligned
    /// with `fields` and then `labels` last (`fields.len() + 1` entries
    /// when the lease path ran, empty otherwise). Device staging replaces
    /// the *tensors* but keeps the placements: the host slot keeps holding
    /// the exact bytes the device copy was made from, so consumers attach
    /// it byte-identically while the publish loop still moves nothing.
    pub placements: Vec<Option<Placement>>,
    /// Bytes the staging stage copied to the device for this item.
    pub staged_bytes: u64,
    /// Flight-recorder span offsets stamped before the batch has a
    /// sequence number (`seq` is only assigned at publish): `(start, end)`
    /// in the context ring's clock, `(0, 0)` = not measured. The publish
    /// loop writes them into the [`ts_metrics::TraceRing`] under the
    /// final `(epoch, shard, seq)` key. Feeder fetch + collate:
    pub fetch_span: (u64, u64),
    /// Wait in the copy stage's hand-off queue; the start is stamped by the
    /// copy stage, the end by the publish loop at dequeue.
    pub copy_wait_span: (u64, u64),
    /// Slab lease + H2D copy + fence.
    pub h2d_span: (u64, u64),
}

/// Feeder/staging → pump messages.
pub(crate) enum FeederMsg {
    Item(PreparedItem),
    /// All of this epoch's items were sent.
    EpochDone(u64),
    /// Preparation or staging failed for the given reason; the producer
    /// drains and stops.
    Failed(String),
    /// The feeder is parked: its slot pool has nothing to lease. Sent once
    /// per dry spell; the next `Item` ends it.
    ArenaDry,
}

/// One producer pipeline's staging engine: the backend, the slab pool
/// (created lazily at the first item, when tensor geometry is known) and
/// the copy-stage thread. Owned by the pump.
pub(crate) struct StagingEngine {
    backend: Arc<SimBackend>,
    device: DeviceId,
    /// Capacity of the copy stage's hand-off queue: the publish window's
    /// `buffer_size`.
    queue_depth: usize,
    /// Batches the rubberband policy can pin past full acknowledgement
    /// (their slabs stay leased until the join window closes): the
    /// rotation covers the pin set, so the zero-allocation steady state
    /// holds at any epoch length.
    pin_headroom: usize,
    pool: Mutex<Option<Arc<DeviceSlabPool>>>,
    copy_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Per-engine gauges, resolved once at build (the staging hot path
    /// must not re-format names or re-hash the registry per batch). Their
    /// names carry a per-shard prefix — `staging.` for a standalone
    /// producer, `staging.s<shard>.` for one shard of a group — so
    /// concurrent shard engines never clobber each other (one shard
    /// shutting down must not zero the occupancy another still reports).
    /// The occupancy gauge itself lives inside the pool's
    /// [`ts_staging::OccupancyHook`], which also keeps it current for
    /// returns that land after shutdown.
    occupancy_gauge: std::sync::Arc<ts_metrics::Gauge>,
    queue_gauge: std::sync::Arc<ts_metrics::Gauge>,
    rate_gauge: std::sync::Arc<ts_metrics::Gauge>,
    /// Pre-resolved `staging.h2d_bytes` counter (shared across engines —
    /// it aggregates, unlike the per-shard gauges).
    h2d_counter: std::sync::Arc<ts_metrics::Counter>,
    /// Per-engine H2D copy time per batch (lease + copy + fence), ns.
    h2d_hist: std::sync::Arc<ts_metrics::Histogram>,
    /// Per-engine time a staged batch waited in the hand-off queue for
    /// the publish loop to take it, ns.
    copy_wait_hist: std::sync::Arc<ts_metrics::Histogram>,
    /// The context's flight recorder, for per-batch H2D / copy-wait span
    /// stamps (the histograms keep the aggregates).
    trace: std::sync::Arc<ts_metrics::TraceRing>,
    h2d_bytes: AtomicU64,
    /// Clock base of `h2d_bytes_per_sec`: the first copy, NOT engine
    /// construction — a producer can idle a long time waiting for its
    /// first consumer, and that idle must not dilute the reported copy
    /// throughput.
    first_copy: std::sync::OnceLock<Instant>,
}

impl StagingEngine {
    /// Builds the engine for a producer: `None` for a CPU device, where
    /// there is nothing to stage; a typed error when the context has no
    /// memory book for the device or no route to it, so the producer fails
    /// at spawn rather than at its first batch. `pin_headroom` is the
    /// rubberband pin limit of one epoch. `shard` is `Some` for one
    /// pipeline of a sharded group, which namespaces the engine's gauges
    /// per shard.
    pub(crate) fn build(
        ctx: &TsContext,
        cfg: &ProducerConfig,
        shard: Option<u32>,
        pin_headroom: usize,
    ) -> crate::Result<Option<Arc<StagingEngine>>> {
        if !cfg.device.is_gpu() {
            return Ok(None);
        }
        let unusable = |why: String| {
            let device = cfg.device;
            TsError::Config(format!("cannot stage batches on device {device}: {why}"))
        };
        let memory = ctx.devices.memory(cfg.device);
        let memory = memory.map_err(|e| unusable(e.to_string()))?.clone();
        let backend = SimBackend::new(
            ctx.devices.topology(),
            memory,
            ctx.devices.traffic().clone(),
            cfg.device,
        )
        .map_err(|e| unusable(e.to_string()))?;
        let backend = match cfg.staging.h2d_bandwidth {
            Some(bps) => backend.with_bandwidth(bps),
            None => backend,
        };
        let prefix = match shard {
            Some(s) => format!("staging.s{s}."),
            None => {
                // Per-context engine ordinal: the first standalone engine
                // keeps the bare `staging.` names (the common one-producer
                // case, and what tests/dashboards read); any further
                // standalone engine in the SAME context gets its own
                // `staging.p<n>.` namespace — two collocated GPU
                // producers must not clobber each other's gauges, exactly
                // like two shards of a group.
                let ordinal = ctx.metrics.counter("staging.engines").fetch_inc();
                if ordinal == 0 {
                    "staging.".to_string()
                } else {
                    format!("staging.p{ordinal}.")
                }
            }
        };
        Ok(Some(Arc::new(StagingEngine {
            backend: Arc::new(backend),
            device: cfg.device,
            queue_depth: cfg.buffer_size.max(1),
            pin_headroom,
            pool: Mutex::new(None),
            copy_thread: Mutex::new(None),
            occupancy_gauge: ctx.metrics.gauge(&format!("{prefix}slab_occupancy")),
            queue_gauge: ctx.metrics.gauge(&format!("{prefix}copy_queue_depth")),
            rate_gauge: ctx.metrics.gauge(&format!("{prefix}h2d_bytes_per_sec")),
            h2d_counter: ctx.metrics.counter("staging.h2d_bytes"),
            h2d_hist: ctx.metrics.histogram(&format!("{prefix}h2d_ns")),
            copy_wait_hist: ctx.metrics.histogram(&format!("{prefix}copy_wait_ns")),
            trace: ctx.trace.clone(),
            h2d_bytes: AtomicU64::new(0),
            first_copy: std::sync::OnceLock::new(),
        })))
    }

    /// The per-batch H2D copy time (`staging.[s<N>.]h2d_ns`), for the
    /// state machine's stall watchdog (loader-bound vs H2D-bound).
    pub(crate) fn h2d_hist(&self) -> Arc<ts_metrics::Histogram> {
        self.h2d_hist.clone()
    }

    /// The slab pool, created at the first staged item so slabs are sized
    /// to the real batch geometry (`slab = largest tensor of the item`,
    /// depth = window + queue + rubberband headroom, in tensors).
    fn pool_for(&self, item: &PreparedItem) -> Arc<DeviceSlabPool> {
        let mut slot = self.pool.lock();
        if let Some(pool) = slot.as_ref() {
            return pool.clone();
        }
        let tensors_per_item = item.fields.len() + 1;
        let slab_bytes = item
            .fields
            .iter()
            .chain(std::iter::once(&item.labels))
            .map(|t| t.view_bytes())
            .max()
            .unwrap_or(1)
            .max(1);
        // The rotation must cover every lease simultaneously out in
        // steady state: the publish window and the copy-stage look-ahead
        // (`buffer_size` batches each), the rubberband pin set (pinned
        // batches hold their slabs past full acknowledgement until the
        // join window closes), and a margin for releases still in flight.
        let (window, ahead) = (self.queue_depth, self.queue_depth);
        let depth = (window + ahead + self.pin_headroom + 2) * tensors_per_item;
        let pool = Arc::new(DeviceSlabPool::new(
            self.backend.clone() as Arc<dyn DeviceBackend>,
            slab_bytes,
            depth,
        ));
        // The occupancy gauge rides the pool's hook so it stays current
        // on every lease AND every return — including returns landing
        // after shutdown, when a slow consumer drops its last batch.
        let gauge = self.occupancy_gauge.clone();
        pool.set_occupancy_hook(Box::new(move |leased| gauge.set(leased as f64)));
        pool.warm_up();
        *slot = Some(pool.clone());
        pool
    }

    /// Stages one tensor: leases a slab, copies the bytes through the
    /// backend (accounting traffic and modeled copy time) and rebuilds
    /// the tensor over the slab buffer, wired to return the slab when the
    /// last reference drops.
    fn stage_tensor(
        &self,
        t: &Tensor,
        pool: &Arc<DeviceSlabPool>,
    ) -> Result<(Tensor, u64), StagingError> {
        if t.device() == self.device {
            return Ok((t.clone(), 0));
        }
        let needed = t.view_bytes();
        let mut lease = pool.lease(needed)?;
        match t.bytes() {
            Ok(src) => self.backend.copy_h2d(src, lease.buf_mut())?,
            // Non-contiguous sources (not produced by collation, but the
            // contract allows them) gather first.
            Err(_) => self.backend.copy_h2d(&t.gather_bytes(), lease.buf_mut())?,
        }
        self.backend.fence()?;
        let (buf, ticket) = lease.into_parts();
        let storage = Storage::new_with_reclaim(
            buf,
            self.device,
            Box::new(move |returned| ticket.restore(returned)),
        );
        let staged = Tensor::from_parts(
            Arc::new(storage),
            t.dtype(),
            t.shape().to_vec(),
            contiguous_strides(t.shape()),
            0,
        )
        .expect("staged copy always matches the source geometry");
        Ok((staged, needed as u64))
    }

    /// Stages every tensor of a prepared item onto the device. On return
    /// the item carries device tensors and the bytes copied; gauges and
    /// counters are updated.
    fn stage_item(&self, item: PreparedItem) -> Result<PreparedItem, StagingError> {
        let copy_start = Instant::now();
        let span_start = self.trace.now_ns().max(1);
        let pool = self.pool_for(&item);
        let mut staged_bytes = 0u64;
        let mut fields = Vec::with_capacity(item.fields.len());
        for t in &item.fields {
            let (staged, bytes) = self.stage_tensor(t, &pool)?;
            staged_bytes += bytes;
            fields.push(staged);
        }
        let (labels, label_bytes) = self.stage_tensor(&item.labels, &pool)?;
        staged_bytes += label_bytes;
        let total = self.h2d_bytes.fetch_add(staged_bytes, Ordering::Relaxed) + staged_bytes;
        // The counter aggregates across engines (shards); the gauges are
        // per-engine and namespaced per shard (see the field docs). The
        // occupancy gauge is maintained by the pool's hook.
        self.h2d_counter.add(staged_bytes);
        let elapsed = self
            .first_copy
            .get_or_init(Instant::now)
            .elapsed()
            .as_secs_f64();
        if elapsed > 0.0 {
            self.rate_gauge.set(total as f64 / elapsed);
        }
        self.h2d_hist.record_duration(copy_start.elapsed());
        Ok(PreparedItem {
            staged_bytes,
            fields,
            labels,
            h2d_span: (span_start, self.trace.now_ns()),
            ..item
        })
    }

    /// Spawns the H2D copy stage: consumes prepared items from `input`,
    /// stages them, and hands staged items downstream over a queue of
    /// `queue_depth` — the bounded look-ahead that lets the copy of batch
    /// *n* overlap collation of *n + 1* and publishing of *n − 1*. `bell`
    /// is rung after every hand-over.
    pub(crate) fn spawn_copy_stage(
        self: &Arc<Self>,
        input: Receiver<FeederMsg>,
        stop: Arc<AtomicBool>,
        bell: Bell,
    ) -> Receiver<FeederMsg> {
        let (tx, rx) = channel::bounded::<FeederMsg>(self.queue_depth);
        let engine = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("tensorsocket-staging".to_string())
            .spawn(move || engine.copy_stage_main(input, tx, stop, bell))
            // Only an OS out of threads fails this, never a peer's input;
            // the producer thread's panic is then `join()`'s error.
            .expect("spawn staging thread");
        *self.copy_thread.lock() = Some(handle);
        rx
    }

    fn copy_stage_main(
        &self,
        input: Receiver<FeederMsg>,
        tx: Sender<FeederMsg>,
        stop: Arc<AtomicBool>,
        bell: Bell,
    ) {
        let queue_gauge = self.queue_gauge.clone();
        while let Ok(msg) = input.recv() {
            let forward = match msg {
                FeederMsg::Item(item) => {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match self.stage_item(item) {
                        Ok(mut staged) => {
                            // Open the copy-wait span here; the publish
                            // loop closes it at dequeue — per-batch what
                            // `copy_wait_hist` reports in aggregate.
                            staged.copy_wait_span.0 = self.trace.now_ns().max(1);
                            FeederMsg::Item(staged)
                        }
                        Err(e) => {
                            // Device OOM mid-run: stop producing.
                            let _ = tx.send(FeederMsg::Failed(format!("H2D staging: {e}")));
                            bell.ring();
                            return;
                        }
                    }
                }
                other => other,
            };
            // Time a staged batch's wait in the hand-off queue: how long
            // the publish loop made it sit (publish-bound signal), only
            // meaningful for items, not epoch markers.
            let is_item = matches!(forward, FeederMsg::Item(_));
            let wait_start = Instant::now();
            if tx.send(forward).is_err() {
                return; // the pump went away
            }
            bell.ring();
            if is_item {
                self.copy_wait_hist.record_duration(wait_start.elapsed());
            }
            queue_gauge.set(tx.len() as f64);
        }
    }

    /// Joins the copy stage (its channels must already be disconnected)
    /// and drains the slab rotation, releasing the pooled device memory.
    /// Slabs still referenced by live consumers free their accounting
    /// when those references drop.
    pub(crate) fn shutdown(&self) {
        if let Some(handle) = self.copy_thread.lock().take() {
            let _ = handle.join();
        }
        if let Some(pool) = self.pool.lock().as_ref() {
            pool.drain();
        }
        // The copy stage is gone, so its queue is empty by construction;
        // the occupancy gauge needs no reset — the pool's hook keeps it
        // exact as outstanding consumer references drain.
        self.queue_gauge.set(0.0);
    }
}
