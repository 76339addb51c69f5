//! The delivery engine behind [`crate::Consumer`]: the lightweight
//! iterator a training script swaps in for its data loader (§3.2.2,
//! Figure 3c).
//!
//! `connect` performs the join handshake (rubberband admission or
//! wait-for-epoch), spawns a heartbeat thread, and subscribes to the data
//! stream. Iteration yields [`ConsumerBatch`]es rebuilt zero-copy from
//! payloads; finishing a batch (calling `next` again, or dropping the
//! consumer) acknowledges it to the producer, which releases the memory
//! once every consumer has done so.
//!
//! ## Sharded producer groups and the `(epoch, shard, seq)` contract
//!
//! With [`ConsumerConfig::shards`] `> 1` the consumer joins every shard of
//! a sharded [`crate::Producer`] and merges their streams through a
//! [`ShardInterleave`]: announcements are delivered sorted by
//! `(epoch, index_in_epoch, shard)` — round-robin across shards aligned
//! at an epoch boundary, with exhausted shards dropping out of the
//! rotation on uneven tails. Because each shard's stream is itself
//! totally ordered by its sequence numbers, the merged stream is
//! **bit-stable**: the same dataset, seed and shard count produce the
//! same batch sequence on every run and for every consumer, regardless
//! of socket timing. With `shards == 1` the code path is byte-identical
//! to consuming a plain producer. Acks, heartbeats and leaves flow to
//! each shard's own control endpoint; the epoch ends for the consumer
//! when every shard published its last batch, and the stream ends when
//! every shard published `End`.

use crate::protocol::messages::{
    topics, AnnounceContent, BatchAnnounce, CtrlMsg, DataMsg, JoinDecision, PayloadMode, ReplayFrom,
};
use crate::protocol::order::ShardInterleave;
use crate::runtime::config::ConsumerConfig;
use crate::runtime::context::TsContext;
use crate::{Result, TsError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ts_metrics::SpanKind;
use ts_socket::{Multipart, PushSocket, RecvError, SubSocket};
use ts_tensor::{collate, Tensor, TensorError, TensorPayload};

/// A batch as seen by one consumer.
#[derive(Debug, Clone)]
pub struct ConsumerBatch {
    /// Epoch the batch belongs to.
    pub epoch: u64,
    /// Producer shard the batch came from (0 for a plain producer).
    pub shard: usize,
    /// Global sequence number of the announcement it came from (per
    /// shard).
    pub seq: u64,
    /// Batch index within the epoch (producer-batch index under flexible
    /// sizing; per shard for a sharded group).
    pub index_in_epoch: u64,
    /// Position within the producer batch under flexible sizing (0 in
    /// default mode).
    pub sub_index: usize,
    /// Tensor fields (zero-copy views of producer memory when contiguous).
    pub fields: Vec<Tensor>,
    /// Labels.
    pub labels: Tensor,
    /// True when this came from the final announcement of the epoch (of
    /// its shard, for a sharded group).
    pub last_in_epoch: bool,
}

impl ConsumerBatch {
    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.labels.shape().first().copied().unwrap_or(0)
    }
}

/// Why iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The producer published `End` (all epochs done, on every shard).
    End,
    /// The producer detached this consumer (missed heartbeats).
    Detached,
    /// No message arrived within `recv_timeout`.
    Timeout,
    /// The producer's socket vanished.
    ProducerGone,
    /// A payload could not be rebuilt (protocol violation).
    Protocol,
}

/// One shard's connection state: its sockets plus the in-order delivery
/// bookkeeping (expected sequence number and reorder buffer).
struct ShardLink {
    sub: SubSocket,
    ctrl: PushSocket,
    /// Next global seq expected from this shard.
    next_expected: u64,
    /// Announcements that arrived ahead of order (replay interleaving).
    reorder: BTreeMap<u64, BatchAnnounce>,
}

/// The consuming end of a TensorSocket, already told the topology (the
/// [`crate::Consumer`] facade learns it over the attach handshake).
///
/// Iterate it like a data loader; it ends when the producer publishes
/// `End` (every shard of a sharded group). Check
/// [`TensorConsumer::stop_reason`] to distinguish clean completion from
/// detachment or timeouts.
pub(crate) struct TensorConsumer {
    ctx: TsContext,
    cfg: ConsumerConfig,
    id: u64,
    links: Vec<ShardLink>,
    /// The deterministic merge cursor over the shard streams.
    interleave: ShardInterleave,
    hb_stop: Arc<AtomicBool>,
    hb_thread: Option<std::thread::JoinHandle<()>>,
    /// Epoch joined at admission.
    joined_epoch: u64,
    /// Decoded batches awaiting delivery (flexible mode yields several per
    /// announcement).
    queue: VecDeque<ConsumerBatch>,
    /// `(shard, seq, epoch, yielded_ns)` to acknowledge when the current
    /// batch is finished. `yielded_ns` (flight-recorder clock) opens the
    /// `release` span: it closes when the ack actually leaves, so the
    /// recorded span is the time the trainer held the batch.
    pending_ack: Option<(usize, u64, u64, u64)>,
    /// Set when iteration stopped.
    stopped: Option<StopReason>,
    last_error: Option<TsError>,
    batches_consumed: u64,
    samples_consumed: u64,
    /// Pre-resolved `consumer.wait_ns` histogram: time spent inside
    /// [`TensorConsumer::pump`] until a batch was available (how starved
    /// the training loop is by the pipeline).
    wait_hist: std::sync::Arc<ts_metrics::Histogram>,
    /// Pre-resolved `consumer.interarrival_ns` histogram: time between
    /// successive `next()` yields (the paced batch cadence the trainer
    /// actually observes, including its own compute time).
    interarrival_hist: std::sync::Arc<ts_metrics::Histogram>,
    /// Pre-resolved `consumer.stream_rx_ns` histogram: time to rebuild a
    /// batch from streamed bytes (the per-batch cost of the non-shm path).
    stream_rx_hist: std::sync::Arc<ts_metrics::Histogram>,
    /// Latest coalesced publish cursor seen per shard: `(epoch, seq,
    /// index_in_epoch)`. State, not history — the producer's coalescing
    /// cell collapsed every intermediate position, so this is only ever
    /// "where the shard is now".
    latest_cursors: Vec<Option<(u64, u64, u64)>>,
    /// Pre-resolved `consumer.cursor_lag` gauge: announcements the most
    /// recently heard-from shard has published beyond what this consumer
    /// has ingested.
    cursor_lag: std::sync::Arc<ts_metrics::Gauge>,
    /// Pre-resolved `consumer.data_unknown` counter: data-path frames with
    /// a tag this build does not know (a newer producer's message kinds).
    /// They are logged once and skipped — forward compatibility, not an
    /// error.
    data_unknown: std::sync::Arc<ts_metrics::Counter>,
    /// Pre-resolved `consumer.dangling_skipped` counter: announces whose
    /// payload memory the producer had already released by rebuild time
    /// (an abort or detach with announces still in flight). Skipped, not
    /// fatal — the stream still ends on the producer's `End`.
    dangling_skipped: std::sync::Arc<ts_metrics::Counter>,
    /// When the previous batch was yielded, for inter-arrival timing.
    last_yield: Option<Instant>,
}

impl std::fmt::Debug for TensorConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorConsumer")
            .field("id", &self.id)
            .field("shards", &self.links.len())
            .field("stopped", &self.stopped)
            .finish()
    }
}

impl TensorConsumer {
    /// Connects to a producer (or every shard of a sharded producer
    /// group, per [`ConsumerConfig::shards`]) and completes the join
    /// handshake with each.
    ///
    /// Blocks until admitted everywhere — which may span an epoch boundary
    /// when the join arrives too late for rubberbanding — or until
    /// `recv_timeout` passes without any producer activity.
    pub(crate) fn connect(ctx: &TsContext, cfg: ConsumerConfig) -> Result<TensorConsumer> {
        let shards = cfg.shards.max(1);
        let id = cfg.consumer_id.unwrap_or_else(rand_id);
        let mut links = Vec::with_capacity(shards);
        for shard in 0..shards {
            let sub = SubSocket::connect(&ctx.sockets, &cfg.shard_data_endpoint(shard));
            sub.subscribe(&topics::consumer(id));
            sub.subscribe(topics::CTRL);
            // Coalesced publish-cursor state (latest-wins; see
            // `topics::CURSOR`) — cheap to carry, never gates delivery.
            sub.subscribe(topics::CURSOR);
            let ctrl = PushSocket::connect(&ctx.sockets, &cfg.shard_ctrl_endpoint(shard));
            links.push(ShardLink {
                sub,
                ctrl,
                next_expected: 0,
                reorder: BTreeMap::new(),
            });
        }
        let hb_stop = Arc::new(AtomicBool::new(false));
        let hb_thread = spawn_heartbeat(ctx, &cfg, shards, id, hb_stop.clone());

        let data_unknown = ctx.metrics.counter("consumer.data_unknown");
        let handshake = Self::handshake_all(&links, &cfg, id, &data_unknown);
        let (joined_epoch, starts) = match handshake {
            Ok(v) => v,
            Err(e) => {
                hb_stop.store(true, Ordering::Relaxed);
                let _ = hb_thread.join();
                return Err(e);
            }
        };
        let mut cursors = Vec::with_capacity(shards);
        for (link, (epoch, start_seq, replay_from)) in links.iter_mut().zip(&starts) {
            link.next_expected = *start_seq;
            cursors.push((*epoch, *replay_from));
        }
        // Durable-log resume: a named group member attaching to a logging
        // producer asks each shard to replay from the group's persisted
        // cursor. The answered `LogInfo` moves the shard's delivery
        // cursor BACK to the replay start — the logged range streams
        // first and splices gaplessly onto the live stream admitted
        // above (`start_seq` is exactly where the replay ends).
        if let (Some(group), true) = (&cfg.group, cfg.log_available) {
            for (shard, link) in links.iter_mut().enumerate() {
                match Self::log_replay_handshake(link, &cfg, id, group, &data_unknown) {
                    Ok(Some((start_seq, start_epoch, start_index)))
                        if start_seq < link.next_expected =>
                    {
                        link.next_expected = start_seq;
                        cursors[shard] = (start_epoch, start_index);
                    }
                    Ok(_) => {} // nothing retained behind our splice point
                    Err(e) => {
                        hb_stop.store(true, Ordering::Relaxed);
                        let _ = hb_thread.join();
                        return Err(e);
                    }
                }
            }
        }
        Ok(TensorConsumer {
            ctx: ctx.clone(),
            cfg,
            id,
            links,
            interleave: ShardInterleave::new(cursors),
            hb_stop,
            hb_thread: Some(hb_thread),
            joined_epoch,
            queue: VecDeque::new(),
            pending_ack: None,
            stopped: None,
            last_error: None,
            batches_consumed: 0,
            samples_consumed: 0,
            wait_hist: ctx.metrics.histogram("consumer.wait_ns"),
            interarrival_hist: ctx.metrics.histogram("consumer.interarrival_ns"),
            stream_rx_hist: ctx.metrics.histogram("consumer.stream_rx_ns"),
            latest_cursors: vec![None; shards],
            cursor_lag: ctx.metrics.gauge("consumer.cursor_lag"),
            data_unknown,
            dangling_skipped: ctx.metrics.counter("consumer.dangling_skipped"),
            last_yield: None,
        })
    }

    /// Sends `Join` to every shard up front (so the group coordinator
    /// decides one admission for all of them), then completes each
    /// shard's handshake in shard order. Returns the joined epoch and the
    /// per-shard `(epoch, start_seq, replay_from)` admission positions.
    #[allow(clippy::type_complexity)]
    fn handshake_all(
        links: &[ShardLink],
        cfg: &ConsumerConfig,
        id: u64,
        data_unknown: &ts_metrics::Counter,
    ) -> Result<(u64, Vec<(u64, u64, u64)>)> {
        for link in links {
            link.ctrl
                .send(Multipart::single(
                    CtrlMsg::Join {
                        consumer_id: id,
                        batch_size: cfg.batch_size.unwrap_or(0) as u32,
                        mode: cfg.mode,
                    }
                    .encode(),
                ))
                .map_err(|e| TsError::Socket(format!("join send: {e}")))?;
        }
        let mut starts = Vec::with_capacity(links.len());
        for link in links {
            starts.push(Self::await_admit(
                &link.sub,
                &link.ctrl,
                cfg,
                id,
                data_unknown,
            )?);
        }
        let joined_epoch = starts.first().map(|s| s.0).unwrap_or(0);
        Ok((joined_epoch, starts))
    }

    /// Waits for one shard's `AdmitReplay`, subscribes its batch topic and
    /// confirms readiness. Returns `(epoch, start_seq, replay_from)`.
    fn await_admit(
        sub: &SubSocket,
        ctrl: &PushSocket,
        cfg: &ConsumerConfig,
        id: u64,
        data_unknown: &ts_metrics::Counter,
    ) -> Result<(u64, u64, u64)> {
        // The deadline is refreshed on every producer message so waiting out
        // a long epoch after a WaitEpoch reply does not trip the timeout as
        // long as the producer shows signs of life.
        let mut deadline = Instant::now() + cfg.recv_timeout;
        loop {
            if Instant::now() > deadline {
                return Err(TsError::Timeout("join reply"));
            }
            let msg = match sub
                .recv_timeout(cfg.recv_timeout.min(std::time::Duration::from_millis(50)))
            {
                Ok((_, m)) => m,
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Closed) => {
                    return Err(TsError::Socket("producer disconnected".into()))
                }
            };
            deadline = Instant::now() + cfg.recv_timeout;
            let Some(frame) = msg.frames().first() else {
                continue;
            };
            let Ok(data) = DataMsg::decode_shared(frame) else {
                continue;
            };
            match data {
                DataMsg::JoinReply {
                    consumer_id,
                    decision,
                } if consumer_id == id => match decision {
                    JoinDecision::AdmitReplay {
                        epoch,
                        replay_from,
                        start_seq,
                        ..
                    } => {
                        // Only now subscribe to the shared stream, then tell
                        // the producer we will not miss anything.
                        sub.subscribe(topics::BATCH);
                        ctrl.send(Multipart::single(
                            CtrlMsg::Ready { consumer_id: id }.encode(),
                        ))
                        .map_err(|e| TsError::Socket(format!("ready send: {e}")))?;
                        return Ok((epoch, start_seq, replay_from));
                    }
                    JoinDecision::WaitEpoch { .. } => {
                        // keep waiting; the producer will send AdmitReplay
                        // at the epoch boundary
                    }
                    JoinDecision::Reject { reason } => return Err(TsError::Join(reason)),
                },
                DataMsg::End => return Err(TsError::Join("producer already ended".into())),
                DataMsg::Unknown { tag } => {
                    // A newer producer speaking message kinds this build
                    // does not know: count, log once, keep waiting.
                    let seen_before = data_unknown.fetch_inc();
                    if seen_before == 0 {
                        eprintln!(
                            "tensorsocket: consumer ignoring unknown data tag {tag} \
                             (newer producer?)"
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// Sends `CtrlMsg::Replay { group, Cursor }` on one shard's control
    /// channel and waits for the producer's `LogInfo` answer, resending
    /// on the usual subscription-propagation races. Replayed batch frames
    /// can overtake the answer (the producer streams them right after
    /// it): they are stashed in the shard's reorder buffer, where normal
    /// pumping picks them up once `next_expected` rewinds to the replay
    /// start. A producer that never answers within `recv_timeout` (a log
    /// that failed after WELCOME) degrades to live-only attach, not an
    /// error.
    fn log_replay_handshake(
        link: &mut ShardLink,
        cfg: &ConsumerConfig,
        id: u64,
        group: &str,
        data_unknown: &ts_metrics::Counter,
    ) -> Result<Option<(u64, u64, u64)>> {
        let request = CtrlMsg::Replay {
            consumer_id: id,
            group: group.to_string(),
            from: ReplayFrom::Cursor,
        }
        .encode();
        let deadline = Instant::now() + cfg.recv_timeout;
        loop {
            link.ctrl
                .send(Multipart::single(request.clone()))
                .map_err(|e| TsError::Socket(format!("replay send: {e}")))?;
            loop {
                if Instant::now() > deadline {
                    return Ok(None); // no answer: attach live-only
                }
                let msg = match link.sub.recv_timeout(std::time::Duration::from_millis(50)) {
                    Ok((_, m)) => m,
                    Err(RecvError::Timeout) => break, // resend the request
                    Err(RecvError::Closed) => {
                        return Err(TsError::Socket("producer disconnected".into()))
                    }
                };
                let Some(frame) = msg.frames().first() else {
                    continue;
                };
                let Ok(data) = DataMsg::decode_shared(frame) else {
                    continue;
                };
                match data {
                    DataMsg::LogInfo {
                        consumer_id,
                        start_seq,
                        start_epoch,
                        start_index,
                        ..
                    } if consumer_id == id => {
                        return Ok(Some((start_seq, start_epoch, start_index)));
                    }
                    DataMsg::Batch(a) => {
                        // Same filter as `pump`: a stream-mode consumer
                        // only buffers frames that carry bytes.
                        if cfg.mode == PayloadMode::Stream
                            && !matches!(a.content, AnnounceContent::Streamed { .. })
                        {
                            continue;
                        }
                        link.reorder.insert(a.seq, a);
                    }
                    DataMsg::Unknown { tag } => {
                        let seen_before = data_unknown.fetch_inc();
                        if seen_before == 0 {
                            eprintln!(
                                "tensorsocket: consumer ignoring unknown data tag {tag} \
                                 (newer producer?)"
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// The consumer's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Epoch this consumer was admitted into.
    pub fn joined_epoch(&self) -> u64 {
        self.joined_epoch
    }

    /// Number of producer shards this consumer is subscribed to.
    pub fn num_shards(&self) -> usize {
        self.links.len()
    }

    /// The payload mode this consumer attached with.
    pub fn payload_mode(&self) -> PayloadMode {
        self.cfg.mode
    }

    /// Why iteration stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// The error behind a [`StopReason::Protocol`] stop, if any.
    pub fn last_error(&self) -> Option<&TsError> {
        self.last_error.as_ref()
    }

    /// Batches consumed so far.
    pub fn batches_consumed(&self) -> u64 {
        self.batches_consumed
    }

    /// Samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.samples_consumed
    }

    /// Batch pointers currently buffered locally (the consumer-side batch
    /// buffer of §3.2.5), summed over shard subscriptions.
    pub fn buffered(&self) -> usize {
        self.queue.len() + self.links.iter().map(|l| l.sub.queued()).sum::<usize>()
    }

    /// The latest coalesced publish cursor heard from `shard`:
    /// `(epoch, seq, index_in_epoch)`, or `None` before the first cursor
    /// frame. This is *state*, not an event stream — the producer
    /// broadcasts it latest-wins at a bounded cadence, so a consumer
    /// waking from a stall observes one current position, never a
    /// backlog. Do not infer batch delivery from it.
    pub fn latest_cursor(&self, shard: usize) -> Option<(u64, u64, u64)> {
        self.latest_cursors.get(shard).copied().flatten()
    }

    fn unpack(&self, p: &TensorPayload) -> Result<Tensor> {
        Ok(p.unpack(&self.ctx.registry)?)
    }

    fn unpack_segments(&self, segs: &[TensorPayload]) -> Result<Tensor> {
        let tensors: Result<Vec<Tensor>> = segs.iter().map(|p| self.unpack(p)).collect();
        let tensors = tensors?;
        match tensors.len() {
            0 => Err(TsError::Wire("empty segment list".into())),
            1 => Ok(tensors.into_iter().next().expect("len 1")),
            // A wrapped (repeating) batch: materialize the concatenation.
            _ => Ok(collate::cat0(&tensors)?),
        }
    }

    /// Applies the consumer-local augmentation pipeline (if configured) to
    /// the primary field, sample by sample. The result is a private copy;
    /// the shared storage stays untouched for other consumers (§5,
    /// finer-grained sharing).
    fn apply_local(&self, batch: &mut ConsumerBatch) -> Result<()> {
        let Some(pipeline) = &self.cfg.local_pipeline else {
            return Ok(());
        };
        let Some(field) = batch.fields.first() else {
            return Ok(());
        };
        if field.ndim() < 2 {
            return Ok(());
        }
        let b = field.shape()[0];
        let mut transformed = Vec::with_capacity(b);
        for i in 0..b {
            let sample = field.select(0, i)?;
            // unique per (announce, position) so augmentations vary per
            // sample but stay reproducible
            let virtual_index = (batch.seq as usize)
                .wrapping_mul(1_000_003)
                .wrapping_add(batch.sub_index * 4_099 + i);
            let out = pipeline
                .apply(&sample, batch.epoch, virtual_index)
                .map_err(|e| TsError::Transform(e.to_string()))?;
            transformed.push(out);
        }
        batch.fields[0] = collate::stack0(&transformed)?;
        Ok(())
    }

    fn enqueue(&mut self, mut batch: ConsumerBatch) -> Result<()> {
        self.apply_local(&mut batch)?;
        self.queue.push_back(batch);
        Ok(())
    }

    fn ingest(&mut self, shard: usize, a: BatchAnnounce) -> Result<()> {
        self.links[shard].next_expected = a.seq + 1;
        self.interleave.advance(shard, a.last_in_epoch);
        // The rebuild span: announce decoded -> host tensors materialized
        // (zero-copy unpacks, flex carving, or stream rx). Stitches onto
        // the producer's record for the same (epoch, shard, seq) when both
        // sides share a flight recorder (in-process consumers).
        let (rb_epoch, rb_seq) = (a.epoch, a.seq);
        let rebuild_open = self.ctx.trace.now_ns().max(1);
        match a.content {
            AnnounceContent::Shared { fields, labels } => {
                let fields: Result<Vec<Tensor>> = fields.iter().map(|p| self.unpack(p)).collect();
                let labels = self.unpack(&labels)?;
                self.enqueue(ConsumerBatch {
                    epoch: a.epoch,
                    shard,
                    seq: a.seq,
                    index_in_epoch: a.index_in_epoch,
                    sub_index: 0,
                    fields: fields?,
                    labels,
                    last_in_epoch: a.last_in_epoch,
                })?;
            }
            AnnounceContent::Flex { batches } => {
                for (k, fb) in batches.iter().enumerate() {
                    let fields: Result<Vec<Tensor>> = fb
                        .fields
                        .iter()
                        .map(|segs| self.unpack_segments(segs))
                        .collect();
                    let labels = self.unpack_segments(&fb.labels)?;
                    self.enqueue(ConsumerBatch {
                        epoch: a.epoch,
                        shard,
                        seq: a.seq,
                        index_in_epoch: a.index_in_epoch,
                        sub_index: k,
                        fields: fields?,
                        labels,
                        last_in_epoch: a.last_in_epoch,
                    })?;
                }
            }
            AnnounceContent::Streamed { fields, labels } => {
                // The negotiated non-shm path: the announce carries the
                // bytes themselves. Each tensor is a view of its slice of
                // the received frame, which lives until the last of them
                // is released.
                let rx_start = Instant::now();
                let fields: Result<Vec<Tensor>> = fields
                    .iter()
                    .map(|t| t.to_tensor(ts_device::DeviceId::Cpu))
                    .collect();
                let labels = labels.to_tensor(ts_device::DeviceId::Cpu)?;
                let fields = fields?;
                self.stream_rx_hist.record_duration(rx_start.elapsed());
                self.enqueue(ConsumerBatch {
                    epoch: a.epoch,
                    shard,
                    seq: a.seq,
                    index_in_epoch: a.index_in_epoch,
                    sub_index: 0,
                    fields,
                    labels,
                    last_in_epoch: a.last_in_epoch,
                })?;
            }
        }
        self.ctx.trace.record(
            rb_epoch,
            shard as u32,
            rb_seq,
            SpanKind::Rebuild,
            rebuild_open,
            self.ctx.trace.now_ns(),
        );
        Ok(())
    }

    /// Pulls messages until the queue has something to yield or iteration
    /// stops. With several shards, always drains the shard whose
    /// announcement is globally next per the `(epoch, shard, seq)`
    /// contract — blocking on *that* shard's socket, since nothing else
    /// may be delivered first.
    fn pump(&mut self) {
        let wait_start = Instant::now();
        // Opens the recv span: how long this consumer sat on the socket
        // before each announce landed. Reset after every recorded batch so
        // consecutive announces in one pump each get their own wait.
        let mut recv_open = self.ctx.trace.now_ns().max(1);
        while self.queue.is_empty() && self.stopped.is_none() {
            let Some(target) = self.interleave.next_shard() else {
                // Every shard published End: clean end of stream.
                self.stopped = Some(StopReason::End);
                return;
            };
            // Serve the reorder buffer first.
            let next_expected = self.links[target].next_expected;
            if let Some(a) = self.links[target].reorder.remove(&next_expected) {
                self.ingest_or_skip(target, a);
                continue;
            }
            let msg = match self.links[target].sub.recv_timeout(self.cfg.recv_timeout) {
                Ok((_, m)) => m,
                Err(RecvError::Timeout) => {
                    self.stopped = Some(StopReason::Timeout);
                    return;
                }
                Err(RecvError::Closed) => {
                    self.stopped = Some(StopReason::ProducerGone);
                    return;
                }
            };
            let Some(frame) = msg.frames().first() else {
                continue;
            };
            let Ok(data) = DataMsg::decode_shared(frame) else {
                continue;
            };
            match data {
                DataMsg::Batch(a) => {
                    // A stream-mode consumer shares the batch topic with
                    // the shm subscribers and therefore sees their pointer
                    // announces too; its own copy of the bytes arrives on
                    // its private topic at the same seq. Skip the pointer
                    // frames without touching the in-order cursor.
                    if self.cfg.mode == PayloadMode::Stream
                        && !matches!(a.content, AnnounceContent::Streamed { .. })
                    {
                        continue;
                    }
                    let next_expected = self.links[target].next_expected;
                    if a.seq < next_expected {
                        continue; // duplicate of a replayed batch
                    }
                    self.ctx.trace.record(
                        a.epoch,
                        target as u32,
                        a.seq,
                        SpanKind::Recv,
                        recv_open,
                        self.ctx.trace.now_ns(),
                    );
                    recv_open = self.ctx.trace.now_ns().max(1);
                    if a.seq == next_expected {
                        self.ingest_or_skip(target, a);
                    } else {
                        self.links[target].reorder.insert(a.seq, a);
                    }
                }
                DataMsg::Detached { consumer_id } if consumer_id == self.id => {
                    self.stopped = Some(StopReason::Detached);
                }
                DataMsg::End => {
                    self.interleave.end_shard(target);
                }
                DataMsg::Cursor {
                    shard,
                    epoch,
                    seq,
                    index_in_epoch,
                } => {
                    // Pure state: record where the shard's publish stream
                    // is and how far behind this consumer runs. Never
                    // touches the in-order delivery cursor — delivery is
                    // inferred only from Batch announces.
                    let shard = shard as usize;
                    if shard < self.links.len() {
                        self.latest_cursors[shard] = Some((epoch, seq, index_in_epoch));
                        let lag = (seq + 1).saturating_sub(self.links[shard].next_expected);
                        self.cursor_lag.set(lag as f64);
                    }
                }
                DataMsg::Unknown { tag } => {
                    // Forward compatibility on the data path: a newer
                    // producer may broadcast message kinds this build does
                    // not know. Count them, log the first, and keep
                    // pumping — never stop iteration over an unknown tag.
                    let seen_before = self.data_unknown.fetch_inc();
                    if seen_before == 0 {
                        eprintln!(
                            "tensorsocket: consumer ignoring unknown data tag {tag} \
                             (newer producer?)"
                        );
                    }
                }
                _ => {}
            }
        }
        if !self.queue.is_empty() {
            // Only batch waits count: a pump that ended the stream is not
            // a latency sample.
            self.wait_hist.record_duration(wait_start.elapsed());
        }
    }

    /// Ingests an in-order announce, downgrading a dangling payload to a
    /// counted skip. A payload dangles when the producer released the
    /// batch's memory after announcing it — which only a producer that is
    /// aborting (or has detached this consumer) does, leaving stale
    /// announces in flight. The batch is unrecoverable either way, so
    /// wedging iteration on it would hide the producer's `End`; skip it
    /// and keep pumping. Any other ingest failure still stops the stream.
    fn ingest_or_skip(&mut self, shard: usize, a: BatchAnnounce) {
        let (epoch, seq) = (a.epoch, a.seq);
        match self.ingest(shard, a) {
            Ok(()) => {}
            Err(TsError::Tensor(e @ TensorError::DanglingPayload { .. })) => {
                let seen_before = self.dangling_skipped.fetch_inc();
                if seen_before == 0 {
                    eprintln!(
                        "tensorsocket: consumer skipping stale batch \
                         (epoch {epoch}, seq {seq}): {e} — the producer \
                         released it before we rebuilt (abort?)"
                    );
                }
            }
            Err(e) => {
                self.last_error = Some(e);
                self.stopped = Some(StopReason::Protocol);
            }
        }
    }

    fn send_pending_ack(&mut self) {
        if let Some((shard, seq, epoch, yielded_ns)) = self.pending_ack.take() {
            // The release span: batch yielded to the trainer -> ack dispatch.
            // This is the trainer's hold time — the window the producer
            // cannot reclaim the memory for. Stamped before the send so the
            // producer's ack span (which closes on receipt) always ends at or
            // after this one.
            self.ctx.trace.record(
                epoch,
                shard as u32,
                seq,
                SpanKind::Release,
                yielded_ns,
                self.ctx.trace.now_ns(),
            );
            let _ = self.links[shard].ctrl.send(Multipart::single(
                CtrlMsg::Ack {
                    consumer_id: self.id,
                    seq,
                }
                .encode(),
            ));
            self.ctx.metrics.counter("consumer.acks").inc();
        }
    }
}

impl Iterator for TensorConsumer {
    type Item = ConsumerBatch;

    fn next(&mut self) -> Option<ConsumerBatch> {
        // Finishing the previous batch: acknowledge it (§3.2.3 — "once a
        // consumer has finished a batch and moves on to the next, it will
        // notify the producer").
        self.send_pending_ack();
        if self.stopped.is_some() && self.queue.is_empty() {
            return None;
        }
        if self.queue.is_empty() {
            self.pump();
        }
        let batch = self.queue.pop_front()?;
        if self
            .queue
            .iter()
            .all(|b| b.seq != batch.seq || b.shard != batch.shard)
        {
            // Last carved batch of this announcement: ack when finished.
            self.pending_ack = Some((
                batch.shard,
                batch.seq,
                batch.epoch,
                self.ctx.trace.now_ns().max(1),
            ));
        }
        if let Some(prev) = self.last_yield.replace(Instant::now()) {
            self.interarrival_hist.record_duration(prev.elapsed());
        }
        self.batches_consumed += 1;
        self.samples_consumed += batch.batch_size() as u64;
        self.ctx.metrics.counter("consumer.batches").inc();
        self.ctx
            .metrics
            .counter("consumer.samples")
            .add(batch.batch_size() as u64);
        Some(batch)
    }
}

impl Drop for TensorConsumer {
    fn drop(&mut self) {
        self.send_pending_ack();
        for link in &self.links {
            let _ = link.ctrl.send(Multipart::single(
                CtrlMsg::Leave {
                    consumer_id: self.id,
                }
                .encode(),
            ));
        }
        self.hb_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.hb_thread.take() {
            let _ = h.join();
        }
    }
}

pub(crate) fn rand_id() -> u64 {
    use rand::RngCore;
    rand::thread_rng().next_u64() | 1
}

fn spawn_heartbeat(
    ctx: &TsContext,
    cfg: &ConsumerConfig,
    shards: usize,
    id: u64,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let mut pushes: Vec<Option<PushSocket>> = (0..shards)
        .map(|s| {
            Some(PushSocket::connect(
                &ctx.sockets,
                &cfg.shard_ctrl_endpoint(s),
            ))
        })
        .collect();
    let interval = cfg.heartbeat_interval;
    std::thread::Builder::new()
        .name(format!("ts-heartbeat-{id}"))
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // A dead shard stops receiving heartbeats; the SURVIVING
                // shards must keep getting them, or they would expire a
                // perfectly healthy consumer mid-stream.
                for push in pushes.iter_mut() {
                    let Some(socket) = push else { continue };
                    if socket
                        .send(Multipart::single(
                            CtrlMsg::Heartbeat { consumer_id: id }.encode(),
                        ))
                        .is_err()
                    {
                        *push = None; // this shard's producer is gone
                    }
                }
                if pushes.iter().all(|p| p.is_none()) {
                    return; // every producer gone
                }
                std::thread::sleep(interval);
            }
        })
        .expect("spawn heartbeat thread")
}
