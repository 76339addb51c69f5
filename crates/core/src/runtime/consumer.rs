//! [`Consumer`]: the lightweight iterator a training script swaps in for
//! its data loader (§3.2.2, Figure 3c) — the I/O shell around the
//! consumer's state machine, and the one place a consumer receives.
//!
//! Every decision — admission, the log splice, in-order delivery across
//! shards, what to ack, when the stream is over — is
//! `runtime::consumer_state`'s, which owns no socket, thread or clock.
//! This file owns exactly those: one *link* per producer shard (a SUB
//! socket for everything the shard says, a PUSH socket for everything said
//! to it — HELLO and WELCOME included, on shard 0's link, so an attach
//! opens two connections per shard and nothing else), the flight-recorder
//! clock, and one loop (`Consumer::pump`): one wait over every open link
//! at once (`SubSocket`'s multi-socket wait: one `poll` across the shards'
//! data connections, read on this thread), no longer than the state's
//! deadline; turn what came — a frame from any shard, nothing, a closed
//! socket — into one event; `step`; execute the effects in order. A
//! frame, a `Detached` or a close on any shard reaches the state at once;
//! ordering across shards is the state's (its reorder buffer holds what
//! arrives ahead of its turn). `connect()` runs that loop until every
//! shard is admitted and knows where its stream starts, each `next()`
//! until a batch is rebuilt.
//! Finishing a batch (calling `next` again, or dropping the consumer)
//! acknowledges it to the producer, which releases the memory once every
//! consumer has done so.
//!
//! **Why the heartbeat keeps a thread.** Between two `next()` calls the
//! consumer's thread belongs to the trainer — a training step may well
//! outlast the producer's heartbeat timeout — so liveness cannot ride on
//! the loop above. The beat is the only other thread: it pushes on the
//! links' own control sockets (shared, not a second connection), starts
//! after the JOINs and stops before the LEAVE so no producer sees a beat
//! outside a membership, and waits in `park_timeout` so dropping a
//! consumer does not wait out an interval.

use crate::protocol::messages::{CtrlMsg, PayloadMode, WelcomeInfo};
use crate::runtime::builder::ConsumerBuilder;
use crate::runtime::consumer_state::{ConsumerState, Effect, Event};
use crate::runtime::context::{TransportMirror, TsContext};
use crate::{HandshakeError, Result, TsError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ts_metrics::{Histogram, SpanKind};
use ts_socket::{Endpoint, EndpointMap, Multipart, PushSocket, SubSocket};
use ts_tensor::Tensor;

/// The most shards a WELCOME may advertise: every one is a link opened
/// up front.
const MAX_SHARDS: usize = 1024;

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
    /// No message arrived within the receive timeout.
    Timeout,
    /// The producer's socket vanished.
    ProducerGone,
    /// A payload could not be rebuilt (protocol violation).
    Protocol,
}

/// The whole conversation with one producer shard.
struct Link {
    sub: SubSocket,
    /// `sub` reported `Closed`: it leaves the wait.
    closed: bool,
    /// Shared with the heartbeat thread.
    ctrl: Arc<PushSocket>,
    /// `ctrl`'s `transport.*` counters, as of the last batch taken.
    sent: TransportMirror,
}

impl Link {
    fn open(ctx: &TsContext, map: &EndpointMap, shard: usize) -> Self {
        Self {
            sub: SubSocket::connect(&ctx.sockets, &map.data(shard)),
            closed: false,
            ctrl: Arc::new(PushSocket::connect(&ctx.sockets, &map.ctrl(shard))),
            sent: TransportMirror::new(&ctx.metrics),
        }
    }
}

/// The consuming end of a TensorSocket, attached with nothing but an
/// endpoint URI (see [`Consumer::builder`]).
///
/// Iterate it like a data loader. Items are `Result`s: a clean end of
/// stream (the producer published `End` on every shard) terminates
/// iteration with `None`, while detachment, timeouts and protocol
/// violations surface **once** as an `Err` item before the stream ends —
/// no sentinel-checking after the loop. Dropping the consumer detaches it
/// cleanly (stops the heartbeat, acks the batch in flight, notifies every
/// shard).
pub struct Consumer {
    ctx: TsContext,
    /// What the user set.
    opts: ConsumerBuilder,
    endpoint: String,
    state: ConsumerState,
    /// One per shard (index = shard); shard 0's carried the handshake.
    links: Vec<Link>,
    /// The effect buffer, reused across steps.
    fx: Vec<Effect>,
    /// The heartbeat thread and its stop flag, once joined.
    beat: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    welcome: Option<WelcomeInfo>,
    /// `consumer.wait_ns`: time inside `next()` until a batch was there.
    wait_hist: Arc<Histogram>,
    /// `consumer.interarrival_ns`: time between successive yields.
    interarrival_hist: Arc<Histogram>,
    /// `consumer.stream_rx_ns`: time to rebuild a batch from streamed bytes.
    stream_rx_hist: Arc<Histogram>,
    last_yield: Option<Instant>,
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("id", &self.id())
            .field("shards", &self.num_shards())
            .field("stop_reason", &self.stop_reason())
            .finish()
    }
}

impl Consumer {
    /// Starts building a consumer.
    pub fn builder() -> ConsumerBuilder {
        ConsumerBuilder::new()
    }

    /// Attaches to the producer at `endpoint`: HELLO/WELCOME on shard 0's
    /// link, negotiation, JOIN on every shard, and — for a group member of
    /// a logging producer — the splice onto its logged range. Blocks until
    /// admitted everywhere, which may span an epoch boundary when the join
    /// arrives too late for rubberbanding.
    pub(crate) fn attach(mut opts: ConsumerBuilder, endpoint: String) -> Result<Consumer> {
        let ctx = opts.ctx.take().unwrap_or_else(TsContext::host_only);
        // Forced payload mode: the builder knob wins over the
        // TS_FORCE_PAYLOAD_MODE environment variable; neither set means
        // negotiate (prefer shm, fall back to streaming).
        opts.payload_mode = opts.payload_mode.or_else(|| {
            match std::env::var("TS_FORCE_PAYLOAD_MODE").ok().as_deref() {
                Some("stream") => Some(PayloadMode::Stream),
                Some("shm") => Some(PayloadMode::Shm),
                _ => None,
            }
        });
        let id = opts.consumer_id.unwrap_or_else(rand_id);
        let mut fx = Vec::new();
        let histogram = |name| ctx.metrics.histogram(name);
        let mut consumer = Consumer {
            state: ConsumerState::new(&ctx, &opts, id, &mut fx),
            links: vec![Link::open(&ctx, &EndpointMap::new(&endpoint, 1), 0)],
            fx,
            beat: None,
            welcome: None,
            wait_hist: histogram("consumer.wait_ns"),
            interarrival_hist: histogram("consumer.interarrival_ns"),
            stream_rx_hist: histogram("consumer.stream_rx_ns"),
            last_yield: None,
            ctx,
            opts,
            endpoint,
        };
        // One deadline for the subscription (the publisher may not be
        // bound yet) and the HELLO after it: the pump executes them in
        // that order.
        let (now, timeout) = (consumer.ctx.trace.now_ns(), consumer.opts.handshake_timeout);
        consumer.state.start(now, timeout, &mut consumer.fx);
        consumer.pump(|state| state.attached);
        consumer.state.take_error().map_or(Ok(consumer), Err)
    }

    /// The consumer's id.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Epoch this consumer was admitted into.
    pub fn joined_epoch(&self) -> u64 {
        self.state.joined_epoch
    }

    /// Number of producer shards this consumer is subscribed to (learned
    /// from the handshake).
    pub fn num_shards(&self) -> usize {
        self.links.len()
    }

    /// The producer's WELCOME self-description this consumer attached
    /// against.
    pub fn welcome(&self) -> &WelcomeInfo {
        // Not reachable from the wire: `attach` hands out a consumer only
        // once attached, and no shard leaves `Hello` before `negotiate`
        // stored the WELCOME.
        let welcome = self.welcome.as_ref();
        welcome.expect("a consumer only exists once it was welcomed")
    }

    /// The payload mode negotiated at attach: shm pointer-passing, or
    /// length-prefixed byte streaming for consumers that could not map
    /// the producer's arena (or forced the mode).
    pub fn payload_mode(&self) -> PayloadMode {
        self.state.mode
    }

    /// Why iteration stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.state.stopped
    }

    /// Batches consumed so far.
    pub fn batches_consumed(&self) -> u64 {
        self.state.batches_consumed
    }

    /// Samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.state.samples_consumed
    }

    /// Batch pointers currently buffered locally (the consumer-side batch
    /// buffer of §3.2.5): rebuilt and waiting, announced ahead of their
    /// turn, or read off a shard's connection and not taken yet. More may
    /// be on their way in the kernel's socket buffers; those are not
    /// counted.
    pub fn buffered(&self) -> usize {
        let queued = self.links.iter().map(|l| l.sub.queued());
        self.state.buffered() + queued.sum::<usize>()
    }

    /// The latest `(epoch, seq, index_in_epoch)` the producer announced
    /// on the coalescing cursor channel for `shard`, if any flush has
    /// arrived. Latest-wins: this is where the producer *is*, not a log
    /// of where it has been — stale positions are displaced, never
    /// queued. Do not infer batch delivery from it.
    pub fn latest_cursor(&self, shard: usize) -> Option<(u64, u64, u64)> {
        self.state.latest_cursor(shard)
    }

    /// Runs the state until `done` (or it stopped): wait on every open
    /// link, step, execute.
    fn pump(&mut self, done: fn(&ConsumerState) -> bool) {
        loop {
            self.execute();
            if done(&self.state) || self.state.wants().is_none() {
                return; // done, or stopped
            }
            let left = (self.state.deadline()).saturating_sub(self.ctx.trace.now_ns());
            let open = self.links.iter().enumerate().filter(|(_, l)| !l.closed);
            let (shards, subs): (Vec<usize>, Vec<&SubSocket>) =
                open.map(|(shard, l)| (shard, &l.sub)).unzip();
            // The consumer's only blocking call.
            let Some(ready) = SubSocket::wait(&subs, Duration::from_nanos(left)) else {
                self.step(Event::Tick);
                continue;
            };
            let shard = shards[ready];
            let link = &mut self.links[shard];
            // What the wait found: a message, or the socket's end.
            let event = match link.sub.try_recv() {
                Ok(Some((_, msg))) => match msg.frames().first() {
                    Some(frame) => Event::Frame {
                        shard,
                        frame: frame.clone(),
                    },
                    None => continue,
                },
                Ok(None) => continue,
                Err(_) => {
                    link.closed = true;
                    Event::Closed { shard }
                }
            };
            self.step(event);
        }
    }

    /// One step of the state at the current time. A batch that is ready
    /// after it and was not before was rebuilt in it: the rebuild span —
    /// frame in hand to host tensors (zero-copy unpacks, flex carving, or
    /// views of streamed bytes) — is closed here, where the clock is, and
    /// stitches onto the producer's record for the same `(epoch, shard,
    /// seq)` when both share a flight recorder.
    fn step(&mut self, event: Event) {
        let trace = &self.ctx.trace;
        let opened = trace.now_ns().max(1);
        let idle = self.state.ready().is_none();
        self.state.step(opened, event, &mut self.fx);
        if let Some(b) = self.state.ready().filter(|_| idle) {
            let closed = trace.now_ns();
            let (shard, rebuild) = (b.shard as u32, SpanKind::Rebuild);
            trace.record(b.epoch, shard, b.seq, rebuild, opened, closed);
            if self.state.mode == PayloadMode::Stream {
                self.stream_rx_hist.record(closed - opened);
            }
        }
    }

    /// Executes the pending effects in order. Subscriptions in a row are
    /// written together and waited for once (see [`Consumer::subscribe`]).
    fn execute(&mut self) {
        let mut fx = std::mem::take(&mut self.fx);
        let mut topics = Vec::new();
        for effect in fx.drain(..) {
            if !matches!(effect, Effect::Subscribe { .. }) {
                self.subscribe(&mut topics);
            }
            match effect {
                // A frame that cannot be sent means the producer's control
                // socket is gone; its data socket closes with it, and that
                // `Closed` is what ends the attach or the stream.
                Effect::Ctrl { shard, msg } => {
                    let _ = self.links[shard].ctrl.send(Multipart::single(msg.encode()));
                }
                Effect::Subscribe { shard, topic } => topics.push((shard, topic)),
                Effect::Unsubscribe { shard, topic } => self.links[shard].sub.unsubscribe(&topic),
                Effect::Negotiate(welcome) => {
                    if let Err(e) = self.negotiate(welcome) {
                        self.state.fail(e);
                    }
                }
            }
        }
        self.subscribe(&mut topics);
        self.fx = fx; // emptied, with its allocation
    }

    /// Subscribes to `topics` (drained), shard by shard: each link's `SUB`s
    /// are written at once and acknowledged in one round trip, so an attach
    /// sleeps once per link for them, not once per topic. A producer that
    /// is not there yet is waited for as long as an attach waits for its
    /// WELCOME.
    fn subscribe(&self, topics: &mut Vec<(usize, Vec<u8>)>) {
        while let Some(&(shard, _)) = topics.first() {
            let (mine, rest) = topics.drain(..).partition(|(s, _)| *s == shard);
            *topics = rest;
            let prefixes: Vec<Vec<u8>> = mine.into_iter().map(|(_, topic)| topic).collect();
            let sub = &self.links[shard].sub;
            sub.subscribe_all(&prefixes, self.opts.handshake_timeout);
        }
    }

    /// Checks the WELCOME against what the user asked for (typed
    /// [`HandshakeError`]s on mismatch), maps the advertised arena if one
    /// backs the payload path, opens the remaining shards' links, joins
    /// them all and starts the heartbeat.
    fn negotiate(&mut self, welcome: WelcomeInfo) -> Result<()> {
        let advertised = welcome.shards.max(1) as usize;
        if let Some(requested) = self.opts.shards_override.filter(|r| *r != advertised) {
            return Err(HandshakeError::Topology {
                requested,
                advertised,
            }
            .into());
        }
        // Every producer serves both payload modes.
        let forced = self.opts.payload_mode;
        let mut mode = forced.unwrap_or(PayloadMode::Shm);
        // An arena already bound (same process as the producer, or a
        // caller that pre-opened it) wins; otherwise map the advertised
        // one. A consumer that cannot map it — another host — falls back
        // to the streamed path unless the caller insisted on shm.
        let arena = welcome.arena.as_ref().filter(|_| mode == PayloadMode::Shm);
        if let Some(ad) = arena.filter(|_| self.ctx.registry.arena().is_none()) {
            if let Err(e) = self.ctx.open_arena(&ad.path) {
                if forced.is_some() {
                    let (path, reason) = (ad.path.clone(), e.to_string());
                    return Err(HandshakeError::ArenaMissing { path, reason }.into());
                }
                mode = PayloadMode::Stream;
            }
        }
        // The shard count and the override table come off the wire: each
        // link is two connections and a writer thread, and a socket
        // refuses a malformed endpoint by panicking, so both are checked
        // before anything is opened.
        if advertised > MAX_SHARDS {
            let what = format!("WELCOME advertises {advertised} shards (at most {MAX_SHARDS})");
            return Err(TsError::Wire(what));
        }
        let overrides = welcome.endpoint_overrides.clone();
        let map = EndpointMap::with_overrides(&self.endpoint, advertised, overrides);
        for shard in 1..advertised {
            for uri in [map.data(shard), map.ctrl(shard)] {
                uri.parse::<Endpoint>()?;
            }
        }
        for shard in 1..advertised {
            self.links.push(Link::open(&self.ctx, &map, shard));
        }
        let now = self.ctx.trace.now_ns();
        self.state.negotiated(now, &welcome, mode, &mut self.fx);
        self.welcome = Some(welcome);
        // The JOINs go out before the first beat, on the same sockets: no
        // producer hears from an id it does not know yet.
        self.execute();
        let pushes = self.links.iter().map(|l| l.ctrl.clone()).collect();
        let interval = self.opts.heartbeat_interval;
        let beat = spawn_heartbeat(self.state.id, interval, pushes);
        self.beat = Some(beat.map_err(|e| TsError::Socket(format!("heartbeat thread: {e}")))?);
        Ok(())
    }
}

impl Iterator for Consumer {
    type Item = Result<ConsumerBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        let started = Instant::now();
        let waits = self.state.ready().is_none();
        self.step(Event::Next);
        self.pump(|state| state.ready().is_some());
        for link in &mut self.links {
            link.sent.sync(link.ctrl.transport_stats());
        }
        let Some(batch) = self.state.take(self.ctx.trace.now_ns()) else {
            return self.state.take_error().map(Err);
        };
        if waits {
            self.wait_hist.record_duration(started.elapsed());
        }
        if let Some(prev) = self.last_yield.replace(Instant::now()) {
            self.interarrival_hist.record_duration(prev.elapsed());
        }
        Some(Ok(batch))
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        // The beat stops first: it shares the sockets, and one behind the
        // LEAVE would reach a producer that no longer knows this consumer.
        if let Some((stop, thread)) = self.beat.take() {
            stop.store(true, Ordering::Release);
            thread.thread().unpark();
            let _ = thread.join();
        }
        self.step(Event::Leave);
        self.execute();
        for link in &mut self.links {
            link.sent.sync(link.ctrl.transport_stats());
        }
    }
}

pub(crate) fn rand_id() -> u64 {
    use rand::RngCore;
    rand::thread_rng().next_u64() | 1
}

/// The liveness thread (see the module docs for why it is one) and the
/// flag that stops it: set it, then `unpark`.
fn spawn_heartbeat(
    id: u64,
    interval: Duration,
    mut pushes: Vec<Arc<PushSocket>>,
) -> std::io::Result<(Arc<AtomicBool>, JoinHandle<()>)> {
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = stop.clone();
    let beat = CtrlMsg::Heartbeat { consumer_id: id }.encode();
    let thread = std::thread::Builder::new()
        .name(format!("ts-heartbeat-{id}"))
        .spawn(move || {
            while !stopped.load(Ordering::Acquire) && !pushes.is_empty() {
                // A shard whose producer is gone drops out; the SURVIVING
                // shards must keep getting beats, or they would expire a
                // perfectly healthy consumer mid-stream.
                pushes.retain(|push| push.send(Multipart::single(beat.clone())).is_ok());
                // Woken early by `drop`; a spurious wake-up is one early beat.
                std::thread::park_timeout(interval);
            }
        })?;
    Ok((stop, thread))
}
