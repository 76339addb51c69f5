//! The consumer's decisions as a plain state machine: `ConsumerState::step`
//! takes the time, one `Event` and a buffer for `Effect`s, and touches no
//! socket, no thread and no clock.
//!
//! The shell in `crate::runtime::consumer` is the only caller in
//! production: it blocks in one place — one wait over every shard's link —
//! turns whatever came off whichever link into an event, calls `step`, and
//! executes the effects in order.
//! Tests call `step` directly with a `u64` they advance by hand
//! (`runtime/consumer_step_tests.rs`) and route a producer `State`'s
//! effects straight into it — both ends of exactly-once without a socket.
//! What the state owns is in-memory only: the shared registry (rebuilding
//! tensors from announced payloads), the metrics registry and the flight
//! recorder (recording, never reading a clock).
//!
//! **Phases.** Each shard's link is in one [`Phase`]. Frames come from
//! every link as they arrive; [`ConsumerState::wants`] names the one link
//! whose silence counts — the shard furthest behind while attaching, the
//! next in delivery order afterwards — and [`ConsumerState::deadline`]
//! says how long it may last:
//!
//! * `Hello` (shard 0 only) — HELLO is out, re-sent until the WELCOME. Its
//!   version is read from the frame's fixed head before the body is
//!   decoded; the body becomes [`Effect::Negotiate`], and the shell answers
//!   with [`ConsumerState::negotiated`], which sends every shard its JOIN;
//! * `Joining` / `Parked` — no reply yet / told `WaitEpoch`. Any frame is a
//!   sign of life and moves the give-up time; an `AdmitReplay` subscribes
//!   the batch topic and says READY;
//! * `Splicing` — admitted, the point where the stream starts not settled.
//!   A group member of a logging producer asks every shard `Replay` once
//!   the *last* shard has answered its JOIN, admitted or parked, so all
//!   splices run from one request and one limit; batch frames that
//!   overtake the `LogInfo` answer wait in the reorder buffer, and a shard
//!   that never answers goes live-only (`consumer.splices_live_only`). A
//!   parked member splices too: its `LogInfo` promises the live stream
//!   from the next epoch's first seq, the shard counts as settled, and the
//!   trainer consumes the logged history while the member waits. The
//!   boundary's `AdmitReplay` then subscribes the batch topic and says
//!   READY without moving the cursor; it must start at the promised seq,
//!   or the stream stops (`Protocol`) rather than skip or repeat a batch;
//! * `Live` — delivering: in order per shard by sequence number, across
//!   shards by [`ShardInterleave`]; duplicates of replayed batches dropped;
//! * `Ended` — the shard published `End`; it leaves the rotation once what
//!   it had buffered is delivered.
//!
//! `connect()` returns when every shard is `Live` or `Ended` (*attached*);
//! `Detached`, `End`, `Timeout`, `ProducerGone` and `Protocol` are
//! terminal ([`StopReason`]), each with the error the iterator reports.
//! However it ends — attached or not — `Event::Leave` says LEAVE to every
//! shard that was sent a JOIN.
//!
//! **Effects.** `Ctrl` is one control frame for one shard (HELLO, JOIN,
//! READY, REPLAY, ACK, LEAVE — heartbeats are the shell's, see there);
//! `Subscribe` / `Unsubscribe` change what a shard's SUB socket lets
//! through; `Negotiate` hands the WELCOME to the shell, which validates
//! the topology, picks the payload mode, maps the arena and opens the
//! remaining links.
//!
//! **One batch in hand.** Nothing is rebuilt while the trainer holds a
//! batch: `Event::Next` acks it, and only then is the next announce turned
//! into tensors. A batch whose payload the producer already released (it
//! aborted) is skipped, counted — and acked like a delivered one, or the
//! producer would carry it until this consumer leaves.

use crate::protocol::messages::{
    caps, exchange_head, topics, AnnounceContent, BatchAnnounce, CtrlMsg, DataMsg, JoinDecision,
    PayloadMode, ReplayFrom, WelcomeInfo, WIRE_VERSION,
};
use crate::protocol::order::ShardInterleave;
use crate::runtime::builder::ConsumerBuilder;
use crate::runtime::consumer::{ConsumerBatch, StopReason};
use crate::runtime::context::TsContext;
use crate::{HandshakeError, Result, TsError};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use ts_metrics::{Counter, Gauge, SpanKind};
use ts_tensor::{collate, Tensor, TensorError, TensorPayload};

/// How long an unanswered HELLO or `Replay` waits before it is sent again
/// (the reply can go out while the subscription is still propagating).
const RESEND_NS: u64 = 50_000_000;

/// Something that happened; the shell's only input to
/// [`ConsumerState::step`].
pub(crate) enum Event {
    /// One frame off shard `shard`'s SUB socket.
    Frame { shard: usize, frame: Bytes },
    /// [`ConsumerState::deadline`] passed and nothing arrived.
    Tick,
    /// The trainer came back for the next batch: the one in hand is done.
    Next,
    /// The consumer is going away.
    Leave,
    /// Shard `shard`'s SUB socket closed under the consumer.
    Closed { shard: usize },
}

/// Something to do; executed by the shell in order.
pub(crate) enum Effect {
    /// Push `msg` on shard `shard`'s control socket.
    Ctrl { shard: usize, msg: CtrlMsg },
    /// Let `topic` through on shard `shard`'s SUB socket.
    Subscribe { shard: usize, topic: Vec<u8> },
    /// Stop letting `topic` through.
    Unsubscribe { shard: usize, topic: Vec<u8> },
    /// The producer described itself: check it, open the remaining links,
    /// then [`ConsumerState::negotiated`] (or [`ConsumerState::fail`]).
    Negotiate(WelcomeInfo),
}

/// Where one shard's link stands. See the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    #[default]
    Hello,
    Joining,
    Parked,
    Splicing,
    Live,
    Ended,
}

#[derive(Default)]
struct Shard {
    phase: Phase,
    /// Next sequence number to deliver from this shard.
    next_expected: u64,
    /// Announces that arrived ahead of `next_expected`.
    reorder: BTreeMap<u64, BatchAnnounce>,
    /// `(epoch, index_in_epoch)` of `next_expected`, until attached.
    start: (u64, u64),
    /// Latest coalesced publish cursor heard: `(epoch, seq, index_in_epoch)`.
    cursor: Option<(u64, u64, u64)>,
    /// The seq a parked shard's `LogInfo` promised the live stream from,
    /// until its `AdmitReplay` comes.
    promised: Option<u64>,
}

/// One consumer's whole decision state. See the module docs.
pub(crate) struct ConsumerState {
    ctx: TsContext,
    pub(crate) id: u64,
    /// HELLO capability bits: everything, or the one forced mode.
    caps: u32,
    batch_size: u32,
    group: Option<String>,
    local_pipeline: Option<Arc<ts_data::Pipeline>>,
    /// How long the producer may stay silent before a wait gives up, ns.
    recv_timeout: u64,
    /// Negotiated: how payload bytes reach this consumer.
    pub(crate) mode: PayloadMode,
    /// Negotiated: a group member of a logging producer asks for `Replay`.
    splices: bool,
    shards: Vec<Shard>,
    /// The merge order over the shard streams, once attached.
    interleave: ShardInterleave,
    /// Every shard is admitted and knows where its stream starts.
    pub(crate) attached: bool,
    /// Give-up time of the current wait.
    until: u64,
    resend_at: u64,
    /// Rebuilt batches not yielded yet (a flexible announce carves several).
    queue: VecDeque<ConsumerBatch>,
    /// `(shard, seq, epoch, yielded_at)` of the batch the trainer holds.
    in_hand: Option<(usize, u64, u64, u64)>,
    /// When the wait for the next announce began (the recv span).
    recv_open: u64,
    pub(crate) stopped: Option<StopReason>,
    error: Option<TsError>,
    /// Epoch shard 0 was admitted into.
    pub(crate) joined_epoch: u64,
    pub(crate) batches_consumed: u64,
    pub(crate) samples_consumed: u64,
    // Pre-resolved `consumer.*` handles: counters, and the gauge of how far
    // the last-heard shard has published beyond this consumer.
    batches: Arc<Counter>,
    samples: Arc<Counter>,
    acks: Arc<Counter>,
    data_unknown: Arc<Counter>,
    dangling_skipped: Arc<Counter>,
    splices_live_only: Arc<Counter>,
    cursor_lag: Arc<Gauge>,
}

/// The topics a consumer listens to on every shard's link from its JOIN
/// on: the producer's broadcasts, its cursor — coalesced state (latest
/// wins): cheap to carry, never gates delivery — and its own.
fn subscribe_link(shard: usize, id: u64, fx: &mut Vec<Effect>) {
    for topic in [topics::CTRL, topics::CURSOR, &topics::consumer(id)] {
        let topic = topic.to_vec();
        fx.push(Effect::Subscribe { shard, topic });
    }
}

impl ConsumerState {
    /// `opts` is what the user set; everything else arrives in the
    /// WELCOME, for which the state starts listening on shard 0's link.
    /// The token is the consumer id: a topic nobody else listens to. Call
    /// [`ConsumerState::start`] once the subscription is in place.
    ///
    /// Shard 0's own topics are subscribed to here as well, so the shell
    /// asks for all of them in one round trip and the JOIN after the
    /// WELCOME waits for none. What they bring before the WELCOME is
    /// dropped unread: in `Hello` only frames carrying the token count.
    pub(crate) fn new(
        ctx: &TsContext,
        opts: &ConsumerBuilder,
        id: u64,
        fx: &mut Vec<Effect>,
    ) -> Self {
        let topic = topics::hello(id);
        fx.push(Effect::Subscribe { shard: 0, topic });
        subscribe_link(0, id, fx);
        let counter = |name| ctx.metrics.counter(name);
        Self {
            ctx: ctx.clone(),
            id,
            caps: opts.payload_mode.map_or(caps::KNOWN, PayloadMode::cap_bit),
            batch_size: opts.batch_size.unwrap_or(0) as u32,
            group: opts.group.clone(),
            local_pipeline: opts.local_pipeline.clone(),
            recv_timeout: opts.recv_timeout.as_nanos() as u64,
            mode: PayloadMode::Shm,
            splices: false,
            shards: vec![Shard::default()],
            interleave: ShardInterleave::new(Vec::new()),
            attached: false,
            until: 0,
            resend_at: 0,
            queue: VecDeque::new(),
            in_hand: None,
            recv_open: 0,
            stopped: None,
            error: None,
            joined_epoch: 0,
            batches_consumed: 0,
            samples_consumed: 0,
            batches: counter("consumer.batches"),
            samples: counter("consumer.samples"),
            acks: counter("consumer.acks"),
            data_unknown: counter("consumer.data_unknown"),
            dangling_skipped: counter("consumer.dangling_skipped"),
            splices_live_only: counter("consumer.splices_live_only"),
            cursor_lag: ctx.metrics.gauge("consumer.cursor_lag"),
        }
    }

    /// Says HELLO; the WELCOME has `handshake_timeout` from now.
    pub(crate) fn start(&mut self, now: u64, handshake_timeout: Duration, fx: &mut Vec<Effect>) {
        self.until = now + handshake_timeout.as_nanos() as u64;
        self.recv_open = now.max(1);
        self.say_hello(now, fx);
    }

    /// The shell accepted the WELCOME and every shard has a link: join them
    /// all up front, so a sharded group decides one admission for all.
    pub(crate) fn negotiated(
        &mut self,
        now: u64,
        welcome: &WelcomeInfo,
        mode: PayloadMode,
        fx: &mut Vec<Effect>,
    ) {
        self.mode = mode;
        self.splices = self.group.is_some() && welcome.log.is_some();
        let shards = welcome.shards.max(1) as usize;
        self.shards.resize_with(shards, Shard::default);
        for s in &mut self.shards {
            s.phase = Phase::Joining;
        }
        self.until = now + self.recv_timeout;
        let topic = topics::hello(self.id);
        fx.push(Effect::Unsubscribe { shard: 0, topic });
        // Shard 0's were subscribed to with the WELCOME's.
        for shard in 1..shards {
            subscribe_link(shard, self.id, fx);
        }
        for shard in 0..shards {
            let msg = CtrlMsg::Join {
                consumer_id: self.id,
                batch_size: self.batch_size,
                mode,
            };
            fx.push(Effect::Ctrl { shard, msg });
        }
    }

    /// Ends the attach (or the stream) with `error`.
    pub(crate) fn fail(&mut self, error: TsError) {
        self.stop(StopReason::Protocol, Some(error));
    }

    // -- queries ----------------------------------------------------------

    /// The shard whose socket the shell should wait on: before the consumer
    /// is attached the shard furthest behind (lowest first), afterwards the
    /// one whose announce is next in `(epoch, index, shard)` order — nothing
    /// else may be delivered first. `None` once stopped.
    pub(crate) fn wants(&self) -> Option<usize> {
        if self.stopped.is_some() {
            return None;
        }
        if self.attached {
            return self.interleave.next_shard();
        }
        let behind = self.shards.iter().enumerate();
        let behind = behind.filter(|(_, s)| s.phase < Phase::Live);
        behind.min_by_key(|(i, s)| (s.phase, *i)).map(|(i, _)| i)
    }

    fn awaited(&self) -> Option<Phase> {
        self.wants().map(|shard| self.shards[shard].phase)
    }

    /// When the state next needs an [`Event::Tick`] if nothing arrives.
    pub(crate) fn deadline(&self) -> u64 {
        match self.awaited() {
            Some(Phase::Hello | Phase::Splicing) => self.until.min(self.resend_at),
            Some(Phase::Parked) if self.splices => self.until.min(self.resend_at),
            Some(_) => self.until,
            None => u64::MAX,
        }
    }

    /// The rebuilt batch [`ConsumerState::take`] would hand out. Nothing is
    /// rebuilt ahead of one, so it appears in the step that rebuilt it.
    pub(crate) fn ready(&self) -> Option<&ConsumerBatch> {
        self.queue.front()
    }

    /// The next batch for the trainer, in hand until [`Event::Next`]. A
    /// flexible announce is acked once, after its last carved batch.
    pub(crate) fn take(&mut self, now: u64) -> Option<ConsumerBatch> {
        let batch = self.queue.pop_front()?;
        if self.queue.is_empty() {
            self.in_hand = Some((batch.shard, batch.seq, batch.epoch, now.max(1)));
        }
        let samples = batch.batch_size() as u64;
        self.batches_consumed += 1;
        self.samples_consumed += samples;
        self.batches.inc();
        self.samples.add(samples);
        Some(batch)
    }

    /// Why the stream (or the attach) ended, as the error to report — once.
    /// A clean `End` has none.
    pub(crate) fn take_error(&mut self) -> Option<TsError> {
        self.error.take()
    }

    /// Batches held here: rebuilt and not yet taken, or announced ahead of
    /// their turn.
    pub(crate) fn buffered(&self) -> usize {
        let ahead = self.shards.iter().map(|s| s.reorder.len());
        self.queue.len() + ahead.sum::<usize>()
    }

    /// The latest publish cursor heard from `shard`.
    pub(crate) fn latest_cursor(&self, shard: usize) -> Option<(u64, u64, u64)> {
        self.shards.get(shard).and_then(|s| s.cursor)
    }

    // -- the step ---------------------------------------------------------

    /// Feeds one event; appends what must be done about it to `fx`.
    pub(crate) fn step(&mut self, now: u64, ev: Event, fx: &mut Vec<Effect>) {
        match ev {
            Event::Frame { shard, frame } => self.on_frame(now, shard, &frame, fx),
            Event::Tick => self.on_tick(now, fx),
            Event::Next => {
                self.ack_in_hand(now, fx);
                // The wait for the next batch starts now, however long the
                // trainer held the last one.
                self.until = now + self.recv_timeout;
                self.recv_open = now.max(1);
            }
            Event::Leave => {
                self.ack_in_hand(now, fx);
                // Every shard that was sent a JOIN may know this consumer —
                // parked, or admitted with everyone's publishing halted
                // until its READY — whether or not the attach ever
                // completed. One that never admitted it owes nothing for
                // the LEAVE.
                let consumer_id = self.id;
                let shards = self.shards.iter().enumerate();
                for (shard, _) in shards.filter(|(_, s)| s.phase != Phase::Hello) {
                    let msg = CtrlMsg::Leave { consumer_id };
                    fx.push(Effect::Ctrl { shard, msg });
                }
                return;
            }
            // A shard that published `End` may go away: everything it sent
            // was read before its socket closed.
            Event::Closed { shard } if self.shards[shard].phase == Phase::Ended => {}
            Event::Closed { .. } => {
                let gone = TsError::Socket("producer disconnected".into());
                self.stop(StopReason::ProducerGone, Some(gone));
            }
        }
        self.advance(fx);
    }

    fn stop(&mut self, reason: StopReason, error: Option<TsError>) {
        if self.stopped.is_none() {
            self.stopped = Some(reason);
            self.error = error;
        }
    }

    fn on_tick(&mut self, now: u64, fx: &mut Vec<Effect>) {
        // Only the awaited shard can run out of time: the others may well
        // be silent because it is not their turn.
        let Some(shard) = self.wants() else {
            return;
        };
        let phase = self.shards[shard].phase;
        if now >= self.until {
            match phase {
                Phase::Hello => self.timed_out("handshake WELCOME"),
                Phase::Joining | Phase::Parked => self.timed_out("join reply"),
                // No answer (a log that failed after the WELCOME): attach
                // live-only, not an error — but the logged history is
                // skipped, so it is counted.
                Phase::Splicing => {
                    self.splices_live_only.inc();
                    self.settle(now, shard);
                }
                Phase::Live | Phase::Ended => self.timed_out("batch from producer"),
            }
        } else if now >= self.resend_at {
            match phase {
                Phase::Hello => self.say_hello(now, fx),
                Phase::Splicing => self.ask_replay(now, fx),
                Phase::Parked if self.splices => self.ask_replay(now, fx),
                _ => {}
            }
        }
    }

    fn timed_out(&mut self, what: &'static str) {
        self.stop(StopReason::Timeout, Some(TsError::Timeout(what)));
    }

    fn say_hello(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.resend_at = now + RESEND_NS;
        let msg = CtrlMsg::Hello {
            token: self.id,
            version: WIRE_VERSION,
            caps: self.caps,
        };
        fx.push(Effect::Ctrl { shard: 0, msg });
    }

    /// Asks every shard still splicing, or parked without an answer yet,
    /// for its logged range. The producer plans once and re-answers the
    /// same `LogInfo`, so resending cannot fork the stream.
    fn ask_replay(&mut self, now: u64, fx: &mut Vec<Effect>) {
        self.resend_at = now + RESEND_NS;
        let msg = CtrlMsg::Replay {
            consumer_id: self.id,
            group: self.group.clone().unwrap_or_default(),
            from: ReplayFrom::Cursor,
        };
        let shards = self.shards.iter().enumerate();
        let splicing = shards.filter(|(_, s)| matches!(s.phase, Phase::Parked | Phase::Splicing));
        fx.extend(splicing.map(|(shard, _)| Effect::Ctrl {
            shard,
            msg: msg.clone(),
        }));
    }

    // -- frames -----------------------------------------------------------

    fn on_frame(&mut self, now: u64, shard: usize, frame: &Bytes, fx: &mut Vec<Effect>) {
        let phase = self.shards[shard].phase;
        if phase == Phase::Hello {
            // The version sits in the fixed head every version shares: it is
            // compared before anything behind it is trusted.
            match exchange_head(frame) {
                Ok((token, theirs)) if token == self.id && theirs != WIRE_VERSION => {
                    let ours = WIRE_VERSION;
                    return self.fail(HandshakeError::Version { ours, theirs }.into());
                }
                Ok((token, _)) if token == self.id => {}
                _ => return,
            }
        }
        // Silence is measured from the awaited shard's last sign of life
        // (the others may be read ahead of their turn); the waits for
        // WELCOME and `LogInfo` run from their first request.
        let awaited = self.wants() == Some(shard);
        if awaited && !matches!(self.awaited(), Some(Phase::Hello | Phase::Splicing)) {
            self.until = now + self.recv_timeout;
        }
        // The one decode site. `Bytes` fields of the message are slices of
        // `frame`; a frame that does not decode is skipped, never fatal.
        let Ok(msg) = DataMsg::decode_shared(frame) else {
            return;
        };
        let joining = matches!(phase, Phase::Joining | Phase::Parked);
        let flowing = matches!(phase, Phase::Splicing | Phase::Live);
        match msg {
            // A newer producer's message kind, in whatever phase: count
            // it, say so once, go on.
            DataMsg::Unknown { tag } => {
                let first = self.data_unknown.fetch_inc() == 0;
                if first {
                    eprintln!(
                        "tensorsocket: consumer ignoring unknown data tag {tag} (newer producer?)"
                    );
                }
            }
            DataMsg::Welcome { info, .. } if phase == Phase::Hello => {
                fx.push(Effect::Negotiate(info));
            }
            // A parked shard that spliced still waits for its admission.
            DataMsg::JoinReply {
                consumer_id,
                decision,
            } if (joining || self.shards[shard].promised.is_some()) && consumer_id == self.id => {
                self.on_reply(now, shard, decision, fx)
            }
            DataMsg::End if joining => self.fail(TsError::Join("producer already ended".into())),
            DataMsg::End if flowing => {
                self.shards[shard].phase = Phase::Ended;
                self.attach_if_settled(now);
            }
            DataMsg::LogInfo {
                consumer_id,
                start_seq,
                start_epoch,
                start_index,
                ..
            } if phase == Phase::Splicing && consumer_id == self.id => {
                // The logged range streams first and ends exactly where
                // the live stream was admitted: move the cursor BACK to it.
                let s = &mut self.shards[shard];
                if start_seq < s.next_expected {
                    s.next_expected = start_seq;
                    s.start = (start_epoch, start_index);
                }
                self.settle(now, shard);
            }
            DataMsg::LogInfo {
                consumer_id,
                start_seq,
                start_epoch,
                start_index,
                live_seq,
                ..
            } if phase == Phase::Parked && self.splices && consumer_id == self.id => {
                // Parked until the next epoch: the history up to it
                // streams now, and the admission must start where it ends.
                let s = &mut self.shards[shard];
                s.next_expected = start_seq;
                s.start = (start_epoch, start_index);
                s.promised = Some(live_seq);
                self.settle(now, shard);
            }
            DataMsg::Batch(a) if flowing => self.on_batch(now, shard, a, fx),
            DataMsg::Detached { consumer_id } if consumer_id == self.id => {
                self.stop(StopReason::Detached, Some(TsError::Detached));
            }
            // Pure state: where the shard's publish stream is and how far
            // behind this consumer runs. Never moves the delivery cursor.
            DataMsg::Cursor {
                shard,
                epoch,
                seq,
                index_in_epoch,
            } => {
                if let Some(s) = self.shards.get_mut(shard as usize) {
                    s.cursor = Some((epoch, seq, index_in_epoch));
                    let lag = seq.saturating_add(1).saturating_sub(s.next_expected);
                    self.cursor_lag.set(lag as f64);
                }
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, now: u64, shard: usize, decision: JoinDecision, fx: &mut Vec<Effect>) {
        let (epoch, replay_from, start_seq) = match decision {
            JoinDecision::AdmitReplay {
                epoch,
                replay_from,
                start_seq,
                ..
            } => (epoch, replay_from, start_seq),
            // The producer answers again at the epoch boundary.
            JoinDecision::WaitEpoch { epoch } => {
                self.shards[shard].phase = Phase::Parked;
                if shard == 0 {
                    self.joined_epoch = epoch;
                }
                return self.all_answered(now, fx);
            }
            JoinDecision::Reject { reason } => return self.fail(TsError::Join(reason)),
        };
        // Only now subscribe to the shared stream, then tell the producer
        // nothing will be missed.
        let topic = topics::BATCH.to_vec();
        fx.push(Effect::Subscribe { shard, topic });
        let consumer_id = self.id;
        let msg = CtrlMsg::Ready { consumer_id };
        fx.push(Effect::Ctrl { shard, msg });
        if shard == 0 {
            self.joined_epoch = epoch;
        }
        let s = &mut self.shards[shard];
        if let Some(promised) = s.promised.take() {
            // Spliced while parked: the history ends where this starts.
            if start_seq != promised {
                let gap = format!("admitted at seq {start_seq}, the log splice ends at {promised}");
                self.fail(TsError::Join(gap));
            }
            return;
        }
        s.next_expected = start_seq;
        s.start = (epoch, replay_from);
        s.phase = match self.splices {
            true => Phase::Splicing,
            false => Phase::Live,
        };
        self.all_answered(now, fx);
    }

    /// Once the last shard has answered its JOIN, admitted or parked, every
    /// splice runs from one request and one limit.
    fn all_answered(&mut self, now: u64, fx: &mut Vec<Effect>) {
        if self.shards.iter().all(|s| s.phase >= Phase::Parked) {
            if self.splices {
                self.until = now + self.recv_timeout;
                self.ask_replay(now, fx);
            }
            self.attach_if_settled(now);
        }
    }

    /// Shard `shard` knows where its stream starts.
    fn settle(&mut self, now: u64, shard: usize) {
        let s = &mut self.shards[shard];
        s.phase = Phase::Live;
        // What overtook the answer and lies behind the start is a duplicate.
        s.reorder = s.reorder.split_off(&s.next_expected);
        self.attach_if_settled(now);
    }

    fn attach_if_settled(&mut self, now: u64) {
        if !self.attached && self.shards.iter().all(|s| s.phase >= Phase::Live) {
            let starts = self.shards.iter().map(|s| s.start);
            self.interleave = ShardInterleave::new(starts.collect());
            self.attached = true;
            self.until = now + self.recv_timeout;
        }
    }

    // -- delivery ---------------------------------------------------------

    /// True when the next announce in order may be rebuilt: attached,
    /// running, nothing queued and nothing in the trainer's hands.
    fn hungry(&self) -> bool {
        self.attached && self.stopped.is_none() && self.queue.is_empty() && self.in_hand.is_none()
    }

    fn on_batch(&mut self, now: u64, shard: usize, a: BatchAnnounce, fx: &mut Vec<Effect>) {
        // A stream-mode consumer shares the batch topic with the pointer
        // subscribers; its own copy of the bytes arrives on its private
        // topic at the same seq. Pointer frames pass without moving its
        // cursor.
        let streamed = matches!(a.content, AnnounceContent::Streamed { .. });
        if self.mode == PayloadMode::Stream && !streamed {
            return;
        }
        let s = &self.shards[shard];
        if s.phase == Phase::Live && a.seq < s.next_expected {
            return; // a duplicate of a replayed batch
        }
        let (trace, at, recv) = (&self.ctx.trace, shard as u32, SpanKind::Recv);
        trace.record(a.epoch, at, a.seq, recv, self.recv_open, now);
        self.recv_open = now.max(1);
        let next = a.seq == s.next_expected && self.interleave.next_shard() == Some(shard);
        if next && self.hungry() {
            self.ingest_or_skip(shard, a, fx);
        } else {
            self.shards[shard].reorder.insert(a.seq, a);
        }
    }

    /// Rebuilds what is next in order, as far as it has arrived.
    fn advance(&mut self, fx: &mut Vec<Effect>) {
        while self.hungry() {
            let Some(target) = self.interleave.next_shard() else {
                return self.stop(StopReason::End, None); // every shard ended
            };
            let s = &mut self.shards[target];
            match s.reorder.remove(&s.next_expected) {
                Some(a) => self.ingest_or_skip(target, a, fx),
                None if s.phase == Phase::Ended => self.interleave.end_shard(target),
                None => return,
            }
        }
    }

    /// Rebuilds an in-order announce. A payload dangles when the producer
    /// released the batch's memory after announcing it — an abort, or a
    /// detach with announces in flight. The batch is gone either way, and
    /// wedging on it would hide the producer's `End`: skip it, count it,
    /// and ack it like a delivered one so the producer stops waiting for
    /// it. Any other failure ends the stream.
    fn ingest_or_skip(&mut self, shard: usize, a: BatchAnnounce, fx: &mut Vec<Effect>) {
        let (epoch, seq) = (a.epoch, a.seq);
        match self.ingest(shard, a) {
            Ok(()) => {}
            Err(TsError::Tensor(e @ TensorError::DanglingPayload { .. })) => {
                self.queue.clear(); // carved batches of the same announce
                if self.dangling_skipped.fetch_inc() == 0 {
                    eprintln!(
                        "tensorsocket: consumer skipping stale batch \
                         (epoch {epoch}, seq {seq}): {e} — the producer \
                         released it before we rebuilt (abort?)"
                    );
                }
                self.ack(shard, seq, fx);
            }
            Err(e) => self.stop(StopReason::Protocol, Some(e)),
        }
    }

    fn ack(&mut self, shard: usize, seq: u64, fx: &mut Vec<Effect>) {
        let consumer_id = self.id;
        let msg = CtrlMsg::Ack { consumer_id, seq };
        fx.push(Effect::Ctrl { shard, msg });
        self.acks.inc();
    }

    /// Finishing a batch acknowledges it (§3.2.3: "once a consumer has
    /// finished a batch and moves on to the next, it will notify the
    /// producer"). The release span is the time the trainer held it — the
    /// window the producer cannot reclaim the memory for; it closes before
    /// the ack is sent, so the producer's ack span always ends after it.
    fn ack_in_hand(&mut self, now: u64, fx: &mut Vec<Effect>) {
        if let Some((shard, seq, epoch, yielded_at)) = self.in_hand.take() {
            let trace = &self.ctx.trace;
            trace.record(epoch, shard as u32, seq, SpanKind::Release, yielded_at, now);
            self.ack(shard, seq, fx);
        }
    }

    fn ingest(&mut self, shard: usize, a: BatchAnnounce) -> Result<()> {
        let Some(next) = a.seq.checked_add(1) else {
            return Err(TsError::Wire("a batch announced at seq u64::MAX".into()));
        };
        self.shards[shard].next_expected = next;
        self.interleave.advance(shard, a.last_in_epoch);
        let batch = |sub_index, fields, labels| ConsumerBatch {
            epoch: a.epoch,
            shard,
            seq: a.seq,
            index_in_epoch: a.index_in_epoch,
            sub_index,
            fields,
            labels,
            last_in_epoch: a.last_in_epoch,
        };
        match &a.content {
            // One attach per slot: a batch's tensors packed into one slot
            // name one storage and are rebuilt over one view of it.
            AnnounceContent::Shared { fields, labels } => {
                let payloads = fields.iter().chain([labels]);
                let mut fields = TensorPayload::unpack_batch(payloads, &self.ctx.registry)?;
                let labels = fields.pop().expect("labels come last");
                self.enqueue(batch(0, fields, labels))?;
            }
            AnnounceContent::Flex { batches } => {
                for (k, fb) in batches.iter().enumerate() {
                    let fields = fb.fields.iter().map(|segs| self.unpack_segments(segs));
                    let fields: Result<Vec<Tensor>> = fields.collect();
                    let labels = self.unpack_segments(&fb.labels)?;
                    self.enqueue(batch(k, fields?, labels))?;
                }
            }
            // The announce carries the bytes themselves. Each tensor is a
            // view of its slice of the received frame, which lives until
            // the last of them is released.
            AnnounceContent::Streamed { fields, labels } => {
                let cpu = ts_device::DeviceId::Cpu;
                let fields: Result<Vec<Tensor>> = fields.iter().map(|t| t.to_tensor(cpu)).collect();
                let labels = labels.to_tensor(cpu)?;
                self.enqueue(batch(0, fields?, labels))?;
            }
        }
        Ok(())
    }

    fn unpack(&self, p: &TensorPayload) -> Result<Tensor> {
        Ok(p.unpack(&self.ctx.registry)?)
    }

    fn unpack_segments(&self, segs: &[TensorPayload]) -> Result<Tensor> {
        let tensors: Result<Vec<Tensor>> = segs.iter().map(|p| self.unpack(p)).collect();
        let mut tensors = tensors?;
        match tensors.len() {
            0 => Err(TsError::Wire("empty segment list".into())),
            1 => Ok(tensors.swap_remove(0)),
            // A wrapped (repeating) batch: materialize the concatenation.
            _ => Ok(collate::cat0(&tensors)?),
        }
    }

    fn enqueue(&mut self, mut batch: ConsumerBatch) -> Result<()> {
        self.apply_local(&mut batch)?;
        self.queue.push_back(batch);
        Ok(())
    }

    /// Applies the consumer-local augmentation pipeline (if configured) to
    /// the primary field, sample by sample. The result is a private copy;
    /// the shared storage stays untouched for other consumers (§5,
    /// finer-grained sharing).
    fn apply_local(&self, batch: &mut ConsumerBatch) -> Result<()> {
        let Some(pipeline) = &self.local_pipeline else {
            return Ok(());
        };
        let Some(field) = batch.fields.first().filter(|f| f.ndim() >= 2) else {
            return Ok(());
        };
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
}

#[cfg(test)]
#[path = "consumer_step_tests.rs"]
mod consumer_step_tests;
