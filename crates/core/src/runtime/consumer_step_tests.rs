//! The consumer's decisions, scripted: every test here builds a
//! [`ConsumerState`] from `TsContext::host_only()` with no link open, feeds
//! it events with a time it advances by hand, and reads the effects. No
//! socket, no thread, no clock, no sleep. The last tests put producer
//! `State`s — one, or two shards stepped as a group the way the pump
//! steps them — on the other end of the effects (`World`): both halves of
//! exactly-once, back to back in memory, on one hand-advanced clock.

use super::*;
use crate::protocol::messages::{caps, FlexBatchPayload, LogAd, StreamedTensor};
use crate::runtime::config::ProducerConfig;
use crate::runtime::group;
use crate::runtime::producer::{spill_one, Preparer, TensorProducer};
use crate::runtime::staging::FeederMsg;
use crate::runtime::state::{self, State, Wait};
use crate::Consumer;
use ts_data::Batch;
use ts_device::DeviceId;

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000 * MS;
const ID: u64 = 7;

/// What a step asked the shell to do, readable.
#[derive(Debug, PartialEq)]
enum Out {
    Ctrl(usize, CtrlMsg),
    Sub(usize, Vec<u8>),
    Unsub(usize, Vec<u8>),
    Negotiate(WelcomeInfo),
}

fn outs(fx: Vec<Effect>) -> Vec<Out> {
    let out = |effect| match effect {
        Effect::Ctrl { shard, msg } => Out::Ctrl(shard, msg),
        Effect::Subscribe { shard, topic } => Out::Sub(shard, topic),
        Effect::Unsubscribe { shard, topic } => Out::Unsub(shard, topic),
        Effect::Negotiate(welcome) => Out::Negotiate(welcome),
    };
    fx.into_iter().map(out).collect()
}

fn welcome(shards: u32, log: bool) -> WelcomeInfo {
    WelcomeInfo {
        version: WIRE_VERSION,
        shards,
        batch_size: 4,
        flex_producer_batch: 0,
        staging: 0,
        arena: None,
        endpoint_overrides: Vec::new(),
        payload_modes: caps::KNOWN,
        log: log.then_some(LogAd {
            retained_min: 1,
            retained_max: 0,
        }),
    }
}

/// The builder the scripts start from: consumer [`ID`], a 30 s receive
/// timeout for data, 10 s for the WELCOME.
fn opts() -> ConsumerBuilder {
    Consumer::builder().consumer_id(ID)
}

struct Rig {
    state: ConsumerState,
    ctx: TsContext,
    now: u64,
}

impl Rig {
    /// A consumer that has just said HELLO.
    fn new(opts: ConsumerBuilder) -> Self {
        let ctx = TsContext::host_only();
        let mut fx = Vec::new();
        let state = ConsumerState::new(&ctx, &opts, ID, &mut fx);
        let mut rig = Rig { state, ctx, now: 0 };
        rig.state.start(0, opts.handshake_timeout, &mut fx);
        let hello = CtrlMsg::Hello {
            token: ID,
            version: WIRE_VERSION,
            caps: caps::KNOWN,
        };
        let expect = [
            Out::Sub(0, topics::hello(ID)),
            Out::Sub(0, topics::CTRL.to_vec()),
            Out::Sub(0, topics::CURSOR.to_vec()),
            Out::Sub(0, topics::consumer(ID)),
            Out::Ctrl(0, hello),
        ];
        assert_eq!(outs(fx), expect);
        rig
    }

    /// One step, 10 µs after the previous one.
    fn step(&mut self, ev: Event) -> Vec<Out> {
        self.now += 10_000;
        let mut fx = Vec::new();
        self.state.step(self.now, ev, &mut fx);
        outs(fx)
    }

    fn frame(&mut self, shard: usize, msg: DataMsg) -> Vec<Out> {
        let frame = msg.encode();
        self.step(Event::Frame { shard, frame })
    }

    /// Lets `ns` pass, then ticks.
    fn tick_after(&mut self, ns: u64) -> Vec<Out> {
        self.now += ns;
        self.step(Event::Tick)
    }

    /// The WELCOME arrives and the shell accepts it: every shard is joined.
    fn negotiate(&mut self, info: WelcomeInfo, mode: PayloadMode) {
        let out = self.frame(0, DataMsg::Welcome { token: ID, info });
        let [Out::Negotiate(info)] = &out[..] else {
            panic!("a WELCOME is the shell's to judge: {out:?}");
        };
        let mut fx = Vec::new();
        self.state.negotiated(self.now, info, mode, &mut fx);
        let out = outs(fx);
        let shards = info.shards as usize;
        assert_eq!(out[0], Out::Unsub(0, topics::hello(ID)));
        // Shard 0's topics came with the WELCOME's.
        let subs = 3 * (shards - 1);
        assert_eq!(
            out.len(),
            1 + subs + shards,
            "3 topics a further shard, a JOIN each"
        );
        for (shard, out) in out[1 + subs..].iter().enumerate() {
            assert!(
                matches!(out, Out::Ctrl(s, CtrlMsg::Join { consumer_id: ID, mode: m, .. })
                    if *s == shard && *m == mode),
                "{out:?}"
            );
        }
    }

    /// Shard `shard` admits the consumer at `start_seq` of `epoch` (the
    /// scripts' epochs have 8 batches: index = seq − 8 · epoch).
    fn admit(&mut self, shard: usize, epoch: u64, start_seq: u64) -> Vec<Out> {
        let decision = JoinDecision::AdmitReplay {
            epoch,
            replay_from: start_seq - 8 * epoch,
            num_batches: 8,
            start_seq,
        };
        let out = self.frame(shard, join_reply(decision));
        let ready = CtrlMsg::Ready { consumer_id: ID };
        let expect = [
            Out::Sub(shard, topics::BATCH.to_vec()),
            Out::Ctrl(shard, ready),
        ];
        assert_eq!(out[..2], expect);
        out
    }

    /// A consumer attached to `shards` shards from seq 0 of epoch 0.
    fn attached(opts: ConsumerBuilder, shards: u32, mode: PayloadMode) -> Self {
        let mut rig = Rig::new(opts);
        rig.negotiate(welcome(shards, false), mode);
        for shard in 0..shards as usize {
            rig.admit(shard, 0, 0);
        }
        assert!(rig.state.attached);
        rig
    }

    /// The trainer takes what is ready: `(shard, seq, sub_index)` each.
    fn take_all(&mut self) -> Vec<(usize, u64, usize)> {
        let mut got = Vec::new();
        while let Some(b) = self.state.take(self.now) {
            got.push((b.shard, b.seq, b.sub_index));
        }
        got
    }

    /// The trainer comes back: `Next`, then whatever that made ready.
    fn next(&mut self) -> (Vec<Out>, Vec<(usize, u64, usize)>) {
        let out = self.step(Event::Next);
        (out, self.take_all())
    }
}

/// The `Replay` a member of group "g" asks every splicing shard.
fn replay() -> CtrlMsg {
    CtrlMsg::Replay {
        consumer_id: ID,
        group: "g".into(),
        from: ReplayFrom::Cursor,
    }
}

fn join_reply(decision: JoinDecision) -> DataMsg {
    DataMsg::JoinReply {
        consumer_id: ID,
        decision,
    }
}

fn log_info(start_seq: u64, live_seq: u64) -> DataMsg {
    DataMsg::LogInfo {
        consumer_id: ID,
        start_seq,
        start_epoch: 0,
        start_index: start_seq,
        live_seq,
        retained_min: 0,
        retained_max: live_seq,
    }
}

fn ack(seq: u64) -> CtrlMsg {
    CtrlMsg::Ack {
        consumer_id: ID,
        seq,
    }
}

fn labels(seq: u64) -> Tensor {
    Tensor::from_i64(&[seq as i64; 4], &[4], DeviceId::Cpu).unwrap()
}

/// Batch `seq` (index `seq` of epoch 0) as its bytes.
fn streamed(seq: u64) -> DataMsg {
    announce(seq, seq, false, {
        let labels = StreamedTensor::from_tensor(&labels(seq));
        AnnounceContent::Streamed {
            fields: vec![labels.clone()],
            labels,
        }
    })
}

/// Batch `seq` as pointers into `ctx`'s registry.
fn pointers(ctx: &TsContext, seq: u64) -> DataMsg {
    let labels = labels(seq);
    ctx.registry.register(labels.storage());
    let labels = TensorPayload::pack(&labels);
    announce(seq, seq, false, {
        AnnounceContent::Shared {
            fields: vec![labels.clone()],
            labels,
        }
    })
}

fn announce(seq: u64, index_in_epoch: u64, last: bool, content: AnnounceContent) -> DataMsg {
    DataMsg::Batch(BatchAnnounce {
        seq,
        epoch: 0,
        index_in_epoch,
        last_in_epoch: last,
        content,
    })
}

#[test]
fn a_parked_joiner_waits_as_long_as_the_producer_shows_life_and_no_longer() {
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(1, false), PayloadMode::Shm);
    assert_eq!(rig.state.wants(), Some(0));
    let wait = join_reply(JoinDecision::WaitEpoch { epoch: 1 });
    assert!(rig.frame(0, wait).is_empty());
    // 100 s of someone else's epoch, a frame every 20 s: each one moves
    // the give-up time, so the 30 s limit never trips.
    for _ in 0..5 {
        assert!(rig.tick_after(20 * SEC).is_empty());
        assert_eq!(rig.state.stopped, None);
        let elsewhere = DataMsg::EpochStart {
            epoch: 0,
            num_batches: 8,
        };
        assert!(rig.frame(0, elsewhere).is_empty());
        assert_eq!(rig.state.deadline(), rig.now + 30 * SEC);
    }
    rig.admit(0, 1, 8);
    assert!(rig.state.attached);
    assert_eq!(rig.state.joined_epoch, 1);
    assert_eq!(rig.state.take_error(), None);
    // The same wait without a sign of life is a typed timeout.
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(1, false), PayloadMode::Shm);
    rig.frame(0, join_reply(JoinDecision::WaitEpoch { epoch: 1 }));
    assert!(rig.tick_after(29 * SEC).is_empty());
    assert_eq!(rig.state.stopped, None);
    rig.tick_after(SEC);
    assert_eq!(rig.state.stopped, Some(StopReason::Timeout));
    assert_eq!(rig.state.take_error(), Some(TsError::Timeout("join reply")));
    assert_eq!(rig.state.wants(), None);
    // It is still in the producer's `pending_join`: the shard is told.
    let leave = CtrlMsg::Leave { consumer_id: ID };
    assert_eq!(rig.step(Event::Leave), [Out::Ctrl(0, leave)]);
}

#[test]
fn reject_end_before_admission_and_version_skew_are_typed_errors() {
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(1, false), PayloadMode::Shm);
    let reason = "batch size 99 exceeds producer batch 8".to_string();
    let reject = JoinDecision::Reject {
        reason: reason.clone(),
    };
    rig.frame(0, join_reply(reject));
    assert_eq!(rig.state.take_error(), Some(TsError::Join(reason)));
    assert!(!rig.state.attached);

    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(1, false), PayloadMode::Shm);
    rig.frame(0, DataMsg::End);
    let ended = TsError::Join("producer already ended".into());
    assert_eq!(rig.state.take_error(), Some(ended));

    // A WELCOME of another version: only `tag, token, version` is shared
    // across versions, and that head alone is the verdict — the body here
    // is nothing this build could decode.
    let mut rig = Rig::new(opts());
    let mut frame = vec![5u8];
    frame.extend_from_slice(&ID.to_le_bytes());
    frame.extend_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
    frame.extend_from_slice(b"laid out like nothing this build knows");
    let frame = Bytes::from(frame);
    assert!(rig.step(Event::Frame { shard: 0, frame }).is_empty());
    let skew = HandshakeError::Version {
        ours: WIRE_VERSION,
        theirs: WIRE_VERSION + 1,
    };
    assert_eq!(rig.state.take_error(), Some(TsError::Handshake(skew)));
    // Somebody else's WELCOME (another token) is not ours to judge.
    let mut rig = Rig::new(opts());
    let theirs = DataMsg::Welcome {
        token: ID + 1,
        info: welcome(3, false),
    };
    assert!(rig.frame(0, theirs).is_empty());
    assert_eq!(rig.state.stopped, None);
}

#[test]
fn broadcasts_before_the_welcome_are_dropped_unread() {
    // Shard 0's topics are subscribed to with the WELCOME's, so what the
    // producer broadcasts reaches a consumer still saying HELLO: an `End`
    // or a cursor moves nothing until the WELCOME came.
    let mut rig = Rig::new(opts());
    let cursor = DataMsg::Cursor {
        shard: 0,
        epoch: 0,
        seq: 5,
        index_in_epoch: 5,
    };
    for msg in [DataMsg::End, cursor] {
        assert!(rig.frame(0, msg).is_empty());
    }
    assert_eq!(rig.state.stopped, None);
    assert_eq!(rig.state.latest_cursor(0), None);
    rig.negotiate(welcome(1, false), PayloadMode::Shm);
    assert!(rig.admit(0, 0, 0).len() >= 2);
}

#[test]
fn hello_is_said_again_until_the_welcome_and_gives_up_at_the_handshake_timeout() {
    let mut rig = Rig::new(opts().handshake_timeout(Duration::from_millis(120)));
    assert_eq!(rig.state.deadline(), 50 * MS, "the resend, not the limit");
    let out = rig.tick_after(50 * MS);
    assert!(
        matches!(&out[..], [Out::Ctrl(0, CtrlMsg::Hello { token: ID, .. })]),
        "{out:?}"
    );
    assert_eq!(rig.tick_after(50 * MS).len(), 1);
    assert_eq!(
        rig.state.deadline(),
        120 * MS,
        "the limit is fixed from start"
    );
    rig.tick_after(20 * MS);
    let late = TsError::Timeout("handshake WELCOME");
    assert_eq!(rig.state.take_error(), Some(late));
    // A socket that closes instead is the producer going away.
    let mut rig = Rig::new(opts());
    rig.step(Event::Closed { shard: 0 });
    let gone = TsError::Socket("producer disconnected".into());
    assert_eq!(rig.state.take_error(), Some(gone));
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    rig.step(Event::Closed { shard: 0 });
    assert_eq!(rig.state.stopped, Some(StopReason::ProducerGone));
}

#[test]
fn log_info_rewinds_the_cursor_before_the_first_delivery() {
    let mut rig = Rig::new(opts().group("g"));
    rig.negotiate(welcome(1, true), PayloadMode::Shm);
    // Admitted live at seq 6; the Replay goes out with the READY.
    let out = rig.admit(0, 0, 6);
    assert_eq!(out[2..], [Out::Ctrl(0, replay())]);
    assert!(!rig.state.attached, "the splice point is not settled");
    // Silence: the request is repeated every 50 ms.
    assert_eq!(rig.tick_after(50 * MS), [Out::Ctrl(0, replay())]);
    assert!(rig.frame(0, log_info(2, 6)).is_empty());
    assert!(rig.state.attached);
    assert!(
        rig.tick_after(50 * MS).is_empty(),
        "answered: no more asking"
    );
    // Delivery starts at the replay start, not at the admission point.
    for seq in 2..8 {
        rig.frame(0, streamed(seq));
        assert_eq!(rig.take_all(), [(0, seq, 0)]);
        assert_eq!(rig.step(Event::Next), [Out::Ctrl(0, ack(seq))]);
    }
    // A group name without a log in the WELCOME is inert.
    let mut rig = Rig::new(opts().group("g"));
    rig.negotiate(welcome(1, false), PayloadMode::Shm);
    assert_eq!(rig.admit(0, 0, 6).len(), 2, "no Replay");
    assert!(rig.state.attached);
}

#[test]
fn a_parked_member_splices_at_once_and_is_admitted_where_the_splice_ends() {
    let parked = || {
        let mut rig = Rig::new(opts().group("g"));
        rig.negotiate(welcome(1, true), PayloadMode::Shm);
        // Told to wait: the Replay goes out at once, and again until
        // answered.
        let out = rig.frame(0, join_reply(JoinDecision::WaitEpoch { epoch: 1 }));
        assert_eq!(out, [Out::Ctrl(0, replay())]);
        assert_eq!(rig.tick_after(50 * MS), [Out::Ctrl(0, replay())]);
        // The history up to epoch 1: settled, delivering, still parked.
        assert!(rig.frame(0, log_info(2, 8)).is_empty());
        assert!(rig.state.attached);
        assert_eq!(rig.state.joined_epoch, 1);
        assert!(rig.tick_after(50 * MS).is_empty(), "answered");
        rig
    };
    let mut rig = parked();
    for seq in 2..8 {
        rig.frame(0, streamed(seq));
        assert_eq!(rig.take_all(), [(0, seq, 0)]);
        assert_eq!(rig.step(Event::Next), [Out::Ctrl(0, ack(seq))]);
    }
    // The boundary admits it where the splice ended: READY, and the
    // cursor stays; a re-sent admission is a duplicate.
    assert_eq!(rig.admit(0, 1, 8).len(), 2);
    assert_eq!(rig.state.shards[0].next_expected, 8);
    let again = JoinDecision::AdmitReplay {
        epoch: 1,
        replay_from: 0,
        num_batches: 8,
        start_seq: 8,
    };
    assert!(rig.frame(0, join_reply(again)).is_empty());
    assert_eq!(rig.state.stopped, None);
    // Anywhere else would skip or repeat a batch: a stop, not a gap.
    let mut rig = parked();
    rig.admit(0, 1, 9);
    assert_eq!(rig.state.stopped, Some(StopReason::Protocol));
    assert!(matches!(rig.state.take_error(), Some(TsError::Join(_))));
    assert_eq!(
        rig.ctx.metrics.counter("consumer.splices_live_only").get(),
        0
    );
}

#[test]
fn frames_overtaking_log_info_are_delivered_once_in_order_and_counted_as_buffered() {
    let mut rig = Rig::new(opts().group("g"));
    rig.negotiate(welcome(1, true), PayloadMode::Shm);
    rig.admit(0, 0, 3);
    // The producer streams right behind its answer, and a live frame can
    // be ahead of both: 1, live 3, 0 all land before the LogInfo.
    for seq in [1, 3, 0] {
        assert!(rig.frame(0, streamed(seq)).is_empty());
    }
    assert_eq!(rig.state.buffered(), 3, "held for the splice, and counted");
    assert!(rig.take_all().is_empty(), "nothing is delivered unsettled");
    rig.frame(0, log_info(0, 3));
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
    assert_eq!(rig.state.buffered(), 2);
    assert_eq!(rig.next().1, [(0, 1, 0)]);
    assert!(rig.next().1.is_empty(), "2 has not arrived");
    rig.frame(0, streamed(2));
    assert_eq!(rig.take_all(), [(0, 2, 0)]);
    // The live copy of 3 was buffered once; a second copy changes nothing.
    rig.frame(0, streamed(3));
    assert_eq!(rig.next().1, [(0, 3, 0)]);
    assert_eq!(rig.state.buffered(), 0);
    assert_eq!(rig.state.batches_consumed, 4);
}

#[test]
fn a_duplicate_of_a_replayed_seq_is_dropped() {
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    for seq in 0..3 {
        rig.frame(0, streamed(seq));
        assert_eq!(rig.take_all(), [(0, seq, 0)]);
        rig.step(Event::Next);
    }
    // The rubberband replay and the live stream overlap: 1 and 2 again.
    for seq in [1, 2] {
        assert!(rig.frame(0, streamed(seq)).is_empty());
        assert!(rig.take_all().is_empty());
        assert_eq!(rig.state.buffered(), 0, "dropped, not parked");
    }
    rig.frame(0, streamed(3));
    assert_eq!(rig.take_all(), [(0, 3, 0)]);
    assert_eq!(rig.ctx.metrics.counter("consumer.batches").get(), 4);
    assert_eq!(rig.ctx.metrics.counter("consumer.samples").get(), 16);
}

#[test]
fn a_stream_mode_consumer_ignores_pointer_frames_without_moving_its_cursor() {
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Stream);
    let ctx = rig.ctx.clone();
    // It shares the batch topic with the pointer subscribers: their
    // announce of seq 0 comes first, its own bytes behind.
    assert!(rig.frame(0, pointers(&ctx, 0)).is_empty());
    assert!(rig.take_all().is_empty());
    assert_eq!(rig.state.buffered(), 0);
    rig.frame(0, streamed(0));
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
    // A pointer consumer takes either kind: a logged replay is bytes.
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    let ctx = rig.ctx.clone();
    rig.frame(0, streamed(0));
    assert_eq!(rig.next().1, [(0, 0, 0)]);
    rig.frame(0, pointers(&ctx, 1));
    assert_eq!(rig.next().1, [(0, 1, 0)]);
}

#[test]
fn an_unknown_tag_is_counted_and_skipped_in_every_phase() {
    // Tag 99 does not exist in this build: a frame from a newer producer.
    let alien = || Event::Frame {
        shard: 0,
        frame: Bytes::from_static(&[99, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7]),
    };
    let mut rig = Rig::new(opts().group("g"));
    let unknown = rig.ctx.metrics.counter("consumer.data_unknown");
    rig.negotiate(welcome(1, true), PayloadMode::Shm);
    assert!(rig.step(alien()).is_empty(), "joining");
    rig.frame(0, join_reply(JoinDecision::WaitEpoch { epoch: 1 }));
    assert!(rig.step(alien()).is_empty(), "parked");
    rig.admit(0, 1, 8);
    assert!(rig.step(alien()).is_empty(), "splicing");
    rig.frame(0, log_info(8, 8));
    assert!(rig.step(alien()).is_empty(), "live");
    assert_eq!(unknown.get(), 4);
    assert_eq!(rig.state.stopped, None);
    // So is a frame that does not decode at all.
    let frame = Bytes::from_static(&[1, 2]);
    assert!(rig.step(Event::Frame { shard: 0, frame }).is_empty());
    assert_eq!((unknown.get(), rig.state.stopped), (4, None));
    rig.frame(0, DataMsg::End);
    rig.step(Event::Next);
    assert_eq!(rig.state.stopped, Some(StopReason::End));
    assert_eq!(rig.state.take_error(), None, "a clean end is no error");
}

#[test]
fn a_dangling_batch_is_skipped_counted_and_acked_like_a_delivered_one() {
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    let ctx = rig.ctx.clone();
    rig.frame(0, pointers(&ctx, 0));
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
    // The producer aborts: seq 1's memory is released with its announce
    // still in flight. Nothing can be rebuilt from it — but the producer
    // published it to this consumer and waits for the ack.
    let stale = pointers(&ctx, 1);
    let DataMsg::Batch(a) = &stale else {
        unreachable!()
    };
    let AnnounceContent::Shared { labels, .. } = &a.content else {
        unreachable!()
    };
    ctx.registry.release(labels.storage_id);
    assert!(rig.frame(0, stale).is_empty(), "0 is still in hand");
    let (out, got) = rig.next();
    assert_eq!(out, [Out::Ctrl(0, ack(0)), Out::Ctrl(0, ack(1))]);
    assert!(got.is_empty());
    assert_eq!(ctx.metrics.counter("consumer.dangling_skipped").get(), 1);
    assert_eq!(ctx.metrics.counter("consumer.acks").get(), 2);
    assert_eq!(rig.state.stopped, None, "not fatal");
    // The cursor moved past it: 2 is delivered, the End still ends.
    rig.frame(0, pointers(&ctx, 2));
    assert_eq!(rig.take_all(), [(0, 2, 0)]);
    rig.frame(0, DataMsg::End);
    assert_eq!(rig.next().0, [Out::Ctrl(0, ack(2))]);
    assert_eq!(rig.state.stopped, Some(StopReason::End));
}

#[test]
fn detached_ends_the_stream_with_its_error() {
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    rig.frame(0, streamed(0));
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
    // Somebody else's detach notice is on the same broadcast topic.
    let other = DataMsg::Detached {
        consumer_id: ID + 1,
    };
    rig.frame(0, other);
    assert_eq!(rig.state.stopped, None);
    rig.frame(0, DataMsg::Detached { consumer_id: ID });
    assert_eq!(rig.state.stopped, Some(StopReason::Detached));
    assert_eq!(rig.state.take_error(), Some(TsError::Detached));
    assert_eq!(rig.state.take_error(), None, "reported once");
    // The batch in hand is still acked, and the shards still told.
    let leave = CtrlMsg::Leave { consumer_id: ID };
    let expect = [Out::Ctrl(0, ack(0)), Out::Ctrl(0, leave)];
    assert_eq!(rig.step(Event::Leave), expect);
}

#[test]
fn positions_at_the_end_of_u64_are_a_protocol_error_not_a_panic() {
    // A cursor at u64::MAX is state: it must not overflow the lag gauge.
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Stream);
    let cursor = DataMsg::Cursor {
        shard: 0,
        epoch: u64::MAX,
        seq: u64::MAX,
        index_in_epoch: u64::MAX,
    };
    rig.frame(0, cursor);
    assert_eq!(rig.state.stopped, None);
    // A producer that admits at the last seq and announces it: there is
    // no next seq to expect, and nothing may overflow on the way there.
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(1, false), PayloadMode::Stream);
    rig.admit(0, 0, u64::MAX);
    let mut last = streamed(0);
    if let DataMsg::Batch(a) = &mut last {
        (a.seq, a.index_in_epoch) = (u64::MAX, u64::MAX);
    }
    rig.frame(0, last);
    assert_eq!(rig.state.stopped, Some(StopReason::Protocol));
    let overflow = TsError::Wire("a batch announced at seq u64::MAX".into());
    assert_eq!(rig.state.take_error(), Some(overflow));
    // ... and one that closes epoch u64::MAX: delivered, with no next
    // epoch to move the merge cursor to.
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(1, false), PayloadMode::Stream);
    let decision = JoinDecision::AdmitReplay {
        epoch: u64::MAX,
        replay_from: 0,
        num_batches: 1,
        start_seq: 0,
    };
    rig.frame(0, join_reply(decision));
    let mut last = streamed(0);
    if let DataMsg::Batch(a) = &mut last {
        (a.epoch, a.index_in_epoch, a.last_in_epoch) = (u64::MAX, 0, true);
    }
    rig.frame(0, last);
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
}

#[test]
fn a_starved_consumer_times_out_from_when_the_trainer_came_back() {
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    rig.frame(0, streamed(0));
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
    // The trainer holds the batch for two minutes: no receive, no tick.
    rig.now += 120 * SEC;
    rig.step(Event::Next);
    assert_eq!(rig.state.deadline(), rig.now + 30 * SEC);
    assert!(rig.tick_after(29 * SEC).is_empty());
    assert_eq!(rig.state.stopped, None);
    rig.tick_after(SEC);
    assert_eq!(rig.state.stopped, Some(StopReason::Timeout));
    let starved = TsError::Timeout("batch from producer");
    assert_eq!(rig.state.take_error(), Some(starved));
}

#[test]
fn shards_arriving_out_of_shard_order_deliver_in_epoch_index_shard_order() {
    // Shard 0 has three batches in the epoch, shard 1 two (an uneven
    // tail). Everything shard 1 ever says arrives first.
    let mut rig = Rig::attached(opts(), 2, PayloadMode::Shm);
    assert_eq!(rig.state.wants(), Some(0));
    let batch = |seq: u64, last: bool| {
        let DataMsg::Batch(a) = streamed(seq) else {
            unreachable!()
        };
        announce(seq, seq, last, a.content)
    };
    for msg in [batch(0, false), batch(1, true), DataMsg::End] {
        rig.frame(1, msg);
    }
    assert!(rig.take_all().is_empty(), "(0, 0, shard 0) goes first");
    assert_eq!(rig.state.buffered(), 2);
    // Shard 0's own frames are out of order too: 1 before 0.
    let mut got = Vec::new();
    for msg in [batch(1, false), batch(0, false), batch(2, true)] {
        rig.frame(0, msg);
        got.extend(rig.take_all());
        while rig.state.ready().is_some() || rig.state.buffered() > 0 {
            let more = rig.next().1;
            if more.is_empty() {
                break;
            }
            got.extend(more);
        }
    }
    assert_eq!(got, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0)]);
    assert_eq!(rig.next().0.len(), 1, "the trainer finishes the last one");
    assert_eq!(rig.ctx.metrics.counter("consumer.acks").get(), 5);
    // Shard 1 ended long ago, but only left the rotation once delivered;
    // the stream ends when shard 0 does too.
    assert_eq!((rig.state.wants(), rig.state.stopped), (Some(0), None));
    rig.frame(0, DataMsg::End);
    assert_eq!(rig.state.stopped, Some(StopReason::End));
}

#[test]
fn any_shard_can_end_the_stream_while_another_is_awaited() {
    // The shell waits on every link at once: shard 0 is awaited and silent,
    // and what shard 1 says reaches the state all the same. A `Detached`
    // ends the stream at once...
    let mut rig = Rig::attached(opts(), 2, PayloadMode::Shm);
    assert_eq!(rig.state.wants(), Some(0));
    rig.frame(1, DataMsg::Detached { consumer_id: ID });
    assert_eq!(rig.state.stopped, Some(StopReason::Detached));
    assert_eq!(rig.state.take_error(), Some(TsError::Detached));
    // ... and so does shard 1's socket closing under it,
    let mut rig = Rig::attached(opts(), 2, PayloadMode::Shm);
    rig.step(Event::Closed { shard: 1 });
    assert_eq!(rig.state.stopped, Some(StopReason::ProducerGone));
    // unless shard 1 ended first: all it sent was read before the close.
    let mut rig = Rig::attached(opts(), 2, PayloadMode::Shm);
    rig.frame(1, DataMsg::End);
    rig.step(Event::Closed { shard: 1 });
    assert_eq!((rig.state.wants(), rig.state.stopped), (Some(0), None));
    // What shard 1 says does not stand in for shard 0's silence.
    rig.now += 20 * SEC;
    let cursor = DataMsg::Cursor {
        shard: 1,
        epoch: 0,
        seq: 0,
        index_in_epoch: 0,
    };
    rig.frame(1, cursor);
    rig.tick_after(10 * SEC);
    let starved = TsError::Timeout("batch from producer");
    assert_eq!(rig.state.take_error(), Some(starved));
}

#[test]
fn a_flexible_announce_of_three_carved_batches_is_acked_once() {
    let mut rig = Rig::attached(opts().batch_size(4), 1, PayloadMode::Shm);
    let labels = labels(0);
    rig.ctx.registry.register(labels.storage());
    let carved = FlexBatchPayload {
        fields: vec![vec![TensorPayload::pack(&labels)]],
        labels: vec![TensorPayload::pack(&labels)],
    };
    let batches = vec![carved; 3];
    rig.frame(0, announce(0, 0, false, AnnounceContent::Flex { batches }));
    for sub_index in 0..3 {
        let b = rig.state.take(rig.now).expect("three carved batches");
        assert_eq!((b.seq, b.sub_index), (0, sub_index));
        let out = rig.step(Event::Next);
        match sub_index {
            2 => assert_eq!(out, [Out::Ctrl(0, ack(0))], "after the last one"),
            _ => assert!(out.is_empty(), "{out:?}"),
        }
    }
    assert_eq!(rig.state.batches_consumed, 3);
    assert_eq!(rig.ctx.metrics.counter("consumer.acks").get(), 1);
}

#[test]
fn three_shards_that_never_answer_replay_all_go_live_at_one_recv_timeout() {
    let mut rig = Rig::new(opts().group("g"));
    rig.negotiate(welcome(3, true), PayloadMode::Shm);
    assert_eq!(rig.admit(0, 0, 4).len(), 2, "not before everyone is in");
    assert_eq!(rig.admit(1, 0, 4).len(), 2);
    // The last admission sends every shard its Replay at once…
    let out = rig.admit(2, 0, 4);
    let asks: Vec<Out> = (0..3).map(|s| Out::Ctrl(s, replay())).collect();
    assert_eq!(out[2..], asks);
    let asked_at = rig.now;
    // …re-sent to all three while none answers (the log failed after the
    // WELCOME)…
    assert_eq!(rig.tick_after(50 * MS), asks);
    rig.now = asked_at + 30 * SEC - MS;
    rig.step(Event::Tick);
    assert!(!rig.state.attached);
    assert_eq!(rig.state.wants(), Some(0));
    // …and at ONE recv_timeout from that request all three give up, each
    // as the shell gets to its (empty) socket: live-only, not an error,
    // and not 3 × 30 s.
    rig.now = asked_at + 30 * SEC;
    for shard in 0..3 {
        assert_eq!(rig.state.wants(), Some(shard));
        assert!(rig.state.deadline() <= rig.now);
        assert!(rig.step(Event::Tick).is_empty());
    }
    assert!(rig.state.attached);
    assert!(rig.now < asked_at + 30 * SEC + MS);
    assert_eq!(rig.state.take_error(), None);
    let live_only = rig.ctx.metrics.counter("consumer.splices_live_only");
    assert_eq!(live_only.get(), 3, "each skipped history is counted");
    // Live-only means from the admission point: 4 is next on every shard.
    rig.frame(0, streamed(4));
    assert_eq!(rig.take_all(), [(0, 4, 0)]);
    // A shard whose answer WAS waiting in its socket is still honoured.
    let mut rig = Rig::new(opts().group("g"));
    rig.negotiate(welcome(2, true), PayloadMode::Shm);
    rig.admit(0, 0, 4);
    rig.admit(1, 0, 4);
    rig.tick_after(30 * SEC);
    assert_eq!(rig.state.wants(), Some(1), "shard 0 gave up");
    rig.frame(1, log_info(1, 4));
    assert!(rig.state.attached);
    assert_eq!(rig.state.wants(), Some(1), "index 1 comes before index 4");
    rig.frame(1, streamed(1));
    assert_eq!(rig.take_all(), [(1, 1, 0)], "rewound to its replay start");
}

#[test]
fn leave_acks_the_batch_in_hand_and_tells_every_shard() {
    let mut rig = Rig::attached(opts(), 2, PayloadMode::Shm);
    rig.frame(0, streamed(0));
    assert_eq!(rig.take_all(), [(0, 0, 0)]);
    let leave = CtrlMsg::Leave { consumer_id: ID };
    let expect = [
        Out::Ctrl(0, ack(0)),
        Out::Ctrl(0, leave.clone()),
        Out::Ctrl(1, leave),
    ];
    assert_eq!(rig.step(Event::Leave), expect);
}

#[test]
fn a_joiner_that_gives_up_tells_every_shard_it_sent_a_join() {
    // ROADMAP 9c. A shard may have parked this consumer, or admitted it —
    // and then halts everyone's publishing until its READY — while another
    // shard's reply never came: whatever ends the attach, each of them
    // must hear LEAVE, not find out a heartbeat timeout later.
    let leave = |shards: usize| -> Vec<Out> {
        let msg = CtrlMsg::Leave { consumer_id: ID };
        (0..shards).map(|s| Out::Ctrl(s, msg.clone())).collect()
    };
    // Before the WELCOME no JOIN is out: nobody to tell.
    let mut rig = Rig::new(opts());
    assert!(rig.step(Event::Leave).is_empty());
    // Joining everywhere (dropped right after `negotiated`).
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(2, false), PayloadMode::Shm);
    assert_eq!(rig.step(Event::Leave), leave(2));
    // Admitted and READY on shard 0, parked on 1, no word from 2; the
    // join reply times out.
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(3, false), PayloadMode::Shm);
    rig.admit(0, 0, 0);
    rig.frame(1, join_reply(JoinDecision::WaitEpoch { epoch: 1 }));
    rig.tick_after(30 * SEC);
    assert_eq!(rig.state.stopped, Some(StopReason::Timeout));
    assert!(!rig.state.attached);
    assert_eq!(rig.step(Event::Leave), leave(3));
    // One shard rejects what the other admitted.
    let mut rig = Rig::new(opts());
    rig.negotiate(welcome(2, false), PayloadMode::Shm);
    rig.admit(0, 0, 0);
    let reason = "flexible producers serve shm payloads only".to_string();
    rig.frame(1, join_reply(JoinDecision::Reject { reason }));
    assert!(rig.state.take_error().is_some());
    assert_eq!(rig.step(Event::Leave), leave(2));
    // Splicing (admitted, the logged range not settled) when dropped.
    let mut rig = Rig::new(opts().group("g"));
    rig.negotiate(welcome(1, true), PayloadMode::Shm);
    rig.admit(0, 0, 6);
    assert!(!rig.state.attached);
    assert_eq!(rig.step(Event::Leave), leave(1));
}

#[test]
fn the_cursor_channel_is_state_and_never_moves_delivery() {
    let mut rig = Rig::attached(opts(), 2, PayloadMode::Shm);
    let cursor = |shard, seq| DataMsg::Cursor {
        shard,
        epoch: 0,
        seq,
        index_in_epoch: seq,
    };
    assert_eq!(rig.state.latest_cursor(1), None);
    // Shard 1's position heard on shard 0's link is still shard 1's.
    rig.frame(0, cursor(1, 5));
    rig.frame(0, cursor(1, 9));
    assert_eq!(rig.state.latest_cursor(1), Some((0, 9, 9)));
    assert_eq!(rig.state.latest_cursor(0), None);
    assert_eq!(rig.ctx.metrics.gauge("consumer.cursor_lag").get(), 10.0);
    rig.frame(0, cursor(7, 1)); // a shard this consumer does not have
    rig.frame(0, streamed(0));
    assert_eq!(
        rig.take_all(),
        [(0, 0, 0)],
        "delivery starts at 0 regardless"
    );
}

// -- both ends, back to back ----------------------------------------------

/// One consumer on the other end of the producers' effects: its state,
/// what each shard's SUB socket would let through, and what its trainer
/// received.
struct Peer {
    state: ConsumerState,
    mode: PayloadMode,
    topics: Vec<(usize, Vec<u8>)>,
    /// `(epoch, shard, index_in_epoch, field bytes, labels)` per batch, in
    /// order.
    got: Vec<Row>,
    /// The last seq this consumer acked, per shard.
    acked: Vec<(usize, u64)>,
}

type Row = (u64, usize, u64, Vec<u8>, Vec<i64>);

/// Producer `State`s — one, or the shards of a group, stepped through the
/// group step on one thread as the pump steps them — and their consumers
/// with the wires replaced by a queue: a shard's `Effect::Send` goes to every peer subscribed there to a
/// prefix of the topic as `Event::Frame`, `Effect::Ctrl` goes back to its
/// shard as `Event::Ctrl`, and with a log bound `Effect::Spill` is appended
/// on the spot and its `Event::Logged` queued. Delivery is first in, first
/// out, except for what the script holds back (`hold`, `release`); time is
/// `now`, which only the script and the deliveries (10 µs each) move.
struct World {
    ctx: TsContext,
    shards: Vec<State>,
    peers: Vec<Peer>,
    now: u64,
    /// Per shard: it said `Effect::Finish`.
    finished: Vec<bool>,
    /// Frames this matches are kept off the wire, in `held`.
    hold: fn(&Wire) -> bool,
    held: VecDeque<Wire>,
}

enum Wire {
    Down {
        peer: usize,
        shard: usize,
        frame: Bytes,
    },
    Up {
        shard: usize,
        msg: CtrlMsg,
    },
    /// The spiller's progress, back to its shard.
    Logged {
        shard: usize,
        up_to: u64,
    },
}

impl World {
    /// `shards` producer pipelines over loaders of `per_epoch` batches of
    /// four samples, started and through the first barrier.
    fn new(config: ProducerConfig, shards: usize, per_epoch: u64) -> Self {
        Self::in_ctx(TsContext::host_only(), config, shards, per_epoch)
    }

    /// [`World::new`] in `ctx` (an arena may be bound to it), each shard
    /// opening its log when `config` names one.
    fn in_ctx(ctx: TsContext, config: ProducerConfig, shards: usize, per_epoch: u64) -> Self {
        let group = shards as u32;
        let state = |shard| {
            let config = config.clone();
            let shard_ns = (group > 1).then_some(shard);
            let log = (config.log.as_ref())
                .map(|l| TensorProducer::open_log(&ctx, l, shard_ns, shard).unwrap());
            State::new(&ctx, config, (shard, group), log, (per_epoch, 4), 0)
        };
        let mut world = World {
            shards: (0..shards as u32).map(state).collect(),
            ctx,
            peers: Vec::new(),
            now: 0,
            finished: vec![false; shards],
            hold: |_| false,
            held: VecDeque::new(),
        };
        let mut fx: Vec<Vec<state::Effect>> = (0..shards).map(|_| Vec::new()).collect();
        group::start(&mut world.shards, 0, &mut fx);
        assert!(
            fx.iter().all(Vec::is_empty),
            "nothing to say before anyone joined"
        );
        assert!(world.shards.iter().all(|s| s.wait() == Wait::Consumers));
        world
    }

    fn join(&mut self, id: u64, mode: PayloadMode) {
        self.join_with(id, mode, Consumer::builder().payload_mode(mode));
    }

    fn join_with(&mut self, id: u64, mode: PayloadMode, opts: ConsumerBuilder) {
        let mut fx = Vec::new();
        let mut state = ConsumerState::new(&self.ctx, &opts, id, &mut fx);
        state.start(self.now, opts.handshake_timeout, &mut fx);
        self.peers.push(Peer {
            state,
            mode,
            topics: Vec::new(),
            got: Vec::new(),
            acked: Vec::new(),
        });
        let peer = self.peers.len() - 1;
        let mut wire = VecDeque::new();
        self.consumer_did(peer, fx, &mut wire);
        self.run(wire);
    }

    /// Consumer `peer` goes away, as a dropped `Consumer` does.
    fn leave(&mut self, peer: usize) {
        let mut fx = Vec::new();
        self.peers[peer].state.step(self.now, Event::Leave, &mut fx);
        let mut wire = VecDeque::new();
        self.consumer_did(peer, fx, &mut wire);
        self.run(wire);
    }

    /// Executes consumer `peer`'s effects the way the shell would, then
    /// plays its trainer: take what is ready, finish it at once.
    fn consumer_did(&mut self, peer: usize, mut fx: Vec<Effect>, wire: &mut VecDeque<Wire>) {
        let now = self.now;
        let p = &mut self.peers[peer];
        loop {
            for effect in std::mem::take(&mut fx) {
                match effect {
                    Effect::Ctrl { shard, msg } => {
                        if let CtrlMsg::Ack { consumer_id, seq } = msg {
                            // The producer reads acks as cumulative: a
                            // consumer's acks on a shard never go back.
                            match p.acked.iter_mut().find(|(at, _)| *at == shard) {
                                Some((_, last)) => {
                                    assert!(
                                        seq >= *last,
                                        "consumer {consumer_id} acked {seq} after {last} on shard {shard}"
                                    );
                                    *last = seq;
                                }
                                None => p.acked.push((shard, seq)),
                            }
                        }
                        wire.push_back(Wire::Up { shard, msg })
                    }
                    Effect::Subscribe { shard, topic } => p.topics.push((shard, topic)),
                    Effect::Unsubscribe { shard, topic } => {
                        p.topics.retain(|t| *t != (shard, topic.clone()))
                    }
                    Effect::Negotiate(welcome) => {
                        assert_ne!(welcome.payload_modes & p.mode.cap_bit(), 0);
                        p.state.negotiated(now, &welcome, p.mode, &mut fx);
                    }
                }
            }
            if fx.is_empty() {
                let Some(b) = p.state.take(now) else {
                    return;
                };
                let bytes = b.fields[0].gather_bytes();
                let labels = b.labels.to_vec_i64().unwrap();
                p.got
                    .push((b.epoch, b.shard, b.index_in_epoch, bytes, labels));
                p.state.step(now, Event::Next, &mut fx);
            }
        }
    }

    fn producer_did(&mut self, shard: usize, fx: Vec<state::Effect>, wire: &mut VecDeque<Wire>) {
        for effect in fx {
            match effect {
                state::Effect::Send { topic, frame } => {
                    let frame = frame.into_contiguous().frames()[0].clone();
                    for (peer, p) in self.peers.iter().enumerate() {
                        let mut topics = p.topics.iter().filter(|(at, _)| *at == shard);
                        if topics.any(|(_, prefix)| topic.starts_with(prefix)) {
                            let frame = frame.clone();
                            wire.push_back(Wire::Down { peer, shard, frame });
                        }
                    }
                }
                state::Effect::Spill(m) => {
                    let log = self.shards[shard].log().expect("a log is bound");
                    let errors = self.ctx.metrics.counter("log.append_errors");
                    assert!(spill_one(&log, &m, self.shards[shard].stage(), &errors));
                    let up_to = m.seq + 1;
                    wire.push_back(Wire::Logged { shard, up_to });
                }
                state::Effect::Finish => self.finished[shard] = true,
            }
        }
    }

    /// Delivers until every wire is quiet.
    fn run(&mut self, mut wire: VecDeque<Wire>) {
        while let Some(w) = wire.pop_front() {
            if (self.hold)(&w) {
                self.held.push_back(w);
                continue;
            }
            self.now += 10_000;
            match w {
                Wire::Down { peer, shard, frame } => {
                    let mut fx = Vec::new();
                    let ev = Event::Frame { shard, frame };
                    self.peers[peer].state.step(self.now, ev, &mut fx);
                    self.consumer_did(peer, fx, &mut wire);
                }
                Wire::Up { shard, msg } => {
                    self.produce(shard, state::Event::Ctrl(msg.encode()), &mut wire)
                }
                Wire::Logged { shard, up_to } => {
                    let failed = false;
                    self.produce(shard, state::Event::Logged { up_to, failed }, &mut wire)
                }
            }
        }
    }

    /// What was held back goes on the wire, in the order it was sent.
    fn release(&mut self) {
        self.hold = |_| false;
        let held = std::mem::take(&mut self.held);
        self.run(held);
    }

    /// One group step for `shard`; every shard's effects go on the wire.
    fn produce(&mut self, shard: usize, ev: state::Event, wire: &mut VecDeque<Wire>) {
        let mut fx: Vec<Vec<state::Effect>> = self.shards.iter().map(|_| Vec::new()).collect();
        group::step(&mut self.shards, shard, self.now, ev, &mut fx);
        for (shard, fx) in fx.into_iter().enumerate() {
            self.producer_did(shard, fx, wire);
        }
    }

    /// One event for producer shard `shard`, and everything that follows
    /// from it.
    fn step(&mut self, shard: usize, ev: state::Event) {
        let mut wire = VecDeque::new();
        self.now += 10_000;
        self.produce(shard, ev, &mut wire);
        self.run(wire);
        // A catch-up moves a frame per step while its window has room.
        while let Some(busy) = self.shards.iter().position(State::busy) {
            self.step(busy, state::Event::Tick);
        }
    }

    /// Publishes loader batch `index` of `total` on each shard of `on`;
    /// returns what went in, for the reference.
    fn publish(
        &mut self,
        prep: &mut [Preparer],
        on: &[usize],
        epoch: u64,
        index: usize,
        total: usize,
    ) -> Vec<Row> {
        let mut rows = Vec::new();
        for &shard in on {
            let b = loader_batch(epoch, shard, index, total);
            let bytes = b.fields[0].gather_bytes();
            let labels = b.labels.to_vec_i64().unwrap();
            rows.push((epoch, shard, index as u64, bytes, labels));
            let last = b.last_in_epoch;
            let mut never = || panic!("the arena ran dry");
            let item = prep[shard].push(b, last, &mut never).unwrap().unwrap();
            assert!(
                self.shards[shard].wants_item(),
                "shard {shard} epoch {epoch} batch {index}"
            );
            self.step(shard, state::Event::Prepared(FeederMsg::Item(item)));
        }
        rows
    }

    /// The feeders are through `epoch`; the barrier opens in the step of
    /// the last shard to say so.
    fn end_epoch(&mut self, epoch: u64) {
        for shard in 0..self.shards.len() {
            self.step(shard, state::Event::Prepared(FeederMsg::EpochDone(epoch)));
        }
    }

    /// Closes every shard and checks each peer saw exactly `reference`.
    fn finish(mut self, reference: &[Row], names: &[&str]) {
        assert!(
            self.finished.iter().all(|done| *done),
            "nothing left to drain"
        );
        for shard in 0..self.shards.len() {
            let mut fx = Vec::new();
            self.shards[shard].close(self.now, &mut fx);
            let mut wire = VecDeque::new();
            self.producer_did(shard, fx, &mut wire);
            self.run(wire);
        }
        for (p, name) in self.peers.iter().zip(names) {
            // Exactly once, in order, bit-identical: one comparison says
            // all three, against what the loaders produced.
            assert_eq!(p.got.len(), reference.len(), "{name}");
            assert!(p.got == reference, "{name} saw another stream");
            assert_eq!(p.state.stopped, Some(StopReason::End), "{name}");
            assert_eq!(p.state.buffered(), 0, "{name}");
        }
        let metrics = &self.ctx.metrics;
        assert_eq!(metrics.counter("consumer.dangling_skipped").get(), 0);
        assert!(self.ctx.registry.is_empty(), "every batch was released");
    }
}

/// Loader batch `index` of `total` in `epoch` on `shard`: four samples, one
/// f32 field whose bytes name the epoch, the shard and the sample.
fn loader_batch(epoch: u64, shard: usize, index: usize, total: usize) -> Batch {
    let base = (epoch as i64) * 1_000 + (shard as i64) * 100 + (index * 4) as i64;
    let labels: Vec<i64> = (base..base + 4).collect();
    let field: Vec<f32> = labels
        .iter()
        .flat_map(|&l| [l as f32, -(l as f32)])
        .collect();
    Batch {
        epoch,
        index,
        fields: vec![Tensor::from_f32(&field, &[4, 2], DeviceId::Cpu).unwrap()],
        labels: Tensor::from_i64(&labels, &[4], DeviceId::Cpu).unwrap(),
        sample_indices: (index * 4..index * 4 + 4).collect(),
        last_in_epoch: index + 1 == total,
    }
}

fn world_cfg(epochs: u64) -> ProducerConfig {
    ProducerConfig {
        epochs,
        rubberband_cutoff: 1.0,
        heartbeat_timeout: Duration::from_millis(500),
        ..Default::default()
    }
}

#[test]
fn both_ends_back_to_back_deliver_two_epochs_exactly_once_in_order_bit_identical() {
    const PER_EPOCH: usize = 8;
    let config = ProducerConfig {
        epochs: 2,
        rubberband_cutoff: 0.5,
        ..Default::default()
    };
    let mut prep = [Preparer::new(&config, None)];
    let mut world = World::new(config, 1, PER_EPOCH as u64);
    // A pointer consumer and a byte consumer from the start…
    world.join(1, PayloadMode::Shm);
    world.join(2, PayloadMode::Stream);
    assert!(world.peers.iter().all(|p| p.state.attached));
    let mut reference = Vec::new();
    for epoch in 0..2u64 {
        for index in 0..PER_EPOCH {
            if (epoch, index) == (0, 3) {
                // …and a rubberband joiner three batches into epoch 0:
                // inside the join window, so it is replayed the prefix
                // while the others (and the next batch) wait.
                world.join(3, PayloadMode::Shm);
                assert!(world.peers[2].state.attached);
                assert_eq!(world.peers[2].got.len(), 3, "caught up from the pins");
            }
            reference.extend(world.publish(&mut prep, &[0], epoch, index, PER_EPOCH));
        }
        world.end_epoch(epoch);
    }
    assert_eq!(world.shards[0].stats.batches_published, 16);
    assert_eq!(world.shards[0].stats.batches_replayed, 3);
    let strays = world.ctx.metrics.counter("producer.ctrl_unknown_consumer");
    assert_eq!(strays.get(), 0);
    world.finish(&reference, &["shm", "stream", "joiner"]);
}

#[test]
fn a_joiner_admitted_and_gone_before_ready_frees_the_others_in_the_step_its_leave_lands() {
    // ROADMAP 9c. B's JOIN is admitted — which halts A's stream until B
    // says READY — and B gives up before the reply reaches it (a timeout
    // on another shard, a dropped builder result). It was never attached,
    // so it used to say nothing, and A stood still for a heartbeat timeout.
    let config = world_cfg(1);
    let mut prep = [Preparer::new(&config, None)];
    let mut world = World::new(config, 1, 4);
    world.join(1, PayloadMode::Shm);
    let mut reference = world.publish(&mut prep, &[0], 0, 0, 4);
    world.hold = |w| {
        let Wire::Down { frame, .. } = w else {
            return false;
        };
        let reply = DataMsg::decode_shared(frame);
        matches!(reply, Ok(DataMsg::JoinReply { consumer_id: 2, .. }))
    };
    world.join(2, PayloadMode::Shm);
    assert_eq!(world.held.len(), 1, "the admission is on its way to B");
    reference.extend(world.publish(&mut prep, &[0], 0, 1, 4));
    assert_eq!(world.shards[0].wait(), Wait::Window, "halted for B's READY");
    assert_eq!(world.peers[0].got.len(), 1);
    let before = world.now;
    world.leave(1);
    assert_eq!(world.peers[0].got.len(), 2, "it went out with the LEAVE");
    assert!(world.now - before < MS, "not a heartbeat timeout later");
    world.held.clear(); // nobody is there to read the reply
    world.peers.pop();
    for index in 2..4 {
        reference.extend(world.publish(&mut prep, &[0], 0, index, 4));
    }
    world.end_epoch(0);
    world.finish(&reference, &["A"]);
}

#[test]
fn a_late_group_replays_the_log_through_arena_slots_exactly_once_bit_identical() {
    // The late member is parked past the join window and admitted at the
    // epoch 1 boundary; it is sent epoch 0 while it waits. Its frames out
    // of the log are copied into arena slots and announced as pointers,
    // which this in-process consumer resolves through the registry: none
    // dangles, every slot comes back.
    const PER_EPOCH: usize = 8;
    let tag = format!("{}-late-slots", std::process::id());
    let dir = std::env::temp_dir().join(format!("ts-world-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = TsContext::host_only();
    let arena_path = std::env::temp_dir().join(format!("ts-world-{tag}.arena"));
    ctx.create_arena(&arena_path, 32, 4096, &[32]).unwrap();
    let pool = ctx.registry.shard_slot_pool(0).unwrap();
    let config = ProducerConfig {
        rubberband_cutoff: 0.02,
        log: Some(ts_log::LogConfig::new(&dir)),
        ..world_cfg(2)
    };
    let mut prep = [Preparer::new(&config, ctx.registry.shard_slot_pool(0))];
    let mut world = World::in_ctx(ctx.clone(), config, 1, PER_EPOCH as u64);
    world.join(1, PayloadMode::Shm);
    let mut reference = Vec::new();
    for epoch in 0..2u64 {
        for index in 0..PER_EPOCH {
            if (epoch, index) == (0, 4) {
                let opts = Consumer::builder().group("late");
                world.join_with(2, PayloadMode::Shm, opts);
                assert!(world.peers[1].state.attached, "spliced while parked");
                assert_eq!(world.peers[1].got, reference, "what is out already");
            }
            reference.extend(world.publish(&mut prep, &[0], epoch, index, PER_EPOCH));
        }
        world.end_epoch(epoch);
        if epoch == 0 {
            assert_eq!(world.peers[1].got, reference, "epoch 0, out of the log");
        }
    }
    let counter = |name: &str| ctx.metrics.counter(name).get();
    assert_eq!(counter("replay.slot_frames"), PER_EPOCH as u64);
    assert_eq!(counter("replay.slot_fallbacks"), 0);
    assert_eq!(counter("replay.log_batches"), PER_EPOCH as u64);
    world.finish(&reference, &["witness", "late"]);
    assert_eq!(counter("consumer.dangling_skipped"), 0);
    pool.drain();
    assert_eq!(pool.arena().slots_in_use(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows in the order a consumer of every shard sees them: by epoch, then
/// index, then shard.
fn interleaved(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| (r.0, r.2, r.1));
    rows
}

// -- a parked member's lane -----------------------------------------------

/// Batches per epoch of the lane scripts.
const LANE_EPOCH: usize = 8;

/// The shards of a logging producer over an arena with a slot pool each,
/// epochs of [`LANE_EPOCH`] batches past a one-batch join window, and a
/// witness (peer 0, consumer 1) attached from the start.
struct Lane {
    world: World,
    prep: Vec<Preparer>,
    on: Vec<usize>,
    dir: std::path::PathBuf,
    arena: std::path::PathBuf,
}

impl Lane {
    fn new(tag: &str, shards: usize, epochs: u64) -> Self {
        let tag = format!("{}-lane-{tag}-{shards}", std::process::id());
        let dir = std::env::temp_dir().join(format!("ts-world-{tag}"));
        let arena = std::env::temp_dir().join(format!("ts-world-{tag}.arena"));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = TsContext::host_only();
        ctx.create_arena(&arena, 32 * shards, 4096, &vec![32; shards])
            .unwrap();
        let config = ProducerConfig {
            rubberband_cutoff: 0.02,
            log: Some(ts_log::LogConfig::new(&dir)),
            ..world_cfg(epochs)
        };
        let pool = |s: usize| ctx.registry.shard_slot_pool(s as u32);
        let prep = (0..shards)
            .map(|s| Preparer::new(&config, pool(s)))
            .collect();
        let mut world = World::in_ctx(ctx, config, shards, LANE_EPOCH as u64);
        world.join(1, PayloadMode::Shm);
        Lane {
            world,
            prep,
            on: (0..shards).collect(),
            dir,
            arena,
        }
    }

    /// Loader batch `index` of `epoch` on every shard.
    fn publish(&mut self, epoch: u64, index: usize) -> Vec<Row> {
        let on = &self.on;
        self.world
            .publish(&mut self.prep, on, epoch, index, LANE_EPOCH)
    }

    /// A member of group "late" (peer 1, consumer 2) joins past the join
    /// window, and every catch-up frame the windows let out goes.
    fn join_late(&mut self) {
        let opts = Consumer::builder().group("late");
        self.world.join_with(2, PayloadMode::Shm, opts);
        self.world.step(0, state::Event::Tick);
    }

    /// `stage.[s<N>.]slots_live` of every shard.
    fn slots_live(&self) -> Vec<f64> {
        let metrics = &self.world.ctx.metrics;
        let name = |s: usize| match self.on.len() {
            1 => "stage.slots_live".to_string(),
            _ => format!("stage.s{s}.slots_live"),
        };
        self.on
            .iter()
            .map(|&s| metrics.gauge(&name(s)).get())
            .collect()
    }

    /// Every shard's ack cursors belong to `ids`.
    fn assert_cursor_holders(&self, ids: &[u64]) {
        for shard in &self.world.shards {
            let mut holders = shard.cursor_holders();
            holders.sort_unstable();
            assert_eq!(holders, ids);
        }
    }

    /// [`World::finish`], then no ack was refused and every slot is free.
    fn finish(self, reference: &[Row], names: &[&str]) {
        let ctx = self.world.ctx.clone();
        self.world.finish(reference, names);
        assert_eq!(ctx.metrics.counter("producer.acks_refused").get(), 0);
        assert_eq!(ctx.metrics.counter("consumer.splices_live_only").get(), 0);
        for &s in &self.on {
            ctx.registry.shard_slot_pool(s as u32).unwrap().drain();
        }
        assert_eq!(ctx.arena().unwrap().slots_in_use(), 0);
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_file(&self.arena);
    }
}

fn a_parked_member_is_sent_its_history_while_the_others_train(shards: usize) {
    let mut lane = Lane::new("history", shards, 2);
    let mut rows = Vec::new();
    for index in 0..4 {
        rows.extend(lane.publish(0, index));
    }
    // Past the join window: parked until epoch 1, spliced at once.
    lane.join_late();
    let late = &lane.world.peers[1].state;
    assert!(late.attached, "spliced while parked");
    assert_eq!(late.joined_epoch, 1);
    for s in &late.shards {
        assert_eq!(s.promised, Some(LANE_EPOCH as u64), "epoch 1's first seq");
    }
    assert_eq!(lane.world.peers[1].got, interleaved(rows.clone()));
    // Its frames stay on the wire from here: its lane waits for its acks,
    // and the witness trains on.
    lane.world.hold = |w| matches!(w, Wire::Down { peer: 1, .. });
    for index in 4..LANE_EPOCH {
        rows.extend(lane.publish(0, index));
        let witness = &lane.world.peers[0];
        assert_eq!(witness.got.len(), (index + 1) * shards, "not halted");
    }
    assert_eq!(lane.world.peers[1].got.len(), 4 * shards);
    // The boundary admits it where its `LogInfo` said: the rest of its
    // history, then the admission, which moves no cursor.
    lane.world.end_epoch(0);
    lane.world.release();
    let late = &lane.world.peers[1];
    assert_eq!(late.got, interleaved(rows.clone()));
    assert!(late.state.shards.iter().all(|s| s.promised.is_none()));
    assert_eq!(late.state.stopped, None, "admitted where the splice ended");
    lane.assert_cursor_holders(&[1, 2]);
    for index in 0..LANE_EPOCH {
        rows.extend(lane.publish(1, index));
    }
    lane.world.end_epoch(1);
    lane.finish(&interleaved(rows), &["witness", "late"]);
}

#[test]
fn a_parked_member_is_sent_its_history_while_the_witness_trains_on() {
    a_parked_member_is_sent_its_history_while_the_others_train(1);
}

#[test]
fn two_shards_a_parked_member_is_sent_its_history_while_the_witness_trains_on() {
    a_parked_member_is_sent_its_history_while_the_others_train(2);
}

#[test]
fn a_parked_members_lane_waits_for_the_spiller() {
    // It is in no hurry, and a frame the log has is a slot copy for a
    // pointer consumer, where a live batch would go as its bytes.
    let mut lane = Lane::new("spiller", 1, 2);
    let mut rows = Vec::new();
    for index in 0..4 {
        rows.extend(lane.publish(0, index));
    }
    lane.world.hold = |w| matches!(w, Wire::Logged { .. });
    for index in 4..6 {
        rows.extend(lane.publish(0, index));
    }
    lane.join_late();
    assert_eq!(
        lane.world.peers[1].got,
        rows[..4],
        "what the spiller passed"
    );
    lane.world.release();
    lane.world.step(0, state::Event::Tick);
    assert_eq!(lane.world.peers[1].got, rows);
    for epoch in 0..2 {
        for index in 6 * usize::from(epoch == 0)..LANE_EPOCH {
            rows.extend(lane.publish(epoch, index));
        }
        lane.world.end_epoch(epoch);
    }
    let slot_frames = lane.world.ctx.metrics.counter("replay.slot_frames");
    assert_eq!(slot_frames.get(), LANE_EPOCH as u64);
    lane.finish(&rows, &["witness", "late"]);
}

fn a_leave_mid_lane_gives_back_every_held_slot(shards: usize) {
    let mut lane = Lane::new("leave", shards, 2);
    let mut rows = Vec::new();
    for index in 0..4 {
        rows.extend(lane.publish(0, index));
    }
    let before = lane.slots_live();
    // The late member's acks never arrive: each frame it was sent holds
    // its slot.
    lane.world.hold = |w| {
        matches!(
            w,
            Wire::Up {
                msg: CtrlMsg::Ack { consumer_id: 2, .. },
                ..
            }
        )
    };
    lane.join_late();
    assert_eq!(lane.world.peers[1].got.len(), 4 * shards);
    let held: Vec<f64> = before.iter().map(|b| b + 4.0).collect();
    assert_eq!(lane.slots_live(), held, "a slot per frame sent");
    lane.world.held.clear();
    lane.world.leave(1);
    lane.world.peers.pop();
    assert_eq!(lane.slots_live(), before, "every held slot back");
    lane.assert_cursor_holders(&[1]);
    for epoch in 0..2 {
        for index in 4 * usize::from(epoch == 0)..LANE_EPOCH {
            rows.extend(lane.publish(epoch, index));
        }
        lane.world.end_epoch(epoch);
    }
    lane.finish(&interleaved(rows), &["witness"]);
}

#[test]
fn a_leave_mid_lane_gives_back_every_held_slot_and_leaves_no_cursor() {
    a_leave_mid_lane_gives_back_every_held_slot(1);
}

#[test]
fn two_shards_a_leave_mid_lane_gives_back_every_held_slot_and_leaves_no_cursor() {
    a_leave_mid_lane_gives_back_every_held_slot(2);
}

fn a_parked_members_acks_move_its_group_cursor(shards: usize) {
    let mut lane = Lane::new("acks", shards, 2);
    let mut rows = Vec::new();
    for index in 0..4 {
        rows.extend(lane.publish(0, index));
    }
    lane.join_late();
    let group_cursors = |lane: &Lane| -> Vec<Option<u64>> {
        let shards = lane.world.shards.iter();
        shards.map(|s| s.group_cursor("late")).collect()
    };
    // Acked as delivered, and on no ack cursor: it owes no live batch.
    assert_eq!(group_cursors(&lane), vec![Some(4); shards]);
    lane.assert_cursor_holders(&[1]);
    lane.world.hold = |w| {
        matches!(
            w,
            Wire::Up {
                msg: CtrlMsg::Ack { consumer_id: 2, .. },
                ..
            }
        )
    };
    for index in 4..LANE_EPOCH {
        rows.extend(lane.publish(0, index));
    }
    assert_eq!(lane.world.peers[1].got.len(), LANE_EPOCH * shards);
    assert_eq!(group_cursors(&lane), vec![Some(4); shards], "acks held");
    lane.world.release();
    let epoch_end = Some(LANE_EPOCH as u64);
    assert_eq!(group_cursors(&lane), vec![epoch_end; shards]);
    lane.assert_cursor_holders(&[1]);
    lane.world.end_epoch(0);
    for index in 0..LANE_EPOCH {
        rows.extend(lane.publish(1, index));
    }
    lane.world.end_epoch(1);
    let metrics = &lane.world.ctx.metrics;
    assert_eq!(metrics.counter("producer.ctrl_unknown_consumer").get(), 0);
    lane.finish(&interleaved(rows), &["witness", "late"]);
}

#[test]
fn a_parked_members_acks_move_its_group_cursor_and_are_never_refused() {
    a_parked_members_acks_move_its_group_cursor(1);
}

#[test]
fn two_shards_a_parked_members_acks_move_its_group_cursor_and_are_never_refused() {
    a_parked_members_acks_move_its_group_cursor(2);
}

fn a_producer_that_ends_before_the_boundary_still_delivers_the_history(shards: usize) {
    // One epoch: the member is parked for an epoch that never opens.
    let mut lane = Lane::new("end", shards, 1);
    let mut rows = Vec::new();
    for index in 0..4 {
        rows.extend(lane.publish(0, index));
    }
    lane.join_late();
    for index in 4..LANE_EPOCH {
        rows.extend(lane.publish(0, index));
    }
    lane.world.end_epoch(0);
    assert!(lane.world.shards.iter().all(|s| s.wait() == Wait::Drain));
    lane.finish(&interleaved(rows), &["witness", "late"]);
}

#[test]
fn a_producer_that_ends_before_the_boundary_still_delivers_a_parked_members_history() {
    a_producer_that_ends_before_the_boundary_still_delivers_the_history(1);
}

#[test]
fn two_shards_a_producer_that_ends_before_the_boundary_still_delivers_a_parked_members_history() {
    a_producer_that_ends_before_the_boundary_still_delivers_the_history(2);
}

#[test]
fn two_shards_a_join_reaching_the_empty_shard_first_still_gets_the_other_shards_prefix() {
    // ROADMAP item 1, schedule (vi), end to end. A's JOIN to shard 1 is
    // held on the wire, and shard 0 is two batches into the epoch when B's
    // JOIN reaches shard 1 — nothing published there — before it reaches
    // shard 0. "Nobody is training" is false of the group: B must be
    // admitted from the epoch's start everywhere, or it never sees shard
    // 0's first two batches.
    const PER_EPOCH: usize = 4;
    let config = world_cfg(2);
    let mut prep = [Preparer::new(&config, None), Preparer::new(&config, None)];
    let mut world = World::new(config, 2, PER_EPOCH as u64);
    world.hold = |w| {
        let slow = [(1, 1), (2, 0)];
        matches!(w, Wire::Up { shard, msg: CtrlMsg::Join { consumer_id, .. } }
            if slow.contains(&(*consumer_id, *shard)))
    };
    world.join(1, PayloadMode::Shm);
    assert_eq!(world.held.len(), 1, "A's JOIN to shard 1 is in flight");
    // Shard 0 decided A's JOIN for the group: shard 1 admitted A in the
    // same step, and A is attached to both.
    assert!(world.peers[0].state.attached);
    assert_eq!(world.shards[0].wait(), Wait::Item);
    assert_eq!(world.shards[1].wait(), Wait::Item);
    let mut rows = Vec::new();
    for index in 0..2 {
        rows.extend(world.publish(&mut prep, &[0], 0, index, PER_EPOCH));
    }
    // A takes shard 0's first batch, then waits for shard 1's.
    assert_eq!(world.peers[0].got.len(), 1);
    world.join(2, PayloadMode::Shm);
    assert_eq!(world.held.len(), 2, "B has asked shard 1, and only shard 1");
    assert!(world.peers[1].state.attached, "admitted on both by shard 1");
    assert_eq!(world.shards[0].stats.batches_replayed, 2, "B's prefix");
    // The held copies arrive late and change nothing.
    world.release();
    assert!(world.peers.iter().all(|p| p.state.attached));
    assert_eq!(world.shards[0].stats.batches_replayed, 2);
    // Shard 1 catches up with shard 0, then both run on, through a
    // coordinated boundary and a second epoch.
    for index in 0..2 {
        rows.extend(world.publish(&mut prep, &[1], 0, index, PER_EPOCH));
    }
    for epoch in 0..2 {
        for index in 2 * usize::from(epoch == 0)..PER_EPOCH {
            rows.extend(world.publish(&mut prep, &[0, 1], epoch, index, PER_EPOCH));
        }
        let open = world.shards.iter().map(State::wait);
        assert!(open.eq([Wait::Item; 2]), "epoch {epoch} is running");
        world.end_epoch(epoch);
    }
    world.finish(&interleaved(rows), &["A", "B"]);
}

#[test]
fn two_shards_an_admission_is_applied_on_every_shard_in_the_step_that_decides_it() {
    // B's JOIN reaches shard 0 and is lost on the way to shard 1. Shard 0
    // decides it for the group and admits B on both shards in that one
    // step: B is attached, shard 1 holds B's prefix by B's own cursor, and
    // the epoch boundary has nothing to wait for — no admission is ever
    // decided and not applied.
    let config = world_cfg(2);
    let mut prep = [Preparer::new(&config, None), Preparer::new(&config, None)];
    let mut world = World::new(config, 2, 2);
    world.join(1, PayloadMode::Shm);
    world.hold = |w| {
        matches!(
            w,
            Wire::Up {
                shard: 1,
                msg: CtrlMsg::Join { consumer_id: 2, .. }
            }
        )
    };
    let mut rows = world.publish(&mut prep, &[0, 1], 0, 0, 2);
    world.join(2, PayloadMode::Shm);
    assert_eq!(world.held.len(), 1, "B's JOIN to shard 1 is lost");
    assert!(world.peers[1].state.attached, "admitted on both shards");
    assert!(world.shards.iter().all(|s| s.stats.peak_consumers == 2));
    assert_eq!(
        world.peers[1].got.len(),
        2,
        "from the epoch's start, on both"
    );
    rows.extend(world.publish(&mut prep, &[0, 1], 0, 1, 2));
    assert!(world.peers.iter().all(|p| p.got.len() == 4));
    // Both shards finish the epoch and the boundary opens at once, with
    // nobody's heartbeat having to run out.
    world.end_epoch(0);
    let waits = world.shards.iter().map(State::wait);
    assert!(waits.eq([Wait::Item; 2]), "epoch 1 is open");
    // The lost copy turns up after all, and is a duplicate.
    world.release();
    assert!(world.shards.iter().all(|s| s.stats.peak_consumers == 2));
    for index in 0..2 {
        rows.extend(world.publish(&mut prep, &[0, 1], 1, index, 2));
    }
    world.end_epoch(1);
    let detached = world.ctx.metrics.counter("producer.detached");
    assert_eq!(detached.get(), 0, "nobody's heartbeat ran out");
    world.finish(&interleaved(rows), &["A", "B"]);
}
