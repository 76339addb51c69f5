//! The consumer's decisions, scripted: every test here builds a
//! [`ConsumerState`] from `TsContext::host_only()` with no link open, feeds
//! it events with a time it advances by hand, and reads the effects. No
//! socket, no thread, no clock, no sleep. The last test puts a producer
//! `State` on the other end of the effects: both halves of exactly-once,
//! back to back in memory.

use super::*;
use crate::protocol::messages::{caps, FlexBatchPayload, LogAd, StreamedTensor};
use crate::runtime::config::ProducerConfig;
use crate::runtime::producer::Preparer;
use crate::runtime::staging::FeederMsg;
use crate::runtime::state::{self, State};
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
        let expect = [Out::Sub(0, topics::hello(ID)), Out::Ctrl(0, hello)];
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
        assert_eq!(out.len(), 1 + 4 * shards, "3 topics and a JOIN per shard");
        for (shard, out) in out[1 + 3 * shards..].iter().enumerate() {
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
    assert!(rig.step(Event::Leave).is_empty(), "nobody admitted it");
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
    rig.step(Event::Closed);
    let gone = TsError::Socket("producer disconnected".into());
    assert_eq!(rig.state.take_error(), Some(gone));
    let mut rig = Rig::attached(opts(), 1, PayloadMode::Shm);
    rig.step(Event::Closed);
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

/// One consumer on the other end of the producer's effects: its state,
/// what its SUB socket would let through, and what its trainer received.
struct Peer {
    state: ConsumerState,
    mode: PayloadMode,
    topics: Vec<Vec<u8>>,
    /// `(epoch, index_in_epoch, field bytes, labels)` per batch, in order.
    got: Vec<(u64, u64, Vec<u8>, Vec<i64>)>,
}

/// A producer `State` and its consumers with the wires replaced by a
/// queue: `Effect::Send` goes to every peer subscribed to a prefix of the
/// topic as `Event::Frame`, `Effect::Ctrl` goes back as `Event::Ctrl`.
struct World {
    ctx: TsContext,
    producer: State,
    peers: Vec<Peer>,
    now: u64,
    finished: bool,
}

enum Wire {
    Down(usize, Bytes),
    Up(Bytes),
}

impl World {
    fn join(&mut self, id: u64, mode: PayloadMode) {
        let opts = Consumer::builder().payload_mode(mode);
        let mut fx = Vec::new();
        let mut state = ConsumerState::new(&self.ctx, &opts, id, &mut fx);
        state.start(self.now, opts.handshake_timeout, &mut fx);
        self.peers.push(Peer {
            state,
            mode,
            topics: Vec::new(),
            got: Vec::new(),
        });
        let peer = self.peers.len() - 1;
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
                    Effect::Ctrl { shard: 0, msg } => wire.push_back(Wire::Up(msg.encode())),
                    Effect::Ctrl { shard, .. } => panic!("no shard {shard} here"),
                    Effect::Subscribe { topic, .. } => p.topics.push(topic),
                    Effect::Unsubscribe { topic, .. } => p.topics.retain(|t| *t != topic),
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
                p.got.push((b.epoch, b.index_in_epoch, bytes, labels));
                p.state.step(now, Event::Next, &mut fx);
            }
        }
    }

    fn producer_did(&mut self, fx: Vec<state::Effect>, wire: &mut VecDeque<Wire>) {
        for effect in fx {
            match effect {
                state::Effect::Send { topic, frame } => {
                    let frame = frame.into_contiguous().frames()[0].clone();
                    for (i, p) in self.peers.iter().enumerate() {
                        if p.topics.iter().any(|prefix| topic.starts_with(prefix)) {
                            wire.push_back(Wire::Down(i, frame.clone()));
                        }
                    }
                }
                state::Effect::Spill(_) => panic!("no log here"),
                state::Effect::Finish => self.finished = true,
            }
        }
    }

    /// Delivers until every wire is quiet.
    fn run(&mut self, mut wire: VecDeque<Wire>) {
        while let Some(w) = wire.pop_front() {
            self.now += 10_000;
            match w {
                Wire::Down(peer, frame) => {
                    let mut fx = Vec::new();
                    let ev = Event::Frame { shard: 0, frame };
                    self.peers[peer].state.step(self.now, ev, &mut fx);
                    self.consumer_did(peer, fx, &mut wire);
                }
                Wire::Up(frame) => self.produce(state::Event::Ctrl(frame), &mut wire),
            }
        }
    }

    fn produce(&mut self, ev: state::Event, wire: &mut VecDeque<Wire>) {
        let mut fx = Vec::new();
        self.producer.step(self.now, ev, &mut fx);
        self.producer_did(fx, wire);
    }

    /// One producer event, and everything that follows from it.
    fn step(&mut self, ev: state::Event) {
        let mut wire = VecDeque::new();
        self.now += 10_000;
        self.produce(ev, &mut wire);
        self.run(wire);
        // A catch-up moves a frame per step while its window has room.
        while self.producer.busy() {
            let mut wire = VecDeque::new();
            self.now += 10_000;
            self.produce(state::Event::Tick, &mut wire);
            self.run(wire);
        }
    }
}

/// Loader batch `index` of `total` in `epoch`: four samples, one f32 field
/// whose bytes name the epoch and the sample.
fn loader_batch(epoch: u64, index: usize, total: usize) -> Batch {
    let base = (epoch as i64) * 1_000 + (index * 4) as i64;
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

#[test]
fn both_ends_back_to_back_deliver_two_epochs_exactly_once_in_order_bit_identical() {
    const PER_EPOCH: usize = 8;
    let ctx = TsContext::host_only();
    let config = ProducerConfig {
        epochs: 2,
        rubberband_cutoff: 0.5,
        ..Default::default()
    };
    let mut prep = Preparer::new(&config, None);
    let producer = State::new(&ctx, config, None, 0, None, (PER_EPOCH as u64, 4), 0);
    let mut world = World {
        ctx: ctx.clone(),
        producer,
        peers: Vec::new(),
        now: 0,
        finished: false,
    };
    let mut fx = Vec::new();
    world.producer.start(0, &mut fx);
    assert!(fx.is_empty());
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
            let b = loader_batch(epoch, index, PER_EPOCH);
            let bytes = b.fields[0].gather_bytes();
            reference.push((epoch, index as u64, bytes, b.labels.to_vec_i64().unwrap()));
            let last = b.last_in_epoch;
            let mut never = || panic!("no arena, nothing to run dry");
            let item = prep.push(b, last, &mut never).unwrap().unwrap();
            assert!(world.producer.wants_item(), "epoch {epoch} batch {index}");
            world.step(state::Event::Prepared(FeederMsg::Item(item)));
        }
        world.step(state::Event::Prepared(FeederMsg::EpochDone(epoch)));
    }
    assert!(world.finished, "everything is acked: nothing to drain");
    let mut fx = Vec::new();
    world.producer.close(world.now, &mut fx);
    let mut wire = VecDeque::new();
    world.producer_did(fx, &mut wire);
    world.run(wire);
    for (p, name) in world.peers.iter().zip(["shm", "stream", "joiner"]) {
        // Exactly once, in order, bit-identical: one comparison says all
        // three, against what the loader produced.
        assert_eq!(p.got.len(), reference.len(), "{name}");
        assert!(p.got == reference, "{name} saw another stream");
        assert_eq!(p.state.stopped, Some(StopReason::End), "{name}");
        assert_eq!(p.state.buffered(), 0, "{name}");
    }
    assert_eq!(world.producer.stats.batches_published, 16);
    assert_eq!(world.producer.stats.batches_replayed, 3);
    assert_eq!(ctx.metrics.counter("consumer.dangling_skipped").get(), 0);
    assert_eq!(
        ctx.metrics.counter("producer.ctrl_unknown_consumer").get(),
        0
    );
    assert!(ctx.registry.is_empty(), "every batch was released");
}
