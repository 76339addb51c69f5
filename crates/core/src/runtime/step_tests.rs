//! The producer's decisions, scripted: every test here builds a
//! [`State`] from `TsContext::host_only()` with no endpoint bound, feeds
//! it events with a time it advances by hand, and reads the effects. No
//! socket, no thread, no clock, no sleep.

use super::*;
use crate::runtime::producer::{spill_one, EpochSource, Preparer, TensorProducer, VecSource};
use std::time::Duration;
use ts_data::Batch;
use ts_device::DeviceId;

const MS: u64 = 1_000_000;

/// What a step asked the shell to do, decoded.
#[derive(Debug)]
enum Out {
    Msg(Vec<u8>, DataMsg),
    Spill(u64),
    Finish,
}

struct Rig {
    state: State,
    ctx: TsContext,
    now: u64,
    /// Spill hand-offs not executed yet (the test plays the spiller).
    spills: VecDeque<SpillMsg>,
}

impl Rig {
    fn new(ctx: &TsContext, cfg: ProducerConfig, batches_per_epoch: u64) -> Self {
        Self::coordinated(ctx, cfg, batches_per_epoch, None, None)
    }

    fn coordinated(
        ctx: &TsContext,
        cfg: ProducerConfig,
        batches_per_epoch: u64,
        coord: Option<Arc<EpochCoordinator>>,
        log: Option<LogTee>,
    ) -> Self {
        let state = State::new(ctx, cfg, coord, 0, log, (batches_per_epoch, 4), 0);
        let mut rig = Rig {
            state,
            ctx: ctx.clone(),
            now: 0,
            spills: VecDeque::new(),
        };
        let mut fx = Vec::new();
        rig.state.start(0, &mut fx);
        assert!(fx.is_empty(), "nothing to say before anyone joined");
        rig
    }

    fn decode(&mut self, fx: Vec<Effect>) -> Vec<Out> {
        let mut out = Vec::new();
        for effect in fx {
            out.push(match effect {
                Effect::Send { topic, frame } => {
                    let frame = frame.into_contiguous();
                    let msg = DataMsg::decode_shared(&frame.frames()[0]).expect("valid frame");
                    Out::Msg(topic.into_owned(), msg)
                }
                Effect::Spill(m) => {
                    let seq = m.seq;
                    self.spills.push_back(m);
                    Out::Spill(seq)
                }
                Effect::Finish => Out::Finish,
            });
        }
        out
    }

    /// One step, 10 µs after the previous one.
    fn step(&mut self, ev: Event) -> Vec<Out> {
        self.now += 10_000;
        let mut fx = Vec::new();
        self.state.step(self.now, ev, &mut fx);
        self.decode(fx)
    }

    fn ctrl(&mut self, msg: CtrlMsg) -> Vec<Out> {
        self.step(Event::Ctrl(msg.encode()))
    }

    /// Lets `ns` pass, then ticks.
    fn tick_after(&mut self, ns: u64) -> Vec<Out> {
        self.now += ns;
        self.step(Event::Tick)
    }

    fn join(&mut self, id: u64, mode: PayloadMode) -> Vec<Out> {
        self.ctrl(CtrlMsg::Join {
            consumer_id: id,
            batch_size: 0,
            mode,
        })
    }

    fn ready(&mut self, id: u64) -> Vec<Out> {
        self.ctrl(CtrlMsg::Ready { consumer_id: id })
    }

    fn ack(&mut self, id: u64, seq: u64) -> Vec<Out> {
        self.ctrl(CtrlMsg::Ack {
            consumer_id: id,
            seq,
        })
    }

    /// Joins `id` and says Ready, asserting it was admitted.
    fn attach(&mut self, id: u64) -> Vec<Out> {
        let out = self.join(id, PayloadMode::Shm);
        assert!(
            matches!(admit_of(&out), Some((_, _, _))),
            "consumer {id} not admitted: {out:?}"
        );
        self.ready(id)
    }

    fn item(&mut self, item: PreparedItem) -> Vec<Out> {
        self.step(Event::Prepared(FeederMsg::Item(item)))
    }

    /// Plays the spiller for one queued batch and reports the progress.
    fn spill_next(&mut self) -> Vec<Out> {
        let m = self.spills.pop_front().expect("a queued spill");
        let log = self.state.log().expect("a log is bound");
        let errors = self.ctx.metrics.counter("log.append_errors");
        assert!(spill_one(&log, &m, self.state.stage(), &errors));
        self.step(Event::Logged {
            up_to: m.seq + 1,
            failed: false,
        })
    }

    fn close(&mut self) -> Vec<Out> {
        let mut fx = Vec::new();
        self.state.close(self.now, &mut fx);
        self.decode(fx)
    }

    fn wait_gauge(&self) -> f64 {
        self.ctx.metrics.gauge("stage.wait_state").get()
    }
}

/// `(epoch, replay_from, start_seq)` of an `AdmitReplay` reply in `out`.
fn admit_of(out: &[Out]) -> Option<(u64, u64, u64)> {
    out.iter().find_map(|o| match o {
        Out::Msg(
            _,
            DataMsg::JoinReply {
                decision:
                    JoinDecision::AdmitReplay {
                        epoch,
                        replay_from,
                        start_seq,
                        ..
                    },
                ..
            },
        ) => Some((*epoch, *replay_from, *start_seq)),
        _ => None,
    })
}

/// `(topic, seq)` of every batch frame in `out`.
fn batches(out: &[Out]) -> Vec<(Vec<u8>, u64)> {
    out.iter()
        .filter_map(|o| match o {
            Out::Msg(topic, DataMsg::Batch(a)) => Some((topic.clone(), a.seq)),
            _ => None,
        })
        .collect()
}

fn finished(out: &[Out]) -> bool {
    out.iter().any(|o| matches!(o, Out::Finish))
}

fn cfg(epochs: u64, cutoff: f64) -> ProducerConfig {
    ProducerConfig {
        epochs,
        rubberband_cutoff: cutoff,
        heartbeat_timeout: Duration::from_millis(500),
        first_consumer_timeout: Some(Duration::from_secs(5)),
        ..Default::default()
    }
}

/// Loader batch `index` of `total`: four samples, one f32 field.
fn batch(index: usize, total: usize) -> Batch {
    let base = (index * 4) as i64;
    let labels: Vec<i64> = (base..base + 4).collect();
    let field: Vec<f32> = labels
        .iter()
        .flat_map(|&l| [l as f32, -(l as f32)])
        .collect();
    Batch {
        epoch: 0,
        index,
        fields: vec![Tensor::from_f32(&field, &[4, 2], DeviceId::Cpu).unwrap()],
        labels: Tensor::from_i64(&labels, &[4], DeviceId::Cpu).unwrap(),
        sample_indices: (index * 4..index * 4 + 4).collect(),
        last_in_epoch: index + 1 == total,
    }
}

/// Prepares batch `index` the way the feeder would (never dry).
fn prepared(prep: &mut Preparer, index: usize, total: usize) -> PreparedItem {
    let mut never = || panic!("the arena ran dry");
    let item = prep.push(batch(index, total), index + 1 == total, &mut never);
    item.unwrap()
        .expect("default mode yields an item per batch")
}

fn arena_ctx(tag: &str, nslots: usize, depth: usize) -> (TsContext, ts_tensor::SlotPool) {
    let ctx = TsContext::host_only();
    let path = std::env::temp_dir().join(format!("ts-step-{tag}-{}.arena", std::process::id()));
    ctx.create_arena(&path, nslots, 4096).unwrap();
    let pool = ctx.enable_slot_recycling(depth).unwrap();
    (ctx, pool)
}

#[test]
fn acks_release_in_seq_order_and_slots_are_conserved() {
    let (ctx, pool) = arena_ctx("conserve", 16, 12);
    let arena = ctx.arena().unwrap();
    let config = cfg(1, 0.0);
    let mut prep = Preparer::new(&config, ctx.registry.lease_pool(None));
    let mut rig = Rig::new(&ctx, config, 6);
    // Every slot is leased by an item in hand, registered by a live batch
    // (two tensors each), or idle in the pool.
    let conserved = |rig: &Rig, in_hand: usize| {
        let live = rig.state.win.live.len();
        assert_eq!(ctx.registry.len(), 2 * live);
        assert_eq!(
            arena.slots_in_use(),
            2 * in_hand + 2 * live + pool.free_count(),
            "leased + live + free must cover every slot in use"
        );
    };
    assert_eq!(rig.state.wait(), Wait::Consumers);
    assert_eq!(admit_of(&rig.join(1, PayloadMode::Shm)), Some((0, 0, 0)));
    let out = rig.ready(1);
    assert!(
        matches!(
            &out[..],
            [Out::Msg(
                _,
                DataMsg::EpochStart {
                    epoch: 0,
                    num_batches: 6
                }
            )]
        ),
        "{out:?}"
    );
    assert_eq!(rig.state.wait(), Wait::Item);
    // The window (2) takes two batches; the third waits for an ack.
    for seq in 0..2u64 {
        let item = prepared(&mut prep, seq as usize, 6);
        conserved(&rig, 1);
        assert_eq!(batches(&rig.item(item)), [(topics::BATCH.to_vec(), seq)]);
        conserved(&rig, 0);
    }
    let item = prepared(&mut prep, 2, 6);
    assert!(batches(&rig.item(item)).is_empty());
    assert_eq!(rig.state.wait(), Wait::Window);
    conserved(&rig, 1);
    // Each ack releases exactly its batch and admits the next one.
    for acked in 0..6u64 {
        let before: Vec<u64> = rig.state.win.live.keys().copied().collect();
        assert_eq!(before[0], acked, "released out of order");
        let out = rig.ack(1, acked);
        assert!(!rig.state.win.live.contains_key(&acked));
        if acked + 2 < 6 {
            assert_eq!(batches(&out), [(topics::BATCH.to_vec(), acked + 2)]);
        }
        if acked + 3 < 6 {
            let item = prepared(&mut prep, acked as usize + 3, 6);
            rig.item(item);
        } else if acked + 3 == 6 {
            assert!(!finished(
                &rig.step(Event::Prepared(FeederMsg::EpochDone(0)))
            ));
            assert_eq!(rig.state.wait(), Wait::Drain);
        }
        conserved(&rig, usize::from(rig.state.win.pending.is_some()));
        assert_eq!(finished(&out), acked == 5, "done exactly on the last ack");
    }
    assert!(finished(&rig.tick_after(0)), "nothing outstanding: done");
    let out = rig.close();
    assert!(matches!(&out[..], [Out::Msg(_, DataMsg::End)]), "{out:?}");
    assert_eq!(rig.state.stats.batches_published, 6);
    assert_eq!(rig.state.stats.epochs_completed, 1);
    assert!(ctx.registry.is_empty());
    assert_eq!(arena.slots_in_use(), pool.free_count());
    assert_eq!(ctx.metrics.counter("stage.publish_copy_bytes").get(), 0);
    pool.drain();
    assert_eq!(arena.slots_in_use(), 0);
}

#[test]
fn joiners_landing_mid_replay_each_get_one_catch_up_in_arrival_order() {
    // The script of `rubberband_admits_and_replays_early_joiner`, plus a
    // second joiner whose Ready lands while the first replay is running —
    // what the re-entrancy guard and its two deferred queues used to handle.
    let ctx = TsContext::host_only();
    let config = cfg(1, 1.0);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 8);
    rig.attach(1);
    for seq in 0..3 {
        let item = prepared(&mut prep, seq, 8);
        assert_eq!(batches(&rig.item(item)).len(), 1);
        rig.ack(1, seq as u64);
    }
    // Fully acked, but the join window is open: the batches stay.
    assert_eq!(rig.state.win.live.len(), 3);
    for id in [2, 3] {
        let out = rig.join(id, PayloadMode::Shm);
        assert_eq!(admit_of(&out), Some((0, 0, 0)), "inside the window");
    }
    // A batch arriving now is held: everyone halts for the joiners.
    let item = prepared(&mut prep, 3, 8);
    assert!(batches(&rig.item(item)).is_empty());
    let mut replayed = batches(&rig.ready(2));
    assert_eq!(replayed, [(topics::consumer(2), 0)], "one frame per step");
    replayed.extend(batches(&rig.ready(3)));
    assert!(rig.state.busy());
    while rig.state.busy() {
        let out = rig.tick_after(0);
        assert!(out
            .iter()
            .all(|o| matches!(o, Out::Msg(t, _) if t != topics::BATCH)));
        replayed.extend(batches(&out));
    }
    let expect: Vec<(Vec<u8>, u64)> = [2u64, 3]
        .iter()
        .flat_map(|&id| (0..3).map(move |seq| (topics::consumer(id), seq)))
        .collect();
    assert_eq!(replayed, expect);
    assert_eq!(rig.state.stats.batches_replayed, 6);
    // Caught up: the held batch goes out as soon as the window allows —
    // the joiners sit at seq 0, so it takes their acks.
    assert_eq!(rig.state.wait(), Wait::Window);
    let mut out = Vec::new();
    for id in [2, 3] {
        for seq in 0..3 {
            out.extend(rig.ack(id, seq));
        }
    }
    assert_eq!(batches(&out), [(topics::BATCH.to_vec(), 3)]);
    // The replayed prefix was re-armed for the joiners and is still
    // pinned; nothing was released behind their backs.
    assert_eq!(rig.state.win.live.len(), 4);
}

#[test]
fn a_stream_consumer_leaving_mid_replay_gets_no_further_frame() {
    // The script of `stream_consumer_leaving_mid_replay_stops_the_stream_encoder`.
    let ctx = TsContext::host_only();
    let config = cfg(1, 1.0);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 24);
    rig.attach(1);
    for seq in 0..20 {
        let item = prepared(&mut prep, seq, 24);
        rig.item(item);
        rig.ack(1, seq as u64);
    }
    let tx = ctx.metrics.counter("stage.stream_tx_bytes");
    assert_eq!(tx.get(), 0, "the shm consumer never streams");
    let out = rig.join(4242, PayloadMode::Stream);
    assert_eq!(admit_of(&out), Some((0, 0, 0)), "cutoff 1.0 replays it all");
    let out = rig.ready(4242);
    assert_eq!(batches(&out), [(topics::consumer(4242), 0)]);
    let one_frame = tx.get();
    assert!(one_frame > 0);
    let out = rig.ctrl(CtrlMsg::Leave { consumer_id: 4242 });
    assert!(out.is_empty(), "{out:?}");
    assert!(!rig.state.busy(), "the job left with its consumer");
    for _ in 0..25 {
        assert!(rig.tick_after(MS).iter().all(|o| match o {
            Out::Msg(topic, _) => *topic != topics::consumer(4242),
            _ => true,
        }));
    }
    assert_eq!(
        tx.get(),
        one_frame,
        "the encoder kept running after the leave"
    );
    assert_eq!(rig.state.members.hb.tracked(), 1);
}

#[test]
fn a_late_joiner_waits_for_the_next_epoch_and_a_parked_leave_does_not_wedge_it() {
    // The script of `late_joiner_waits_for_next_epoch`, and the bug: a
    // `Leave` from a parked joiner used to stay in `pending_join` with no
    // heartbeat entry, be admitted at the boundary, never say Ready, and
    // hold `EpochStart` back for everyone, forever.
    let ctx = TsContext::host_only();
    let config = cfg(2, 0.02);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 4);
    rig.attach(1);
    for seq in 0..2 {
        let item = prepared(&mut prep, seq, 4);
        rig.item(item);
        rig.ack(1, seq as u64);
    }
    for id in [2, 3] {
        let out = rig.join(id, PayloadMode::Shm);
        assert!(
            matches!(
                &out[..],
                [Out::Msg(
                    _,
                    DataMsg::JoinReply {
                        decision: JoinDecision::WaitEpoch { epoch: 1 },
                        ..
                    }
                )]
            ),
            "{out:?}"
        );
    }
    assert_eq!(
        rig.state.members.hb.tracked(),
        3,
        "parked joiners are tracked"
    );
    rig.ctrl(CtrlMsg::Leave { consumer_id: 2 });
    assert_eq!(rig.state.members.pending_join.len(), 1);
    assert_eq!(rig.state.members.hb.tracked(), 2);
    for seq in 2..4 {
        let item = prepared(&mut prep, seq, 4);
        rig.item(item);
        rig.ack(1, seq as u64);
    }
    // The epoch rolls: the survivor is admitted at the new epoch's first
    // seq, the departed id is not, and the epoch starts on its Ready.
    let out = rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    assert_eq!(admit_of(&out), Some((1, 0, 4)));
    assert_eq!(out.len(), 1, "only consumer 3 is answered: {out:?}");
    assert_eq!(rig.state.wait(), Wait::Consumers);
    let out = rig.ready(3);
    assert!(
        matches!(
            &out[..],
            [Out::Msg(_, DataMsg::EpochStart { epoch: 1, .. })]
        ),
        "{out:?}"
    );
    assert_eq!(rig.state.wait(), Wait::Item);
    // Even an id admitted with no beat of its own expires: admission
    // stamps one.
    let m = &rig.state.members;
    assert!(m.consumers.keys().all(|id| m.hb.is_alive(*id, rig.now)));
}

#[test]
fn an_admitted_joiner_that_leaves_before_ready_stops_halting_everyone_at_once() {
    // Between admission and `Ready` a joiner halts every consumer's stream
    // (`all_ready`) and has its reply re-sent each tick. A consumer whose
    // attach fails elsewhere now says `Leave` (ROADMAP 9c): the held batch
    // goes out in the step that frame lands in, the nudging stops, and the
    // heartbeat monitor forgets the id — not a heartbeat timeout later.
    let ctx = TsContext::host_only();
    let config = cfg(1, 1.0);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 4);
    rig.attach(1);
    let item = prepared(&mut prep, 0, 4);
    assert_eq!(batches(&rig.item(item)).len(), 1);
    rig.ack(1, 0);
    assert_eq!(admit_of(&rig.join(2, PayloadMode::Shm)), Some((0, 0, 0)));
    let item = prepared(&mut prep, 1, 4);
    assert!(batches(&rig.item(item)).is_empty(), "halted for the joiner");
    assert_eq!(rig.state.wait(), Wait::Window);
    let nudged = rig.tick_after(TICK_NS);
    assert!(
        matches!(&nudged[..], [Out::Msg(t, DataMsg::JoinReply { .. }), ..] if *t == topics::consumer(2)),
        "{nudged:?}"
    );
    let out = rig.ctrl(CtrlMsg::Leave { consumer_id: 2 });
    assert_eq!(batches(&out), [(topics::BATCH.to_vec(), 1)]);
    assert_eq!(rig.state.wait(), Wait::Item);
    assert_eq!(rig.state.members.hb.tracked(), 1);
    let quiet = rig.tick_after(TICK_NS);
    assert!(
        !quiet
            .iter()
            .any(|o| matches!(o, Out::Msg(_, DataMsg::JoinReply { .. }))),
        "{quiet:?}"
    );
    // A second `Leave` (the shard it never reached answers the same way)
    // is a stray frame from an id that owes nothing.
    assert!(rig.ctrl(CtrlMsg::Leave { consumer_id: 2 }).is_empty());
    let strays = ctx.metrics.counter("producer.ctrl_unknown_consumer");
    assert_eq!(strays.get(), 1);
}

#[test]
fn a_deadline_only_sits_in_the_past_when_a_tick_would_change_something() {
    // The pump ticks whenever `deadline()` has passed; a stale deadline in
    // a wait that only a peer can end would spin the producer thread.
    let ctx = TsContext::host_only();
    let mut config = cfg(1, 0.02);
    config.first_consumer_timeout = Some(Duration::from_millis(40));
    let mut rig = Rig::new(&ctx, config, 4);
    assert_eq!(rig.state.deadline(), 25 * MS, "the housekeeping tick");
    rig.tick_after(30 * MS);
    assert_eq!(rig.state.deadline(), 40 * MS, "the first-consumer limit");
    // Someone joined but has not said Ready: the limit no longer applies,
    // however long ago it passed, and only the tick cadence remains.
    rig.join(1, PayloadMode::Shm);
    rig.tick_after(100 * MS);
    assert_eq!(rig.state.wait(), Wait::Consumers);
    assert!(rig.state.deadline() > rig.now);
    // Had nobody come, the run would have ended there.
    let ctx = TsContext::host_only();
    let mut config = cfg(1, 0.02);
    config.first_consumer_timeout = Some(Duration::from_millis(40));
    let mut rig = Rig::new(&ctx, config, 4);
    assert!(finished(&rig.tick_after(41 * MS)));
    assert_eq!(rig.state.stats.epochs_completed, 0);
}

#[test]
fn stray_frames_never_grow_the_heartbeat_monitor() {
    let ctx = TsContext::host_only();
    let mut rig = Rig::new(&ctx, cfg(1, 0.02), 4);
    rig.attach(1);
    let tracked = rig.state.members.hb.tracked();
    assert_eq!(tracked, 1);
    for stray in 0..1000u64 {
        assert!(rig.ack(10_000 + stray, stray).is_empty());
    }
    rig.ready(77);
    rig.ctrl(CtrlMsg::Heartbeat { consumer_id: 78 });
    rig.ctrl(CtrlMsg::Leave { consumer_id: 79 });
    assert_eq!(rig.state.members.hb.tracked(), tracked);
    let strays = ctx.metrics.counter("producer.ctrl_unknown_consumer").get();
    assert_eq!(strays, 1003);
}

#[test]
fn a_silent_consumer_expires_during_drain() {
    let ctx = TsContext::host_only();
    let config = cfg(1, 0.02);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 2);
    rig.attach(1);
    for seq in 0..2 {
        let item = prepared(&mut prep, seq, 2);
        rig.item(item);
    }
    // 100 ms of silence, then the epoch ends: the drain would wait a full
    // heartbeat timeout (500 ms) from here for the two acks.
    rig.now += 100 * MS;
    let out = rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    assert!(!finished(&out));
    assert_eq!(rig.state.wait(), Wait::Drain);
    assert!(
        !finished(&rig.tick_after(300 * MS)),
        "still within both limits"
    );
    // 510 ms after its last frame the consumer is detached — and with
    // nobody left to wait for, the run finishes before the drain limit.
    let out = rig.tick_after(110 * MS);
    assert!(
        matches!(
            &out[..],
            [
                Out::Msg(_, DataMsg::Detached { consumer_id: 1 }),
                Out::Finish
            ]
        ),
        "{out:?}"
    );
    assert_eq!(rig.state.stats.consumers_detached, 1);
    assert_eq!(rig.state.members.hb.tracked(), 0);
    rig.close();
    assert!(ctx.registry.is_empty());
}

#[test]
fn hello_stats_and_trace_are_answered_in_every_wait_state() {
    let probe = |rig: &mut Rig, wait: Wait| {
        assert_eq!(rig.state.wait(), wait);
        let code = Wait::ALL.iter().position(|w| *w == wait).unwrap();
        assert_eq!(rig.wait_gauge(), code as f64, "gauge for {wait:?}");
        let out = rig.ctrl(CtrlMsg::Hello {
            token: 5,
            version: WIRE_VERSION,
            caps: caps::KNOWN,
        });
        assert!(
            matches!(&out[..], [Out::Msg(t, DataMsg::Welcome { token: 5, .. })] if *t == topics::hello(5)),
            "{wait:?}: {out:?}"
        );
        let out = rig.ctrl(CtrlMsg::StatsRequest {
            token: 6,
            version: WIRE_VERSION,
            seq: 9,
        });
        assert!(
            matches!(&out[..], [Out::Msg(t, DataMsg::Stats { token: 6, seq: 9, .. })] if *t == topics::stats(6)),
            "{wait:?}: {out:?}"
        );
        let out = rig.ctrl(CtrlMsg::TraceRequest {
            token: 7,
            version: WIRE_VERSION,
            seq: 3,
            max: 8,
        });
        assert!(
            matches!(&out[..], [Out::Msg(t, DataMsg::Trace { token: 7, seq: 3, .. })] if *t == topics::trace(7)),
            "{wait:?}: {out:?}"
        );
        assert_eq!(rig.state.wait(), wait, "a scrape changes nothing");
    };
    let ctx = TsContext::host_only();
    let config = cfg(1, 0.02);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config.clone(), 3);
    probe(&mut rig, Wait::Consumers);
    rig.attach(1);
    probe(&mut rig, Wait::Item);
    rig.step(Event::Prepared(FeederMsg::ArenaDry));
    probe(&mut rig, Wait::Arena);
    for seq in 0..3 {
        let item = prepared(&mut prep, seq, 3);
        rig.item(item);
    }
    probe(&mut rig, Wait::Window);
    rig.ack(1, 0);
    rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    probe(&mut rig, Wait::Drain);
    // One shard of two, the other not at the barrier yet.
    let coord = Arc::new(EpochCoordinator::new(2, Duration::from_secs(5)));
    let ctx = TsContext::host_only();
    let mut rig = Rig::coordinated(&ctx, config, 3, Some(coord.clone()), None);
    assert_eq!(
        ctx.metrics.gauge("stage.s0.wait_state").get(),
        0.0,
        "barrier is code 0, in the shard's namespace"
    );
    assert_eq!(rig.state.wait(), Wait::Barrier);
    let out = rig.ctrl(CtrlMsg::Hello {
        token: 5,
        version: WIRE_VERSION,
        caps: caps::KNOWN,
    });
    assert!(matches!(&out[..], [Out::Msg(_, DataMsg::Welcome { .. })]));
    assert!(
        rig.state.deadline() <= rig.now + MS,
        "the barrier is polled"
    );
    coord.arrive(rig.now, 1, 0, 1);
    rig.tick_after(0);
    assert_eq!(rig.state.wait(), Wait::Consumers);
}

#[test]
fn a_dry_arena_parks_the_feeder_instead_of_copying() {
    // Wedge (ii) of the ts-e2e README: an unpaced source over a logged
    // producer whose pool-backed arena is smaller than the stream. The
    // spiller lags (here: it only runs when the feeder is already dry),
    // so acked-but-unlogged batches hold every slot. At the parent the
    // feeder fell back to the heap, the publish step copied (or, arena
    // full, placed nothing and an out-of-process consumer wedged); now
    // the feeder waits, `Logged` frees the slots, and nothing is copied.
    let (ctx, pool) = arena_ctx("dry", 6, 6);
    let arena = ctx.arena().unwrap();
    let dir = std::env::temp_dir().join(format!("ts-step-dry-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = cfg(1, 0.02);
    config.log = Some(ts_log::LogConfig {
        segment_bytes: 1 << 20,
        ..ts_log::LogConfig::new(&dir)
    });
    let log = TensorProducer::open_log(&ctx, config.log.as_ref().unwrap(), None, 0).unwrap();
    let source = VecSource::new((0..12).map(|i| batch(i, 12)).collect()).unwrap();
    let mut prep = Preparer::new(&config, ctx.registry.lease_pool(None));
    let mut rig = Rig::coordinated(&ctx, config, 12, None, Some(log));
    rig.attach(1);
    let mut dry_spells = 0;
    for (i, b) in source.epoch(0).enumerate() {
        let last = b.last_in_epoch;
        let mut dry = || {
            dry_spells += 1;
            rig.step(Event::Prepared(FeederMsg::ArenaDry));
            assert_eq!(rig.state.wait(), Wait::Arena);
            assert_eq!(arena.slots_in_use(), 6, "dry means every slot is held");
            rig.now += MS;
            rig.spill_next(); // the spiller catches up by one batch
            true
        };
        let item = prep.push(b, last, &mut dry).unwrap().unwrap();
        let out = rig.item(item);
        assert_eq!(batches(&out), [(topics::BATCH.to_vec(), i as u64)]);
        assert!(out
            .iter()
            .any(|o| matches!(o, Out::Spill(s) if *s == i as u64)));
        assert_eq!(rig.state.wait(), Wait::Item);
        rig.ack(1, i as u64); // the consumer keeps up; the spiller does not
    }
    assert!(
        dry_spells >= 9,
        "3 batches fit; the rest waited ({dry_spells})"
    );
    assert_eq!(ctx.metrics.counter("stage.publish_copy_bytes").get(), 0);
    let parked = ctx.metrics.counter("stage.arena_parked_ns").get();
    assert!(parked >= dry_spells * MS, "parked {parked} ns");
    assert_eq!(ctx.metrics.counter("stage.pins_shed_for_arena").get(), 0);
    assert_eq!(rig.state.stats.batches_published, 12);
    let out = rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    assert!(finished(&out), "everything is acked");
    while !rig.spills.is_empty() {
        rig.spill_next();
    }
    rig.close();
    assert!(ctx.registry.is_empty());
    assert_eq!(ctx.metrics.counter("replay.log_batches").get(), 0);
    assert_eq!(
        rig.state.log().unwrap().lock().retained_range(),
        Some((0, 11))
    );
    pool.drain();
    assert_eq!(arena.slots_in_use(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acked_pins_alone_holding_a_dry_arena_close_the_join_window_early() {
    // No log, the whole epoch inside the join window: acked batches stay
    // pinned, and once they hold every slot nothing but a publish could
    // free one — and a publish needs a slot.
    let (ctx, pool) = arena_ctx("shed", 6, 6);
    let config = cfg(1, 1.0);
    let mut prep = Preparer::new(&config, ctx.registry.lease_pool(None));
    let mut rig = Rig::new(&ctx, config, 8);
    rig.attach(1);
    for seq in 0..3 {
        let item = prepared(&mut prep, seq, 8);
        rig.item(item);
    }
    rig.ack(1, 0);
    rig.ack(1, 1);
    // Dry, but seq 2 is still un-acked: its ack will free a slot, so the
    // window stays open and the state waits.
    let mut dry = || false;
    assert!(prep.push(batch(3, 8), false, &mut dry).is_err(), "dry");
    rig.step(Event::Prepared(FeederMsg::ArenaDry));
    assert_eq!(rig.state.wait(), Wait::Arena);
    assert_eq!(rig.state.win.live.len(), 3);
    assert_eq!(ctx.metrics.gauge("stage.pin_depth").get(), 3.0);
    // The last ack arrives; now only acked pins hold the arena.
    rig.ack(1, 2);
    assert_eq!(ctx.metrics.counter("stage.pins_shed_for_arena").get(), 3);
    assert!(rig.state.win.live.is_empty());
    assert_eq!(ctx.metrics.gauge("stage.pin_depth").get(), 0.0);
    let item = prepared(&mut prep, 3, 8);
    assert_eq!(batches(&rig.item(item)).len(), 1);
    // The window is shut for the rest of the epoch: a joiner that would
    // have been replayed into now waits for the next one.
    let out = rig.join(2, PayloadMode::Shm);
    assert!(admit_of(&out).is_none(), "{out:?}");
    assert_eq!(rig.state.members.pending_join.len(), 1);
    // And the watchdog names the state it saw.
    rig.ack(1, 3);
    rig.step(Event::Prepared(FeederMsg::ArenaDry));
    for _ in 0..8 {
        rig.tick_after(30 * MS);
    }
    assert!(
        ctx.trace.verdict().starts_with("arena-bound parked"),
        "verdict: {:?}",
        ctx.trace.verdict()
    );
    assert_eq!(ctx.metrics.counter("watchdog.stalls.arena").get(), 1);
    rig.step(Event::Stop);
    rig.close();
    pool.drain();
    assert_eq!(ctx.arena().unwrap().slots_in_use(), 0);
}

#[test]
fn a_batch_no_slot_can_hold_fails_the_pipeline_with_a_counted_reason() {
    let (ctx, _pool) = arena_ctx("toolarge", 4, 4);
    let config = cfg(1, 0.02);
    let mut prep = Preparer::new(&config, ctx.registry.lease_pool(None));
    let big = Tensor::from_u8(vec![7; 8192], &[4, 2048], DeviceId::Cpu).unwrap();
    let mut b = batch(0, 1);
    b.fields = vec![big];
    let mut dry = || panic!("TooLarge is not a reason to wait");
    let reason = prep.push(b, true, &mut dry).err().expect("cannot fit");
    assert!(reason.contains("8192"), "{reason}");
    let mut rig = Rig::new(&ctx, config, 1);
    rig.attach(1);
    let out = rig.step(Event::Prepared(FeederMsg::Failed(reason)));
    assert!(finished(&out), "nothing outstanding: the run ends");
    assert_eq!(ctx.metrics.counter("producer.feeder_failed").get(), 1);
    assert_eq!(ctx.metrics.counter("stage.publish_copy_bytes").get(), 0);
}

/// Bytes of the one field of a [`big_batch`]: a log frame of this size
/// makes the catch-up budget a handful of frames.
const BIG_FIELD: usize = 512 << 10;

/// Loader batch `index` of `total` with a [`BIG_FIELD`]-byte field.
fn big_batch(index: usize, total: usize) -> Batch {
    let field = vec![index as u8; BIG_FIELD];
    Batch {
        fields: vec![Tensor::from_u8(field, &[4, BIG_FIELD / 4], DeviceId::Cpu).unwrap()],
        ..batch(index, total)
    }
}

/// A logging producer whose first epoch — `frames` big batches — is
/// published, acked by consumer 1 and spilled but for the last `lag`
/// batches (those wait in `Rig::spills`), and a late group member
/// (consumer 2) that was parked, admitted at the boundary and has just
/// asked for the log from its oldest record. Returns the rig, what that
/// last step emitted, and the log directory.
fn late_group_behind_a_logged_epoch(
    tag: &str,
    frames: usize,
    lag: usize,
) -> (Rig, Vec<Out>, std::path::PathBuf) {
    let ctx = TsContext::host_only();
    let (mut rig, dir) = late_group_in(&ctx, tag, frames, lag, PayloadMode::Shm);
    let out = ask_for_the_log(&mut rig);
    (rig, out, dir)
}

/// [`late_group_behind_a_logged_epoch`] in `ctx` (with an arena bound,
/// the feeder leases from its pool), the late member joining in `mode`,
/// up to just before it asks for the log ([`ask_for_the_log`]).
fn late_group_in(
    ctx: &TsContext,
    tag: &str,
    frames: usize,
    lag: usize,
    mode: PayloadMode,
) -> (Rig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ts-step-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = cfg(2, 0.02);
    config.log = Some(ts_log::LogConfig::new(&dir));
    let log = TensorProducer::open_log(ctx, config.log.as_ref().unwrap(), None, 0).unwrap();
    let mut prep = Preparer::new(&config, ctx.registry.lease_pool(None));
    let mut rig = Rig::coordinated(ctx, config, frames as u64, None, Some(log));
    rig.attach(1);
    for index in 0..frames {
        let last = index + 1 == frames;
        let mut never = || panic!("the arena ran dry");
        let item = prep.push(big_batch(index, frames), last, &mut never);
        rig.item(item.unwrap().unwrap());
        rig.ack(1, index as u64);
        if index + lag < frames {
            rig.spill_next();
        }
        if index == frames / 2 {
            // Past the join window: parked until the boundary.
            let out = rig.join(2, mode);
            assert!(admit_of(&out).is_none(), "{out:?}");
        }
    }
    assert_eq!(rig.ctx.metrics.counter("producer.joins_parked").get(), 1);
    let out = rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    assert_eq!(admit_of(&out), Some((1, 0, frames as u64)));
    assert!(
        batches(&rig.ready(2)).is_empty(),
        "nothing pinned behind it"
    );
    (rig, dir)
}

/// Consumer 2 asks for the log from its oldest record.
fn ask_for_the_log(rig: &mut Rig) -> Vec<Out> {
    rig.ctrl(CtrlMsg::Replay {
        consumer_id: 2,
        group: "late".into(),
        from: ReplayFrom::Oldest,
    })
}

/// Frames the catch-up budget lets out un-acked when each weighs `len`.
fn budgets_worth(len: u64) -> usize {
    (CATCH_UP_BUDGET.div_ceil(len) as usize).max(CATCH_UP_MIN_FRAMES)
}

#[test]
fn a_logged_catch_up_sends_a_windows_worth_then_one_frame_per_ack() {
    let (mut rig, out, dir) = late_group_behind_a_logged_epoch("window", 64, 0);
    let inflight = rig.ctx.metrics.gauge("replay.inflight_bytes");
    // The answer and the first frame leave in the same step.
    assert!(matches!(
        &out[0],
        Out::Msg(
            _,
            DataMsg::LogInfo {
                start_seq: 0,
                live_seq: 64,
                ..
            }
        )
    ));
    let mut sent = batches(&out);
    assert_eq!(sent, [(topics::consumer(2), 0)]);
    let frame_len = inflight.get() as u64;
    assert!(
        frame_len > BIG_FIELD as u64,
        "one frame un-acked: {frame_len}"
    );
    // No ack ever comes: the window fills, a frame a step, then there is
    // nothing left to do but wait.
    while rig.state.busy() {
        let out = rig.tick_after(0);
        assert_eq!(batches(&out).len(), 1, "a busy step sends a frame");
        sent.extend(batches(&out));
    }
    let window = budgets_worth(frame_len);
    assert!((CATCH_UP_MIN_FRAMES..16).contains(&window), "{window}");
    assert_eq!(sent.len(), window, "exactly the budget's worth");
    assert_eq!(inflight.get() as u64, window as u64 * frame_len);
    assert!(
        rig.state.deadline() > rig.now,
        "parked until the tick, no spin"
    );
    assert_eq!(rig.state.deadline(), rig.state.inst.next_tick);
    // Every ack lets exactly the next frame out, to the end.
    for acked in 0..64u64 {
        let out = rig.ack(2, acked);
        let next = acked + window as u64;
        let expect: Vec<_> = (next < 64)
            .then(|| (topics::consumer(2), next))
            .into_iter()
            .collect();
        assert_eq!(batches(&out), expect, "after ack {acked}");
        sent.extend(expect);
    }
    let all: Vec<_> = (0..64u64).map(|seq| (topics::consumer(2), seq)).collect();
    assert_eq!(sent, all, "each seq exactly once, in order");
    assert!(!rig.state.busy());
    assert_eq!(inflight.get(), 0.0, "no catch-up, nothing in flight");
    assert_eq!(rig.ctx.metrics.counter("replay.gate_timeouts").get(), 0);
    assert_eq!(rig.ctx.metrics.counter("replay.log_batches").get(), 64);
    assert_eq!(rig.ctx.metrics.counter("log.read_corrupt").get(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shut_gate_never_decides_liveness_and_a_leave_removes_the_job() {
    let (mut rig, out, dir) = late_group_behind_a_logged_epoch("timeout", 24, 0);
    let timeouts = rig.ctx.metrics.counter("replay.gate_timeouts");
    let mut sent = batches(&out);
    while rig.state.busy() {
        sent.extend(batches(&rig.tick_after(0)));
    }
    let window = sent.len() as u64;
    // Less than a tick of silence: nothing moves.
    assert!(batches(&rig.tick_after(TICK_NS / 2)).is_empty());
    assert_eq!(timeouts.get(), 0);
    // A whole tick without an ack: one frame goes anyway, and is counted.
    let out = rig.tick_after(TICK_NS);
    assert_eq!(batches(&out), [(topics::consumer(2), window)]);
    assert_eq!(timeouts.get(), 1);
    assert!(!rig.state.busy(), "the gate is still shut");
    assert!(
        batches(&rig.tick_after(MS)).is_empty(),
        "one per silent tick"
    );
    // The consumer leaves while gated: the job goes with it.
    let out = rig.ctrl(CtrlMsg::Leave { consumer_id: 2 });
    assert!(batches(&out).is_empty(), "{out:?}");
    assert!(rig.state.members.replays.is_empty());
    assert_eq!(rig.ctx.metrics.gauge("replay.inflight_bytes").get(), 0.0);
    for _ in 0..4 {
        assert!(batches(&rig.tick_after(TICK_NS)).is_empty());
    }
    assert_eq!(timeouts.get(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_catch_up_that_overtakes_the_spiller_leaves_no_hole() {
    // The job's range ends at the consumer's first live seq, not at what
    // the spiller has appended: the last six frames are not in the log
    // when the job starts. Whatever the window lets out before the
    // spiller gets there is the live batch, streamed; after that the live
    // batches — long acked by consumer 1 — are freed and the log serves
    // the rest. A frame is looked up when it is sent, so there is always
    // one of the two.
    let (mut rig, out, dir) = late_group_behind_a_logged_epoch("lag", 24, 6);
    assert_eq!(rig.spills.len(), 6);
    let mut sent = batches(&out);
    while rig.state.busy() {
        sent.extend(batches(&rig.tick_after(0)));
    }
    let window = sent.len() as u64;
    assert!(window < 18, "the tail is beyond the window: {sent:?}");
    assert_eq!(rig.state.win.live.len(), 6, "held for the spiller");
    // Acks let the job run two frames into what only `live` has ...
    for acked in 0..20 - window {
        sent.extend(batches(&rig.ack(2, acked)));
    }
    assert_eq!(sent.last(), Some(&(topics::consumer(2), 19)));
    // ... then the spiller catches up, and the log is the only owner.
    while !rig.spills.is_empty() {
        sent.extend(batches(&rig.spill_next()));
    }
    assert!(rig.state.win.live.is_empty(), "the log has them now");
    for acked in 20 - window..24 {
        sent.extend(batches(&rig.ack(2, acked)));
    }
    let all: Vec<_> = (0..24u64).map(|seq| (topics::consumer(2), seq)).collect();
    assert_eq!(sent, all, "each seq exactly once, in order, no hole");
    assert!(rig.state.members.replays.is_empty());
    assert_eq!(rig.ctx.metrics.counter("replay.log_batches").get(), 24);
    assert_eq!(rig.ctx.metrics.counter("replay.gate_timeouts").get(), 0);
    assert_eq!(rig.ctx.metrics.counter("log.read_corrupt").get(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pin_replay_of_pointer_announces_is_not_held_to_the_frame_floor() {
    // Twenty ~100-byte announces are nowhere near the byte budget: they
    // all go without a single ack from the joiner.
    let ctx = TsContext::host_only();
    let config = cfg(1, 1.0);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 24);
    rig.attach(1);
    for seq in 0..20 {
        let item = prepared(&mut prep, seq, 24);
        rig.item(item);
        rig.ack(1, seq as u64);
    }
    assert_eq!(admit_of(&rig.join(2, PayloadMode::Shm)), Some((0, 0, 0)));
    let mut sent = batches(&rig.ready(2));
    while rig.state.busy() {
        sent.extend(batches(&rig.tick_after(0)));
    }
    let all: Vec<_> = (0..20u64).map(|seq| (topics::consumer(2), seq)).collect();
    assert!(all.len() > CATCH_UP_MIN_FRAMES);
    assert_eq!(sent, all);
    assert!(rig.state.members.replays.is_empty());
    assert_eq!(ctx.metrics.counter("replay.gate_timeouts").get(), 0);
}

#[test]
fn a_rejoining_members_logged_range_goes_out_ahead_of_its_own_pin_replay() {
    // A group member that left in epoch 0 comes back inside epoch 1's
    // join window, beside an active consumer: it is admitted at the epoch
    // start (pins replayed on `Ready`) and asks for the log from its
    // cursor. It delivers — and acks — the logged range first, so that is
    // the order the frames must leave in.
    let ctx = TsContext::host_only();
    let dir = std::env::temp_dir().join(format!("ts-step-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = cfg(2, 1.0);
    config.log = Some(ts_log::LogConfig::new(&dir));
    let log = TensorProducer::open_log(&ctx, config.log.as_ref().unwrap(), None, 0).unwrap();
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::coordinated(&ctx, config, 4, None, Some(log));
    rig.attach(1);
    let publish = |rig: &mut Rig, prep: &mut Preparer, index: usize, seq: u64| {
        let item = prepared(prep, index, 4);
        rig.item(item);
        rig.ack(1, seq);
        rig.spill_next();
    };
    for seq in 0..4 {
        publish(&mut rig, &mut prep, seq, seq as u64);
    }
    rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    for seq in 4..6 {
        publish(&mut rig, &mut prep, seq - 4, seq as u64);
    }
    // Admitted at epoch 1's first seq; `Ready` starts the pin replay.
    assert_eq!(admit_of(&rig.join(2, PayloadMode::Shm)), Some((1, 0, 4)));
    assert_eq!(batches(&rig.ready(2)), [(topics::consumer(2), 4)]);
    let mut sent = batches(&rig.ctrl(CtrlMsg::Replay {
        consumer_id: 2,
        group: "g".into(),
        from: ReplayFrom::Seq(1),
    }));
    while rig.state.busy() {
        sent.extend(batches(&rig.tick_after(0)));
    }
    let order: Vec<u64> = sent.iter().map(|(_, seq)| *seq).collect();
    assert_eq!(
        order,
        [1, 2, 3, 5],
        "the logged range, then the rest of the pins"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acks_for_the_logged_range_are_the_demoted_pin_replays_sign_of_life() {
    // The same rejoin with frames that weigh something: the pin replay (a
    // stream-mode consumer gets whole batches) shuts its gate before the
    // `Replay` request moves the logged range ahead of it. While the
    // consumer works through that range it cannot ack a pin frame, but it
    // is anything but silent: when the pin job is the front again, a tick
    // must not find it timed out.
    let ctx = TsContext::host_only();
    let dir = std::env::temp_dir().join(format!("ts-step-demoted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = cfg(2, 1.0);
    config.log = Some(ts_log::LogConfig::new(&dir));
    let log = TensorProducer::open_log(&ctx, config.log.as_ref().unwrap(), None, 0).unwrap();
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::coordinated(&ctx, config, 12, None, Some(log));
    let timeouts = ctx.metrics.counter("replay.gate_timeouts");
    rig.attach(1);
    let publish = |rig: &mut Rig, prep: &mut Preparer, seq: usize| {
        let mut never = || panic!("no arena, nothing to run dry");
        let item = prep.push(big_batch(seq % 12, 12), seq % 12 == 11, &mut never);
        rig.item(item.unwrap().unwrap());
        rig.ack(1, seq as u64);
        rig.spill_next();
    };
    for seq in 0..12 {
        publish(&mut rig, &mut prep, seq);
    }
    rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    for seq in 12..23 {
        publish(&mut rig, &mut prep, seq);
    }
    assert_eq!(
        admit_of(&rig.join(2, PayloadMode::Stream)),
        Some((1, 0, 12))
    );
    let mut sent = batches(&rig.ready(2));
    while rig.state.busy() {
        sent.extend(batches(&rig.tick_after(0)));
    }
    let window = sent.len() as u64;
    assert!(
        (2..11).contains(&window),
        "the pin replay is gated: {window}"
    );
    // The logged range 9..12 goes out ahead of the rest of the pins.
    sent.extend(batches(&rig.ctrl(CtrlMsg::Replay {
        consumer_id: 2,
        group: "g".into(),
        from: ReplayFrom::Seq(9),
    })));
    while rig.state.busy() {
        sent.extend(batches(&rig.tick_after(0)));
    }
    assert_eq!(sent.len() as u64, window + 3);
    assert_eq!(rig.state.members.replays.len(), 1, "the pin job is front");
    // More than a tick after the pin job last sent, the consumer acks its
    // way through the range; housekeeping runs inside these steps.
    rig.now += TICK_NS;
    for acked in 9..12 {
        assert!(batches(&rig.ack(2, acked)).is_empty(), "pins un-acked");
        rig.now += TICK_NS / 2;
    }
    assert_eq!(timeouts.get(), 0, "an acking consumer is not silent");
    // Then the pins, an ack a frame, to the live end.
    for acked in 12..23 {
        sent.extend(batches(&rig.ack(2, acked)));
    }
    let order: Vec<u64> = sent.iter().map(|(_, seq)| *seq).collect();
    let pins_then_range = (12..12 + window).chain(9..12);
    let expect: Vec<u64> = pins_then_range.chain(12 + window..23).collect();
    assert_eq!(order, expect);
    assert!(rig.state.members.replays.is_empty());
    assert_eq!(timeouts.get(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_join_that_reached_an_empty_shard_first_still_gets_this_shards_prefix() {
    // ROADMAP item 2, schedule (vi). This shard (0 of 2) has consumer 1 and
    // is two batches into the epoch when consumer 2's JOIN reaches shard 1
    // — which has not even seen consumer 1's yet — first. Deciding "nobody
    // is training" from shard 1's empty member list would admit consumer 2
    // at THIS shard's current position, past two batches it then never
    // gets.
    let coord = Arc::new(EpochCoordinator::new(2, Duration::from_secs(5)));
    let ctx = TsContext::host_only();
    let config = cfg(1, 1.0);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::coordinated(&ctx, config, 4, Some(coord.clone()), None);
    coord.arrive(0, 1, 0, 4);
    rig.tick_after(0);
    rig.attach(1);
    for index in 0..2 {
        let item = prepared(&mut prep, index, 4);
        assert_eq!(batches(&rig.item(item)).len(), 1);
    }
    // Shard 1 asks first: the decision every shard will repeat.
    assert_eq!(coord.decide_join(rig.now, 2).0, GroupJoin::AdmitReplay);
    let out = rig.join(2, PayloadMode::Shm);
    assert_eq!(admit_of(&out), Some((0, 0, 0)), "from the epoch's start");
    let mut replayed = batches(&rig.ready(2));
    while rig.state.busy() {
        replayed.extend(batches(&rig.tick_after(0)));
    }
    let seqs: Vec<u64> = replayed.iter().map(|(_, seq)| *seq).collect();
    assert_eq!(seqs, [0, 1], "the prefix, replayed");
}

#[test]
fn a_ready_that_lands_after_the_epoch_boundary_is_still_replayed_the_prefix() {
    // A joiner admitted behind the whole (tiny) epoch; the feeder's
    // `EpochDone` is handled before the joiner's `Ready`, so the join
    // window — and with it the pin range — is gone when the catch-up is
    // queued. The admission said "from seq 0": it gets seq 0 and 1.
    let ctx = TsContext::host_only();
    let config = cfg(2, 1.0);
    let mut prep = Preparer::new(&config, None);
    let mut rig = Rig::new(&ctx, config, 2);
    rig.attach(1);
    for index in 0..2 {
        rig.item(prepared(&mut prep, index, 2));
        rig.ack(1, index as u64);
    }
    assert_eq!(admit_of(&rig.join(2, PayloadMode::Shm)), Some((0, 0, 0)));
    rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    let mut replayed = batches(&rig.ready(2));
    while rig.state.busy() {
        replayed.extend(batches(&rig.tick_after(0)));
    }
    let seqs: Vec<u64> = replayed.iter().map(|(_, seq)| *seq).collect();
    assert_eq!(seqs, [0, 1], "admitted from seq 0, replayed from seq 0");
    // Epoch 1 goes out once the joiner has caught up.
    rig.ack(2, 0);
    rig.ack(2, 1);
    let out = rig.item(prepared(&mut prep, 0, 2));
    assert_eq!(batches(&out).len(), 1);
    assert_eq!(rig.state.stats.batches_published, 3);
}

#[test]
fn a_batch_that_arrives_placed_is_adopted_and_any_other_is_copied_once() {
    // What a loader with the pool bound hands the feeder: every tensor a
    // view of the slot it was built in, carrying the lease. The preparer
    // takes the leases — no second slot, no byte moved — and the publish
    // step registers the very slots the loader wrote.
    let (ctx, pool) = arena_ctx("placed", 8, 8);
    let arena = ctx.arena().unwrap();
    let config = cfg(1, 0.0);
    let mut prep = Preparer::new(&config, ctx.registry.lease_pool(None));
    let mut rig = Rig::new(&ctx, config, 2);
    rig.attach(1);
    let heap = batch(0, 2);
    let in_slot = |t: &Tensor| {
        let mut buf = ts_tensor::BatchBuf::like(1, t, Some(&pool)).unwrap();
        buf.push(t).unwrap();
        let shape = t.shape().to_vec();
        buf.freeze().unwrap().reshape(&shape).unwrap()
    };
    let placed = Batch {
        fields: heap.fields.iter().map(in_slot).collect(),
        labels: in_slot(&heap.labels),
        ..batch(0, 2)
    };
    assert_eq!(arena.slots_in_use(), 2);
    let mut never = || panic!("the arena ran dry");
    let item = prep.push(placed, false, &mut never).unwrap().unwrap();
    let copied = |item: &PreparedItem| -> u64 {
        let placements = item.placements.iter();
        placements.map(|p| p.as_ref().expect("placed").copied).sum()
    };
    assert_eq!(copied(&item), 0);
    assert_eq!(arena.slots_in_use(), 2, "adopted, not placed again");
    let slots: Vec<u32> = item
        .placements
        .iter()
        .map(|p| p.as_ref().unwrap().lease.handle().slot)
        .collect();
    let ids: Vec<u64> = item.fields.iter().map(Tensor::storage_id).collect();
    rig.item(item);
    let registered = ctx.registry.shm_handle(ids[0]).unwrap();
    assert_eq!(registered.slot, slots[0], "the slot the loader wrote");
    // The same batch from the heap: one copy of its 64 bytes.
    let item = prep.push(batch(1, 2), true, &mut never).unwrap().unwrap();
    assert_eq!(copied(&item), 64);
    rig.item(item);
    assert_eq!(ctx.metrics.counter("stage.collate_copy_bytes").get(), 64);
    assert_eq!(ctx.metrics.counter("stage.publish_copy_bytes").get(), 0);
    rig.ack(1, 0);
    rig.ack(1, 1);
    rig.step(Event::Prepared(FeederMsg::EpochDone(0)));
    rig.close();
    assert!(ctx.registry.is_empty());
    pool.drain();
    assert_eq!(arena.slots_in_use(), 0);
}

// -- the slot lane: log frames to pointer consumers through arena slots ------

/// An arena of `nslots` slots a [`big_batch`]'s field fits in, its pool as
/// deep as the arena.
fn big_arena_ctx(tag: &str, nslots: usize) -> (TsContext, ts_tensor::SlotPool) {
    let ctx = TsContext::host_only();
    let path = std::env::temp_dir().join(format!("ts-step-{tag}-{}.arena", std::process::id()));
    ctx.create_arena(&path, nslots, BIG_FIELD).unwrap();
    let pool = ctx.enable_slot_recycling(nslots).unwrap();
    (ctx, pool)
}

/// Slots the rig's producer holds registered: two per live batch and one
/// per tensor of every slot-backed catch-up frame not acked yet.
fn held_slots(rig: &Rig) -> usize {
    let held = rig.state.members.held.iter();
    2 * rig.state.win.live.len() + held.map(|h| h.storages.len()).sum::<usize>()
}

/// Every slot in use is held by the producer or idle in the pool: none
/// leaked, none counted twice.
fn assert_conserved(rig: &Rig, pool: &ts_tensor::SlotPool) {
    let arena = pool.arena();
    assert_eq!(
        arena.slots_in_use(),
        held_slots(rig) + pool.free_count(),
        "leased + live + free must cover every slot in use"
    );
    assert_eq!(rig.ctx.registry.len(), held_slots(rig));
}

/// `(seq, came as pointers)` of every batch frame to consumer 2 in `out`.
/// A pointer frame is unpacked through the registry and must hold
/// [`big_batch`] `seq`'s bytes; a byte frame must carry them.
fn frames_to_2(ctx: &TsContext, out: &[Out]) -> Vec<(u64, bool)> {
    let mut got = Vec::new();
    for o in out {
        let Out::Msg(topic, DataMsg::Batch(a)) = o else {
            continue;
        };
        assert_eq!(*topic, topics::consumer(2));
        let want = big_batch(a.seq as usize, 1);
        let (field, labels, pointers) = match &a.content {
            AnnounceContent::Shared { fields, labels } => {
                let unpack = |p: &TensorPayload| p.unpack(&ctx.registry).unwrap();
                assert!(fields.iter().chain([labels]).all(|p| p.shm.is_some()));
                (unpack(&fields[0]), unpack(labels), true)
            }
            AnnounceContent::Streamed { fields, labels } => {
                let cpu = DeviceId::Cpu;
                let rebuilt = |t: &StreamedTensor| t.to_tensor(cpu).unwrap();
                (rebuilt(&fields[0]), rebuilt(labels), false)
            }
            other => panic!("seq {}: {other:?}", a.seq),
        };
        assert!(field.data_eq(&want.fields[0]), "seq {} field", a.seq);
        assert!(labels.data_eq(&want.labels), "seq {} labels", a.seq);
        got.push((a.seq, pointers));
    }
    got
}

#[test]
fn a_pointer_joiners_logged_range_comes_through_arena_slots_held_until_acked() {
    const FRAMES: u64 = 16;
    let (ctx, pool) = big_arena_ctx("slot-lane", 16);
    let (mut rig, dir) = late_group_in(&ctx, "slot-lane", FRAMES as usize, 0, PayloadMode::Shm);
    assert!(rig.state.win.live.is_empty(), "epoch 0 acked and logged");
    assert_conserved(&rig, &pool);
    let out = ask_for_the_log(&mut rig);
    let mut sent = frames_to_2(&ctx, &out);
    while rig.state.busy() {
        sent.extend(frames_to_2(&ctx, &rig.tick_after(0)));
        assert_conserved(&rig, &pool);
    }
    // A frame pins a 512 KiB slot per tensor: the window is 4 frames, and
    // they are what the producer holds.
    let window = budgets_worth(2 * BIG_FIELD as u64);
    assert_eq!(window, 4);
    let seqs = |sent: &[(u64, bool)]| -> Vec<u64> { sent.iter().map(|f| f.0).collect() };
    assert_eq!(seqs(&sent), (0..window as u64).collect::<Vec<_>>());
    assert!(sent.iter().all(|f| f.1), "pointer announces: {sent:?}");
    assert_eq!(rig.state.members.held.len(), window);
    let inflight = ctx.metrics.gauge("replay.inflight_bytes");
    assert_eq!(inflight.get() as usize, window * 2 * BIG_FIELD);
    // Every ack gives back exactly the acked frame's two slots and lets the
    // next frame lease two; the window never holds more.
    for acked in 0..FRAMES {
        let out = rig.ack(2, acked);
        let next = frames_to_2(&ctx, &out);
        let expect = acked + window as u64;
        let want: Vec<_> = (expect < FRAMES)
            .then_some((expect, true))
            .into_iter()
            .collect();
        assert_eq!(next, want, "after ack {acked}");
        sent.extend(next);
        let held = &rig.state.members.held;
        assert!(held.len() <= window);
        assert!(held.iter().all(|h| h.seq > acked && h.storages.len() == 2));
        assert_conserved(&rig, &pool);
    }
    assert_eq!(
        seqs(&sent),
        (0..FRAMES).collect::<Vec<_>>(),
        "each once, in order"
    );
    assert!(rig.state.members.held.is_empty());
    assert_eq!(inflight.get(), 0.0);
    let counter = |name: &str| ctx.metrics.counter(name).get();
    assert_eq!(counter("replay.slot_frames"), FRAMES);
    assert_eq!(counter("replay.slot_fallbacks"), 0);
    assert_eq!(counter("replay.log_batches"), FRAMES);
    assert_eq!(counter("replay.gate_timeouts"), 0);
    assert_eq!(counter("stage.publish_copy_bytes"), 0);
    rig.step(Event::Stop);
    rig.close();
    assert!(ctx.registry.is_empty());
    pool.drain();
    assert_eq!(pool.arena().slots_in_use(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_leave_or_an_expiry_mid_catch_up_gives_every_slot_back() {
    for expire in [false, true] {
        let tag = if expire { "slot-expire" } else { "slot-leave" };
        let (ctx, pool) = big_arena_ctx(tag, 16);
        let (mut rig, dir) = late_group_in(&ctx, tag, 12, 0, PayloadMode::Shm);
        ask_for_the_log(&mut rig);
        while rig.state.busy() {
            rig.tick_after(0);
        }
        rig.ack(2, 0);
        rig.ack(2, 1);
        assert_eq!(rig.state.members.held.len(), 4, "frames 2..6 held");
        assert_conserved(&rig, &pool);
        if expire {
            // Consumer 2 falls silent; consumer 1 keeps beating. Meanwhile
            // a frame goes through the shut gate every silent tick.
            let mut detached = false;
            for _ in 0..40 {
                rig.ctrl(CtrlMsg::Heartbeat { consumer_id: 1 });
                let out = rig.tick_after(TICK_NS);
                detached |= out
                    .iter()
                    .any(|o| matches!(o, Out::Msg(_, DataMsg::Detached { consumer_id: 2 })));
                assert_conserved(&rig, &pool);
                if detached {
                    break;
                }
            }
            assert!(detached, "consumer 2 expired");
        } else {
            rig.ctrl(CtrlMsg::Leave { consumer_id: 2 });
        }
        assert!(rig.state.members.held.is_empty(), "{tag}");
        assert!(rig.state.members.replays.is_empty(), "{tag}");
        assert_eq!(ctx.registry.len(), 0, "{tag}: nothing else is live");
        assert_conserved(&rig, &pool);
        assert_eq!(pool.arena().slots_in_use(), pool.free_count(), "{tag}");
        rig.step(Event::Stop);
        rig.close();
        pool.drain();
        assert_eq!(pool.arena().slots_in_use(), 0, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_dry_pool_sends_the_stored_bytes_counts_them_and_leaks_nothing() {
    // A catch-up never waits on the arena: publishing waits on it. With one
    // free slot a frame leases its field and cannot lease its labels, so
    // the field's slot goes back and the stored frame goes as it is.
    let (ctx, pool) = big_arena_ctx("slot-dry", 8);
    let arena = pool.arena().clone();
    let (mut rig, dir) = late_group_in(&ctx, "slot-dry", 12, 0, PayloadMode::Shm);
    let mut hog: Vec<_> = std::iter::from_fn(|| pool.lease(BIG_FIELD).ok()).collect();
    assert_eq!(hog.len(), 8, "every slot leased");
    drop(hog.pop());
    let out = ask_for_the_log(&mut rig);
    let mut sent = frames_to_2(&ctx, &out);
    while rig.state.busy() {
        sent.extend(frames_to_2(&ctx, &rig.tick_after(0)));
    }
    // A byte frame weighs its own ~512 KiB.
    let window = budgets_worth(BIG_FIELD as u64 + 1);
    let want: Vec<(u64, bool)> = (0..window as u64).map(|seq| (seq, false)).collect();
    assert_eq!(sent, want, "stored bytes, a byte frame's window of them");
    let counter = |name: &str| ctx.metrics.counter(name).get();
    assert_eq!(counter("replay.slot_fallbacks"), window as u64);
    assert_eq!(counter("replay.slot_frames"), 0);
    assert!(rig.state.members.held.is_empty());
    assert_eq!(
        arena.slots_in_use(),
        hog.len(),
        "no half-leased frame kept a slot"
    );
    // The arena comes back: the next frame is slot-backed again.
    drop(hog);
    let next = window as u64;
    assert_eq!(frames_to_2(&ctx, &rig.ack(2, 0)), [(next, true)]);
    assert_eq!(counter("replay.slot_frames"), 1);
    assert_conserved(&rig, &pool);
    rig.step(Event::Stop);
    rig.close();
    pool.drain();
    assert_eq!(arena.slots_in_use(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stream_mode_joiner_still_gets_the_stored_bytes() {
    let (ctx, pool) = big_arena_ctx("slot-stream", 8);
    let (mut rig, dir) = late_group_in(&ctx, "slot-stream", 6, 0, PayloadMode::Stream);
    let out = ask_for_the_log(&mut rig);
    let mut sent = frames_to_2(&ctx, &out);
    while rig.state.busy() {
        sent.extend(frames_to_2(&ctx, &rig.tick_after(0)));
    }
    for acked in 0..6 {
        sent.extend(frames_to_2(&ctx, &rig.ack(2, acked)));
    }
    let want: Vec<(u64, bool)> = (0..6).map(|seq| (seq, false)).collect();
    assert_eq!(sent, want);
    let counter = |name: &str| ctx.metrics.counter(name).get();
    assert_eq!(counter("replay.slot_frames"), 0);
    assert_eq!(counter("replay.slot_fallbacks"), 0, "bytes are its mode");
    assert_eq!(counter("replay.log_batches"), 6);
    assert!(rig.state.members.held.is_empty());
    assert_conserved(&rig, &pool);
    rig.step(Event::Stop);
    rig.close();
    pool.drain();
    assert_eq!(pool.arena().slots_in_use(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
