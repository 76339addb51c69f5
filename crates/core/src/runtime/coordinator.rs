//! The epoch coordinator for sharded producer groups.
//!
//! One feeder+publisher pair per node is the paper's shape; on many-GPU
//! nodes a single producer saturates one NUMA domain, so the dataset is
//! sharded across `N` producer pipelines (what
//! [`crate::ProducerBuilder::spawn_sharded`] spawns) — one per shard,
//! each owning a disjoint partition of the epoch (see
//! `ts_data::ShardedSampler`). Sharding only pays off if epoch and shard
//! boundaries stay consistent under worker skew; the
//! [`EpochCoordinator`] is the in-process authority that keeps them so:
//!
//! * **Lockstep epoch boundaries** — a generation barrier: no shard
//!   starts publishing epoch `e + 1` until every live shard finished `e`.
//!   Shards keep servicing their control channels (acks, heartbeats,
//!   joins) while parked at the barrier, so consumers never starve.
//! * **One admission decision per consumer** — each shard receives its
//!   own copy of a consumer's `Join`, at slightly different times. The
//!   first shard to ask decides — against the *group* state (every
//!   shard's publish progress vs. its rubberband pin window, every
//!   shard's member count) — and the decision is memoized, so every shard
//!   answers the same consumer the same way. A joiner admitted mid-epoch
//!   therefore replays a consistent epoch prefix from **every** shard,
//!   not just the one that processed its join first; and "nobody is
//!   training, start at the current position" is only said when it is
//!   true of every shard, never because the shard that happened to ask
//!   first has not seen the other consumer's `Join` yet.
//! * **A shared rubberband pin set** — a shard may only release its
//!   pinned epoch prefix once no shard can admit a joiner anymore *and*
//!   no decided admission is still waiting to be applied on it. This
//!   closes the race where shard `B` publishes past its pin boundary in
//!   the instant between shard `A` admitting a consumer and `B`
//!   processing that consumer's join: the batches `B` published in that
//!   window stay pinned and are replayed.
//!
//! The coordinator is deliberately poll-based (no condvars): producer
//! loops already park on their control channels with a bounded wait, and
//! the barrier piggybacks on that rhythm.
//!
//! # Time
//!
//! The coordinator reads no clock. Every method that stamps a decided
//! admission, or may find one expired, takes `now`: nanoseconds on the
//! caller's clock, the `u64` a shard's `State::step` was handed. In
//! production that is the flight recorder's clock of the group's one
//! [`crate::TsContext`], so every shard stamps and expires on one
//! timeline; in a test it is a number the script advances. Shards step on
//! their own threads, so a call may carry a `now` slightly behind the
//! previous one: an age is a saturating difference, and such a call
//! simply expires nothing.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// The group-level outcome of a consumer's join, shared by every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupJoin {
    /// Admit now; each shard replays its pinned epoch prefix.
    AdmitReplay,
    /// Admit at each shard's current position (no consumer was active, so
    /// there is nothing to halt and nothing that must be replayed).
    AdmitAtCurrent,
    /// Defer to the next coordinated epoch boundary.
    WaitNextEpoch,
}

#[derive(Debug)]
struct CoordInner {
    /// Completed barrier count; shards wait for a target generation.
    generation: u64,
    /// Shards arrived at the pending barrier.
    arrived: u32,
    /// Epoch the pending barrier opens.
    pending_epoch: u64,
    /// Epoch the group currently publishes (set when a barrier opens);
    /// every join decision is stamped with it, so a shard still parked
    /// at an already-open barrier can tell the decision belongs to an
    /// epoch it has not begun yet and defer instead of applying its
    /// stale pre-boundary state.
    epoch: u64,
    /// Live shards (a retired shard no longer counts toward the barrier).
    active: Vec<bool>,
    /// Per-shard publish progress within the current epoch.
    published: Vec<u64>,
    /// Per-shard rubberband pin boundary for the current epoch.
    pin_limit: Vec<u64>,
    /// Per shard: consumers admitted there right now.
    members: Vec<u64>,
    /// Memoized join decisions for the current epoch, by consumer id.
    decisions: HashMap<u64, GroupJoin>,
    /// Per shard: admissions decided but not yet applied locally
    /// (consumer id → the `now` it was decided at, for expiry).
    unapplied: Vec<HashMap<u64, u64>>,
    stopped: bool,
}

/// Coordinates `N` shard producers: lockstep epoch boundaries, memoized
/// group join decisions, and the shared rubberband pin set. See the
/// module docs for the invariants, and for what `now` is.
///
/// A `shard` argument indexes the per-shard state and must be below
/// [`EpochCoordinator::num_shards`]. It never comes off the wire: the one
/// caller outside tests is a pipeline's `State`, passing the shard index
/// the builder spawned it with under this very coordinator. Anything else
/// is a bug in the caller and panics on the index.
#[derive(Debug)]
pub struct EpochCoordinator {
    shards: usize,
    /// An admission left unapplied for this long (ns) is abandoned (the
    /// consumer died, or its join never reached the shard) so it cannot
    /// wedge the barrier or pin memory forever.
    apply_timeout: u64,
    inner: Mutex<CoordInner>,
}

impl EpochCoordinator {
    /// A coordinator for `shards` producer pipelines. `apply_timeout`
    /// bounds how long a decided admission may stay unapplied (use the
    /// producer's heartbeat timeout).
    pub fn new(shards: usize, apply_timeout: Duration) -> Self {
        assert!(shards >= 1, "coordinator needs at least one shard");
        Self {
            shards,
            apply_timeout: apply_timeout.as_nanos() as u64,
            inner: Mutex::new(CoordInner {
                generation: 0,
                arrived: 0,
                pending_epoch: 0,
                epoch: 0,
                active: vec![true; shards],
                published: vec![0; shards],
                pin_limit: vec![0; shards],
                members: vec![0; shards],
                decisions: HashMap::new(),
                unapplied: vec![HashMap::new(); shards],
                stopped: false,
            }),
        }
    }

    /// Number of shards the coordinator was built for.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    fn try_open(&self, now: u64, inner: &mut CoordInner) {
        for shard_unapplied in &mut inner.unapplied {
            shard_unapplied.retain(|_, decided| now.saturating_sub(*decided) < self.apply_timeout);
        }
        let active = inner.active.iter().filter(|a| **a).count() as u32;
        let applied_everywhere = inner
            .unapplied
            .iter()
            .zip(&inner.active)
            .all(|(u, active)| !active || u.is_empty());
        if active > 0 && inner.arrived >= active && applied_everywhere {
            inner.generation += 1;
            inner.arrived = 0;
            inner.epoch = inner.pending_epoch;
            inner.published.iter_mut().for_each(|p| *p = 0);
            inner.decisions.clear();
        }
    }

    /// A shard announces it finished the previous epoch and is ready to
    /// publish `epoch` (expecting `pin_limit` pinned batches under the
    /// rubberband policy). Returns the barrier generation to wait for via
    /// [`EpochCoordinator::reached`].
    pub fn arrive(&self, now: u64, shard: u32, epoch: u64, pin_limit: u64) -> u64 {
        let mut inner = self.inner.lock();
        inner.pin_limit[shard as usize] = pin_limit;
        inner.published[shard as usize] = 0;
        inner.pending_epoch = epoch;
        inner.arrived += 1;
        let target = inner.generation + 1;
        self.try_open(now, &mut inner);
        target
    }

    /// True once barrier generation `target` has opened. Re-evaluates the
    /// barrier so expired unapplied admissions cannot wedge it.
    pub fn reached(&self, now: u64, target: u64) -> bool {
        let mut inner = self.inner.lock();
        if inner.generation < target {
            self.try_open(now, &mut inner);
        }
        inner.generation >= target
    }

    /// A shard reports its publish progress within the current epoch.
    pub fn note_published(&self, shard: u32, published_in_epoch: u64) {
        self.inner.lock().published[shard as usize] = published_in_epoch;
    }

    /// A shard reports how many consumers it has admitted right now.
    pub fn note_members(&self, shard: u32, members: usize) {
        self.inner.lock().members[shard as usize] = members as u64;
    }

    /// No active shard has a consumer, and no admission decided for one is
    /// still on its way to a shard.
    fn nobody_training(inner: &CoordInner) -> bool {
        let idle = |shard: usize| inner.members[shard] == 0 && inner.unapplied[shard].is_empty();
        (0..inner.active.len()).all(|shard| !inner.active[shard] || idle(shard))
    }

    fn group_window_open(inner: &CoordInner) -> bool {
        inner.arrived == 0
            && inner
                .published
                .iter()
                .zip(&inner.pin_limit)
                .zip(&inner.active)
                .all(|((p, limit), active)| !active || *p <= *limit)
    }

    /// True while shard `shard` must keep its epoch prefix pinned: either
    /// the group join window is still open (a consumer admitted by any
    /// shard would replay from all of them), or an already-decided
    /// admission has not been applied on this shard yet.
    pub fn pin_window_open(&self, shard: u32) -> bool {
        let inner = self.inner.lock();
        Self::group_window_open(&inner) || !inner.unapplied[shard as usize].is_empty()
    }

    /// Decides (or recalls) the group outcome for consumer `id`'s join,
    /// returning the decision and the **epoch it was made for** (the
    /// group's current epoch). A caller whose own admission state
    /// (`pin_epoch`) lags the decision epoch — it is still parked at a
    /// barrier that already opened — must not apply the admission with
    /// its stale pre-boundary state; it defers to its next
    /// `begin_epoch`, which admits with the decision epoch's state.
    ///
    /// The first shard to ask decides against global state; everyone else
    /// gets the memo. Mid-epoch with nobody training on ANY shard
    /// ([`EpochCoordinator::note_members`]) selects the
    /// admit-at-current-position path the paper allows; one shard's empty
    /// member list is not enough — another shard may already be serving a
    /// consumer whose `Join` is still on its way here, and a joiner admitted
    /// at that shard's current position would never see its prefix.
    ///
    /// An admission is stamped `now` on every active shard and holds the
    /// barrier and the group's pins until each has
    /// [`EpochCoordinator::applied`] it, or `apply_timeout` has passed.
    pub fn decide_join(&self, now: u64, id: u64) -> (GroupJoin, u64) {
        let mut inner = self.inner.lock();
        if let Some(d) = inner.decisions.get(&id) {
            return (*d, inner.epoch);
        }
        let decision = if inner.stopped || inner.arrived > 0 {
            // A shard already crossed into the next epoch boundary: defer
            // everyone to the boundary so no shard admits into an epoch
            // another shard has finished.
            GroupJoin::WaitNextEpoch
        } else if inner
            .published
            .iter()
            .zip(&inner.active)
            .all(|(p, active)| !active || *p == 0)
        {
            GroupJoin::AdmitReplay
        } else if Self::nobody_training(&inner) {
            GroupJoin::AdmitAtCurrent
        } else if Self::group_window_open(&inner) {
            GroupJoin::AdmitReplay
        } else {
            GroupJoin::WaitNextEpoch
        };
        inner.decisions.insert(id, decision);
        if matches!(decision, GroupJoin::AdmitReplay | GroupJoin::AdmitAtCurrent) {
            let inner = &mut *inner;
            for (unapplied, active) in inner.unapplied.iter_mut().zip(&inner.active) {
                if *active {
                    unapplied.insert(id, now);
                }
            }
        }
        (decision, inner.epoch)
    }

    /// Shard `shard` applied consumer `id`'s admission (replayed its pins
    /// and armed its window).
    pub fn applied(&self, now: u64, shard: u32, id: u64) {
        let mut inner = self.inner.lock();
        inner.unapplied[shard as usize].remove(&id);
        self.try_open(now, &mut inner);
    }

    /// Consumer `id` left or was detached: forget any admission still
    /// waiting to be applied for it.
    pub fn abandon(&self, now: u64, id: u64) {
        let mut inner = self.inner.lock();
        for unapplied in &mut inner.unapplied {
            unapplied.remove(&id);
        }
        self.try_open(now, &mut inner);
    }

    /// Shard `shard`'s producer loop exited; it no longer counts toward
    /// barriers or admission decisions.
    pub fn retire(&self, now: u64, shard: u32) {
        let mut inner = self.inner.lock();
        if std::mem::replace(&mut inner.active[shard as usize], false) {
            inner.unapplied[shard as usize].clear();
            self.try_open(now, &mut inner);
        }
    }

    /// Asks every shard to wind down (set on group abort / spawn failure).
    pub fn stop(&self) {
        self.inner.lock().stopped = true;
    }

    /// True once [`EpochCoordinator::stop`] was called.
    pub fn is_stopped(&self) -> bool {
        self.inner.lock().stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(5);
    const MS: u64 = 1_000_000;

    /// A coordinator whose two shards have opened epoch 0 with `pin_limit`.
    fn in_epoch_zero(apply_timeout: Duration, pin_limit: u64) -> EpochCoordinator {
        let c = EpochCoordinator::new(2, apply_timeout);
        let g = c.arrive(0, 0, 0, pin_limit);
        let _ = c.arrive(0, 1, 0, pin_limit);
        assert!(c.reached(0, g));
        c
    }

    #[test]
    fn barrier_opens_only_when_all_shards_arrive() {
        let c = EpochCoordinator::new(3, T);
        let g0 = c.arrive(0, 0, 0, 1);
        assert!(!c.reached(0, g0));
        let g1 = c.arrive(0, 1, 0, 1);
        assert_eq!(g0, g1);
        assert!(!c.reached(0, g0));
        let _ = c.arrive(0, 2, 0, 1);
        assert!(c.reached(0, g0), "all shards arrived");
        // Next epoch needs a fresh round of arrivals.
        let g_next = c.arrive(MS, 0, 1, 1);
        assert!(!c.reached(MS, g_next));
    }

    #[test]
    fn retired_shards_stop_counting_toward_the_barrier() {
        let c = EpochCoordinator::new(2, T);
        let g = c.arrive(0, 0, 0, 1);
        assert!(!c.reached(0, g));
        c.retire(0, 1);
        assert!(c.reached(0, g), "lone survivor proceeds");
    }

    #[test]
    fn a_stopped_group_admits_nobody() {
        // Every join waits for a boundary the winding-down shards will not
        // open, whatever the window says.
        let c = in_epoch_zero(T, 5);
        c.note_published(0, 1);
        assert!(!c.is_stopped());
        c.stop();
        assert!(c.is_stopped());
        assert_eq!(c.decide_join(MS, 12).0, GroupJoin::WaitNextEpoch);
    }

    #[test]
    fn join_decisions_are_memoized_per_consumer() {
        let c = in_epoch_zero(T, 2);
        c.note_published(0, 1);
        c.note_published(1, 1);
        // Somebody is training: the rubberband path.
        c.note_members(0, 1);
        // Within every shard's pin window: admit, and the memo repeats it.
        assert_eq!(c.decide_join(MS, 7).0, GroupJoin::AdmitReplay);
        // Shard 1 races past its pin boundary before applying…
        c.note_published(1, 5);
        // …but must still answer consumer 7 the same way,
        assert_eq!(c.decide_join(2 * MS, 7).0, GroupJoin::AdmitReplay);
        // …and keep pinning until it applies the admission.
        assert!(c.pin_window_open(1));
        c.applied(2 * MS, 0, 7);
        c.applied(2 * MS, 1, 7);
        assert!(!c.pin_window_open(1), "window closed once applied");
        // A fresh consumer now waits: shard 1 is past its pin window.
        assert_eq!(c.decide_join(3 * MS, 8).0, GroupJoin::WaitNextEpoch);
    }

    #[test]
    fn joins_defer_once_any_shard_reaches_the_boundary() {
        let c = in_epoch_zero(T, 10);
        c.note_published(0, 1);
        c.note_published(1, 1);
        // Shard 0 finishes the epoch and arrives for the next one.
        let _ = c.arrive(MS, 0, 1, 10);
        // Even though shard 1 is still inside its pin window, the group
        // defers: admitting now would straddle the epoch boundary.
        assert_eq!(c.decide_join(MS, 9).0, GroupJoin::WaitNextEpoch);
    }

    #[test]
    fn unapplied_admissions_block_and_then_release_the_barrier() {
        let c = in_epoch_zero(Duration::from_millis(40), 5);
        c.note_published(0, 1);
        c.note_members(0, 1);
        let decided = 7 * MS;
        assert_eq!(c.decide_join(decided, 3).0, GroupJoin::AdmitReplay);
        c.applied(decided, 0, 3); // shard 1 never applies (consumer vanished)
        let g2 = c.arrive(decided + MS, 0, 1, 5);
        let _ = c.arrive(decided + MS, 1, 1, 5);
        // One nanosecond short of the timeout the admission still stands:
        // the barrier stays shut, and shard 1 keeps its pins for it.
        let expires = decided + 40 * MS;
        assert!(
            !c.reached(expires - 1, g2),
            "barrier waits for shard 1's unapplied admission"
        );
        assert!(c.pin_window_open(1));
        // A caller whose clock read is older than the stamp expires nothing.
        assert!(!c.reached(decided - MS, g2));
        assert!(c.reached(expires, g2), "expired admission is abandoned");
        assert!(c.pin_window_open(1), "a fresh epoch, a fresh join window");
        assert_eq!(c.decide_join(expires, 4).0, GroupJoin::AdmitReplay);
    }

    #[test]
    fn no_consumer_hint_admits_at_current_position() {
        let c = in_epoch_zero(T, 1);
        c.note_published(0, 3);
        c.note_published(1, 3);
        assert_eq!(c.decide_join(MS, 4).0, GroupJoin::AdmitAtCurrent);
        // The memo answers the other shard identically, whatever happened
        // there in between.
        c.applied(MS, 0, 4);
        c.note_members(0, 1);
        assert_eq!(c.decide_join(2 * MS, 4).0, GroupJoin::AdmitAtCurrent);
    }

    #[test]
    fn nobody_training_is_a_fact_about_the_group() {
        // ROADMAP item 1, schedule (vi): shard 0 has a consumer and has
        // published; a second consumer's join reaches shard 1 — which has
        // not even seen the first one's yet — first. Deciding from shard
        // 1's empty member list would admit it at shard 0's current
        // position, past a prefix it never gets.
        let c = in_epoch_zero(T, 4);
        assert_eq!(c.decide_join(MS, 1).0, GroupJoin::AdmitReplay); // all at zero
        c.applied(MS, 0, 1);
        c.note_members(0, 1);
        c.note_published(0, 2);
        assert_eq!(c.decide_join(2 * MS, 2).0, GroupJoin::AdmitReplay);
        // Everybody gone mid-epoch: now the current position is right, but
        // only once no earlier admission is still on its way to a shard.
        c.note_members(0, 0);
        assert_eq!(c.decide_join(3 * MS, 3).0, GroupJoin::AdmitReplay);
        for id in [1, 2, 3] {
            c.abandon(3 * MS, id);
        }
        assert_eq!(c.decide_join(4 * MS, 4).0, GroupJoin::AdmitAtCurrent);
    }

    #[test]
    fn abandon_clears_unapplied_everywhere() {
        let c = in_epoch_zero(T, 5);
        c.note_published(0, 1);
        c.note_members(0, 1);
        assert_eq!(c.decide_join(MS, 11).0, GroupJoin::AdmitReplay);
        assert!(c.pin_window_open(1));
        c.abandon(MS, 11);
        c.note_published(1, 6); // past the pin limit, nothing unapplied
        assert!(!c.pin_window_open(1));
    }
}
