//! The rules that span a producer's shards, as plain code over their
//! [`State`]s.
//!
//! One feeder+publisher pair per node is the paper's shape; on many-GPU
//! nodes the dataset can be sharded across `N` pipelines instead, each
//! owning a disjoint partition of the epoch (`ts_data::ShardedSampler`).
//! One pump steps every shard's `State` in turn, on one thread, so a
//! shard's step sees the others as they stand and nothing in between can
//! interleave. A producer of one shard is a group of one and runs the same
//! code. Three things hold for every group:
//!
//! * **Lockstep epoch boundaries.** A shard that finished epoch `e` waits
//!   in [`Wait::Barrier`]; once every shard still publishing is there, one
//!   pass opens `e + 1` on all of them. A waiting shard keeps serving acks,
//!   heartbeats and joins, so consumers never starve; a shard that drains
//!   (its last epoch, or its loader failed) no longer counts.
//! * **One admission per consumer.** Every shard receives its own copy of
//!   a consumer's `Join`. The first shard that sees one decides it for the
//!   group, from where every shard stands
//!   ([`crate::protocol::rubberband::admission`]), and the decision is
//!   applied on every shard in the same call. A joiner admitted mid-epoch
//!   therefore replays a consistent prefix from every shard, and "nobody is
//!   training" is said only when it is true of every shard. This is safe
//!   because a consumer has every shard's SUBACK before it sends any
//!   `Join`: each shard's reply reaches it. The later copies find the
//!   joiner known and are dropped.
//! * **Pins that outlive every admission they serve.** A shard pins its
//!   epoch prefix while its own join window is open. The group admits from
//!   the epoch's start only while every shard's window is open, and the
//!   admission is in force on every shard before anything else is
//!   published — from then on the joiner's ack cursor holds the prefix it
//!   owes, whatever the pins do.

use crate::runtime::state::{Effect, Event, State, Wait};

/// The other shards of a group, as they stand while one is stepped.
#[derive(Clone, Copy)]
pub(crate) struct Siblings<'a> {
    before: &'a [State],
    after: &'a [State],
}

impl<'a> Siblings<'a> {
    pub(crate) fn iter(self) -> impl Iterator<Item = &'a State> + Clone {
        self.before.iter().chain(self.after)
    }
}

/// Every shard arrives at epoch 0's barrier, and the group opens it. Call
/// once, before the first [`step`]; `fx` holds one effect buffer per shard.
pub(crate) fn start(shards: &mut [State], now: u64, fx: &mut [Vec<Effect>]) {
    for (shard, fx) in shards.iter_mut().zip(fx.iter_mut()) {
        shard.start(now, fx);
    }
    open_barrier(shards, now, fx);
}

/// Feeds `ev` to shard `s`, applies a join it decided on the others and
/// opens the barrier if that step was the last to reach it. Each shard's
/// effects go to its own buffer in `fx`.
pub(crate) fn step(shards: &mut [State], s: usize, now: u64, ev: Event, fx: &mut [Vec<Effect>]) {
    let (before, rest) = shards.split_at_mut(s);
    let (shard, after) = rest.split_first_mut().expect("a shard of the group");
    shard.step(now, ev, Siblings { before, after }, &mut fx[s]);
    if let Some(joiner) = shard.take_joined() {
        for (t, (other, fx)) in shards.iter_mut().zip(fx.iter_mut()).enumerate() {
            if t != s && other.wait() != Wait::Drain {
                other.join(now, joiner, fx);
            }
        }
    }
    open_barrier(shards, now, fx);
}

/// Opens the next epoch on every shard once every shard still publishing
/// waits at the barrier.
fn open_barrier(shards: &mut [State], now: u64, fx: &mut [Vec<Effect>]) {
    let mut publishing = shards.iter().filter(|s| s.wait() != Wait::Drain);
    if !publishing.all(|s| s.wait() == Wait::Barrier) {
        return;
    }
    for (shard, fx) in shards.iter_mut().zip(fx) {
        if shard.wait() == Wait::Barrier {
            shard.open_epoch(now, fx);
        }
    }
}
