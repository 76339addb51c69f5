//! Batch-order variation (§3.2.7) and the sharded-stream interleave.
//!
//! With a single shared loader all consumers would see identical batches in
//! identical order. For hyper-parameter tuning it can help to decorrelate
//! them. Two composable mechanisms:
//!
//! 1. **Offsets** — each consumer carves its flexible batches from the
//!    producer batch at a different starting offset, so batch *contents*
//!    differ between consumers.
//! 2. **Shuffling** — each consumer visits its carved batches in a
//!    per-(consumer, producer-batch) pseudorandom order, so batch *order*
//!    differs between consumers.
//!
//! Both are deterministic given the seed, so runs remain reproducible.
//!
//! The third mechanism here is the opposite of decorrelation:
//! [`ShardInterleave`] is the deterministic merge order a consumer applies
//! to the streams of a sharded producer group, so that *every* consumer of
//! the group sees one bit-stable batch sequence regardless of shard count
//! or network timing — the `(epoch, shard, seq)` ordering contract.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Order-variation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrderConfig {
    /// Give each consumer a distinct carving offset.
    pub offsets: bool,
    /// Shuffle each consumer's batch order within a producer batch.
    pub shuffle: bool,
    /// Seed for both mechanisms.
    pub seed: u64,
}

impl OrderConfig {
    /// The carving offset for the `consumer_index`-th consumer of
    /// `producer_batch` samples.
    ///
    /// Offsets spread consumers evenly across the producer batch, which
    /// maximizes content divergence between any two consumers.
    pub fn offset_for(
        &self,
        consumer_index: usize,
        num_consumers: usize,
        producer_batch: usize,
    ) -> usize {
        if !self.offsets || num_consumers == 0 || producer_batch == 0 {
            return 0;
        }
        (consumer_index * producer_batch) / num_consumers
    }

    /// The visit order of `n` planned batches for `consumer_id` within
    /// producer batch `pb_seq`.
    pub fn visit_order(&self, consumer_id: u64, pb_seq: u64, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        if self.shuffle && n > 1 {
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    ^ consumer_id.wrapping_mul(0x9E3779B97F4A7C15)
                    ^ pb_seq.wrapping_mul(0xD1B54A32D192ED03),
            );
            order.shuffle(&mut rng);
        }
        order
    }
}

/// The deterministic merge cursor over a sharded producer group's streams.
///
/// Each shard publishes an ordered sequence of announcements, positioned
/// by `(epoch, index_in_epoch)`. A consumer subscribed to all shards must
/// deliver them in one global order so training is reproducible: the
/// **`(epoch, shard, seq)` contract** — announcements are delivered
/// sorted by `(epoch, index_in_epoch, shard)`, which for shards aligned
/// at an epoch boundary is a plain round-robin (`s0[0], s1[0], …, s0[1],
/// s1[1], …`) that naturally skips exhausted shards on uneven tails.
///
/// The cursor is pure bookkeeping: [`ShardInterleave::next_shard`] names
/// the shard whose announcement must be delivered next, and
/// [`ShardInterleave::advance`] moves that shard's position after the
/// delivery (rolling into its next epoch on `last_in_epoch`). A shard
/// whose stream ended is removed with [`ShardInterleave::end_shard`];
/// when all shards ended, `next_shard` returns `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInterleave {
    /// Per shard: `Some((epoch, index))` of the next expected
    /// announcement, `None` once the shard's stream ended.
    cursors: Vec<Option<(u64, u64)>>,
}

impl ShardInterleave {
    /// A cursor over `starts.len()` shards, shard `s` positioned at
    /// `starts[s] = (epoch, index_in_epoch)` (as told by its join reply —
    /// `(joined_epoch, replay_from)`).
    pub fn new(starts: Vec<(u64, u64)>) -> Self {
        Self {
            cursors: starts.into_iter().map(Some).collect(),
        }
    }

    /// Number of shards (ended ones included).
    pub fn num_shards(&self) -> usize {
        self.cursors.len()
    }

    /// The next expected `(epoch, index)` of a shard, `None` once ended.
    pub fn cursor(&self, shard: usize) -> Option<(u64, u64)> {
        self.cursors[shard]
    }

    /// The shard whose announcement is globally next — the live shard with
    /// the minimal `(epoch, index, shard)` cursor — or `None` when every
    /// shard has ended.
    pub fn next_shard(&self) -> Option<usize> {
        self.cursors
            .iter()
            .enumerate()
            .filter_map(|(s, c)| c.map(|(e, i)| (e, i, s)))
            .min()
            .map(|(_, _, s)| s)
    }

    /// Records that `shard`'s current announcement was delivered: its
    /// cursor moves to the next index, or to `(epoch + 1, 0)` when the
    /// delivered announcement closed the shard's epoch. (Saturating: the
    /// starts come off the wire, and a position at `u64::MAX` must not
    /// panic a debug build.)
    pub fn advance(&mut self, shard: usize, last_in_epoch: bool) {
        if let Some((epoch, index)) = self.cursors[shard] {
            self.cursors[shard] = Some(if last_in_epoch {
                (epoch.saturating_add(1), 0)
            } else {
                (epoch, index.saturating_add(1))
            });
        }
    }

    /// Marks `shard`'s stream as ended (its producer published `End`).
    pub fn end_shard(&mut self, shard: usize) {
        self.cursors[shard] = None;
    }

    /// True when every shard's stream has ended.
    pub fn all_ended(&self) -> bool {
        self.cursors.iter().all(|c| c.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_identity() {
        let c = OrderConfig::default();
        assert_eq!(c.offset_for(2, 4, 100), 0);
        assert_eq!(c.visit_order(7, 3, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn offsets_spread_consumers_evenly() {
        let c = OrderConfig {
            offsets: true,
            ..Default::default()
        };
        assert_eq!(c.offset_for(0, 4, 128), 0);
        assert_eq!(c.offset_for(1, 4, 128), 32);
        assert_eq!(c.offset_for(2, 4, 128), 64);
        assert_eq!(c.offset_for(3, 4, 128), 96);
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let c = OrderConfig {
            shuffle: true,
            seed: 5,
            ..Default::default()
        };
        let a = c.visit_order(1, 0, 8);
        let b = c.visit_order(1, 0, 8);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_varies_across_consumers_and_producer_batches() {
        let c = OrderConfig {
            shuffle: true,
            seed: 5,
            ..Default::default()
        };
        // With 16 entries the chance of identical permutations is ~0.
        assert_ne!(c.visit_order(1, 0, 16), c.visit_order(2, 0, 16));
        assert_ne!(c.visit_order(1, 0, 16), c.visit_order(1, 1, 16));
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let c = OrderConfig {
            offsets: true,
            shuffle: true,
            seed: 0,
        };
        assert_eq!(c.offset_for(0, 0, 128), 0);
        assert_eq!(c.offset_for(1, 4, 0), 0);
        assert_eq!(c.visit_order(0, 0, 0), Vec::<usize>::new());
        assert_eq!(c.visit_order(0, 0, 1), vec![0]);
    }

    /// Drives an interleave over shards with the given per-epoch batch
    /// counts; returns the delivered (shard, epoch, index) sequence.
    fn drive(counts: &[u64], epochs: u64) -> Vec<(usize, u64, u64)> {
        let mut il = ShardInterleave::new(vec![(0, 0); counts.len()]);
        let mut out = Vec::new();
        while let Some(s) = il.next_shard() {
            let (epoch, index) = il.cursor(s).unwrap();
            if epoch == epochs {
                il.end_shard(s);
                continue;
            }
            out.push((s, epoch, index));
            il.advance(s, index + 1 == counts[s]);
        }
        assert!(il.all_ended());
        out
    }

    #[test]
    fn aligned_shards_round_robin() {
        let seq = drive(&[2, 2], 1);
        assert_eq!(seq, vec![(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]);
    }

    #[test]
    fn uneven_tails_drop_out_of_rotation() {
        // shard 0 has 3 batches, shard 1 has 2: shard 0 finishes alone.
        let seq = drive(&[3, 2], 2);
        assert_eq!(
            seq,
            vec![
                (0, 0, 0),
                (1, 0, 0),
                (0, 0, 1),
                (1, 0, 1),
                (0, 0, 2), // shard 1 exhausted: tail delivered from shard 0
                (0, 1, 0),
                (1, 1, 0),
                (0, 1, 1),
                (1, 1, 1),
                (0, 1, 2),
            ]
        );
    }

    #[test]
    fn interleave_is_sorted_by_epoch_index_shard() {
        let seq = drive(&[4, 2, 3], 2);
        let mut sorted = seq.clone();
        sorted.sort_by_key(|&(s, e, i)| (e, i, s));
        assert_eq!(
            seq, sorted,
            "delivery order is the (epoch, index, shard) sort"
        );
        assert_eq!(seq.len(), 2 * (4 + 2 + 3));
    }

    #[test]
    fn single_shard_is_a_plain_sequence() {
        let seq = drive(&[3], 1);
        assert_eq!(seq, vec![(0, 0, 0), (0, 0, 1), (0, 0, 2)]);
    }

    #[test]
    fn mid_epoch_starts_order_consistently() {
        // A mid-epoch joiner's cursors start at each shard's replay_from.
        let mut il = ShardInterleave::new(vec![(0, 2), (0, 1)]);
        assert_eq!(il.next_shard(), Some(1), "lowest index first");
        il.advance(1, false);
        assert_eq!(il.next_shard(), Some(0));
    }
}
