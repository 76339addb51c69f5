//! Rubberbanding: admitting consumers that join shortly after an epoch
//! started.
//!
//! "If a consumer joins before 2% of the dataset has been iterated on in an
//! epoch, the producer will halt all other consumers to let that consumer
//! synchronize. The percentage of the dataset that serves as the cutoff
//! point is configurable." (§3.2.5)
//!
//! The *halt* itself is not implemented here — it emerges from the
//! [`crate::Cursors`]: an admitted late joiner starts with its cursor at
//! the epoch's first batch, which blocks publishing until it catches up.

/// The join window.
#[derive(Debug, Clone, Copy)]
pub struct RubberbandPolicy {
    /// Fraction of the epoch during which late joins are admitted (paper
    /// default 0.02). `0.0` disables rubberbanding entirely.
    pub cutoff: f64,
}

impl Default for RubberbandPolicy {
    fn default() -> Self {
        Self { cutoff: 0.02 }
    }
}

impl RubberbandPolicy {
    /// Number of batches from the start of an epoch that remain pinned for
    /// replay (the join window), for an epoch of `batches_per_epoch`.
    pub fn pinned_batches(&self, batches_per_epoch: u64) -> u64 {
        if self.cutoff <= 0.0 {
            return 0;
        }
        ((batches_per_epoch as f64) * self.cutoff).ceil() as u64
    }

    /// True while the join window of an epoch is still open after
    /// `published_in_epoch` of `batches_per_epoch` batches: a join landing
    /// now would be admitted with a full replay. This is also the pinning
    /// predicate — every shard of a producer keeps its epoch prefix pinned
    /// exactly as long as this holds for it.
    pub fn window_open(&self, published_in_epoch: u64, batches_per_epoch: u64) -> bool {
        published_in_epoch == 0 || published_in_epoch <= self.pinned_batches(batches_per_epoch)
    }
}

/// Where one shard of a producer stands, as a join decision sees it. A
/// producer of one shard is a group of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStand {
    /// The shard finished its epoch and waits at the group's barrier for
    /// the others.
    pub at_barrier: bool,
    /// Batches it published in the current epoch; `u64::MAX` once its join
    /// window was shut early.
    pub published: u64,
    /// Its join window: [`RubberbandPolicy::pinned_batches`] of its epoch.
    pub pinned: u64,
    /// Consumers admitted there.
    pub members: usize,
}

/// Where a group admits a joiner, on every shard alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// At each shard's first batch of the epoch: what is out already is
    /// replayed.
    EpochStart,
    /// At each shard's current position: nobody is training, so there is
    /// nothing to halt and nothing to replay (§3.3.1).
    Current,
    /// At the next epoch boundary.
    NextEpoch,
}

/// Decides a join for the whole group from where every shard stands — so
/// whichever shard is asked, the answer is the same:
///
/// * once any shard waits at the barrier, the joiner waits for the epoch
///   the barrier opens (no shard admits into an epoch another finished);
/// * before any shard published, it starts at the epoch's start;
/// * with nobody admitted on ANY shard, at the current position — one
///   shard's empty member list is not enough, another may be serving a
///   consumer, and a joiner admitted past that shard's prefix would never
///   see it;
/// * while every shard's join window is open, at the epoch's start;
/// * otherwise at the next epoch.
///
/// For one shard with a consumer this is [`RubberbandPolicy::window_open`];
/// with none it is the paper's "consumers may join training at any point
/// in an epoch".
pub fn admission(shards: impl IntoIterator<Item = ShardStand> + Clone) -> Admission {
    let all = |rule: fn(&ShardStand) -> bool| shards.clone().into_iter().all(|s| rule(&s));
    if !all(|s| !s.at_barrier) {
        Admission::NextEpoch
    } else if all(|s| s.published == 0) {
        Admission::EpochStart
    } else if all(|s| s.members == 0) {
        Admission::Current
    } else if all(|s| s.published <= s.pinned) {
        Admission::EpochStart
    } else {
        Admission::NextEpoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stand(published: u64, pinned: u64, members: usize) -> ShardStand {
        ShardStand {
            at_barrier: false,
            published,
            pinned,
            members,
        }
    }

    /// A producer of one shard, with a consumer training, after
    /// `published` of `batches` batches.
    fn alone(p: RubberbandPolicy, published: u64, batches: u64) -> Admission {
        admission([stand(published, p.pinned_batches(batches), 1)])
    }

    #[test]
    fn epoch_boundary_always_admits() {
        let p = RubberbandPolicy { cutoff: 0.0 };
        assert_eq!(alone(p, 0, 1000), Admission::EpochStart);
    }

    #[test]
    fn default_two_percent_window() {
        let p = RubberbandPolicy::default();
        // 2% of 1000 batches = 20 pinned batches
        assert_eq!(p.pinned_batches(1000), 20);
        assert_eq!(alone(p, 20, 1000), Admission::EpochStart);
        assert_eq!(alone(p, 21, 1000), Admission::NextEpoch);
    }

    #[test]
    fn cutoff_rounds_up_for_small_epochs() {
        let p = RubberbandPolicy { cutoff: 0.02 };
        // 2% of 10 batches -> ceil(0.2) = 1 pinned batch
        assert_eq!(p.pinned_batches(10), 1);
        assert_eq!(alone(p, 1, 10), Admission::EpochStart);
        assert_eq!(alone(p, 2, 10), Admission::NextEpoch);
    }

    #[test]
    fn disabled_rubberbanding_waits_mid_epoch() {
        let p = RubberbandPolicy { cutoff: 0.0 };
        assert_eq!(p.pinned_batches(1000), 0);
        assert_eq!(alone(p, 1, 1000), Admission::NextEpoch);
    }

    #[test]
    fn generous_cutoff_admits_late() {
        let p = RubberbandPolicy { cutoff: 0.5 };
        assert_eq!(alone(p, 499, 1000), Admission::EpochStart);
        assert_eq!(alone(p, 501, 1000), Admission::NextEpoch);
    }

    #[test]
    fn nobody_training_is_a_fact_about_the_group() {
        // Alone and nobody training: a mid-epoch join starts where the
        // stream is, however far past the window.
        assert_eq!(admission([stand(500, 20, 0)]), Admission::Current);
        // Schedule (vi): shard 0 serves a consumer two batches in; shard 1
        // has nobody and published nothing. Its empty member list does not
        // make the current position right.
        let group = [stand(2, 4, 1), stand(0, 4, 0)];
        assert_eq!(admission(group), Admission::EpochStart);
        let past = [stand(5, 4, 1), stand(0, 4, 0)];
        assert_eq!(admission(past), Admission::NextEpoch);
        // Everybody gone mid-epoch: now the current position is right.
        assert_eq!(
            admission([stand(5, 4, 0), stand(3, 4, 0)]),
            Admission::Current
        );
    }

    #[test]
    fn joins_defer_once_any_shard_reaches_the_barrier() {
        let mut group = [stand(1, 10, 1), stand(1, 10, 1)];
        assert_eq!(admission(group), Admission::EpochStart);
        group[0].at_barrier = true;
        assert_eq!(admission(group), Admission::NextEpoch);
        // ... whoever is training, whatever the windows say.
        group[1].members = 0;
        group[0].members = 0;
        assert_eq!(admission(group), Admission::NextEpoch);
    }
}
