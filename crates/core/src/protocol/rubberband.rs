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

/// Outcome of a join request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Admit now; replay the epoch's batches starting at `replay_from`
    /// (index within the epoch — always 0 in the paper's scheme).
    AdmitReplay {
        /// First epoch-batch index the consumer must be sent.
        replay_from: u64,
    },
    /// Too late for this epoch; admit when the next epoch starts.
    WaitNextEpoch,
}

/// The admission policy.
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
    /// predicate — a producer (or every shard of a coordinated group) must
    /// keep the epoch prefix pinned exactly as long as this holds.
    pub fn window_open(&self, published_in_epoch: u64, batches_per_epoch: u64) -> bool {
        published_in_epoch == 0 || published_in_epoch <= self.pinned_batches(batches_per_epoch)
    }

    /// Decides a join that arrives after `published_in_epoch` batches of an
    /// epoch with `batches_per_epoch` total have been published.
    ///
    /// A join at the exact epoch boundary (`published_in_epoch == 0`) is
    /// always admitted.
    pub fn decide(&self, published_in_epoch: u64, batches_per_epoch: u64) -> JoinOutcome {
        if self.window_open(published_in_epoch, batches_per_epoch) {
            JoinOutcome::AdmitReplay { replay_from: 0 }
        } else {
            JoinOutcome::WaitNextEpoch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_boundary_always_admits() {
        let p = RubberbandPolicy { cutoff: 0.0 };
        assert_eq!(
            p.decide(0, 1000),
            JoinOutcome::AdmitReplay { replay_from: 0 }
        );
    }

    #[test]
    fn default_two_percent_window() {
        let p = RubberbandPolicy::default();
        // 2% of 1000 batches = 20 pinned batches
        assert_eq!(p.pinned_batches(1000), 20);
        assert_eq!(
            p.decide(20, 1000),
            JoinOutcome::AdmitReplay { replay_from: 0 }
        );
        assert_eq!(p.decide(21, 1000), JoinOutcome::WaitNextEpoch);
    }

    #[test]
    fn cutoff_rounds_up_for_small_epochs() {
        let p = RubberbandPolicy { cutoff: 0.02 };
        // 2% of 10 batches -> ceil(0.2) = 1 pinned batch
        assert_eq!(p.pinned_batches(10), 1);
        assert_eq!(p.decide(1, 10), JoinOutcome::AdmitReplay { replay_from: 0 });
        assert_eq!(p.decide(2, 10), JoinOutcome::WaitNextEpoch);
    }

    #[test]
    fn disabled_rubberbanding_waits_mid_epoch() {
        let p = RubberbandPolicy { cutoff: 0.0 };
        assert_eq!(p.pinned_batches(1000), 0);
        assert_eq!(p.decide(1, 1000), JoinOutcome::WaitNextEpoch);
    }

    #[test]
    fn generous_cutoff_admits_late() {
        let p = RubberbandPolicy { cutoff: 0.5 };
        assert_eq!(
            p.decide(499, 1000),
            JoinOutcome::AdmitReplay { replay_from: 0 }
        );
        assert_eq!(p.decide(501, 1000), JoinOutcome::WaitNextEpoch);
    }
}
