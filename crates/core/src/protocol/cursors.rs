//! Acknowledgement cursors: how far each consumer has got, the one fact
//! both producer rules read.
//!
//! Release: "The producer will release the associated memory when all
//! consumers are finished with it." (§3.2.3) Window: "consumers can hold
//! up to N batches […] and for the consumers to drift at most N batches
//! apart." (§3.2.5)
//!
//! Acks are cumulative. A consumer acks a shard's batches in the order
//! they were delivered, so an ack of `seq` says it is done with `seq` and
//! everything before it, and the table keeps one word per consumer: the
//! first seq it has not acked. The word starts at the seq the consumer was
//! admitted at and only moves up; an ack behind it changes nothing.
//!
//! The smallest word is the **frontier** (with nobody attached, the next
//! seq). A batch is fully acked exactly when `seq < frontier`: a joiner
//! admitted at the current seq owes nothing behind it, and one admitted at
//! the epoch start (a rubberband join) lowers the frontier, so the batches
//! it will be replayed are held again until it acks them. The window is
//! open while `next_seq - frontier < N`. With no consumers it is closed —
//! "there is no need for any data loading" (§3.2.1).
//!
//! An ack at or past the next seq names a batch that was never published:
//! [`Cursors::ack`] refuses it and moves nothing.

use std::ops::Range;

/// Per-consumer acked-through words over one shard's seq space.
#[derive(Debug, Clone)]
pub struct Cursors {
    capacity: u64,
    next_seq: u64,
    /// `(consumer, first seq it has not acked)`. A handful of entries: a
    /// scan is cheaper than any index.
    cursors: Vec<(u64, u64)>,
    /// The smallest cursor, or `next_seq` when there is none.
    frontier: u64,
}

impl Cursors {
    /// A table whose consumers may each hold up to `capacity` batches.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1) as u64,
            next_seq: 0,
            cursors: Vec::new(),
            frontier: 0,
        }
    }

    /// Sequence number the next published batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every batch below this seq is fully acked.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Batches published and not yet fully acked.
    pub fn outstanding(&self) -> u64 {
        self.next_seq - self.frontier
    }

    /// The consumers that still owe an ack for `seq`.
    pub fn owers(&self, seq: u64) -> impl Iterator<Item = u64> + '_ {
        let owes = move |&(id, cursor): &(u64, u64)| (cursor <= seq).then_some(id);
        self.cursors.iter().filter_map(owes)
    }

    /// True when the producer may publish the next batch: someone is
    /// attached and the slowest consumer holds fewer than N batches.
    pub fn can_publish(&self) -> bool {
        !self.cursors.is_empty() && self.outstanding() < self.capacity
    }

    /// Records that the next batch was published; returns its seq.
    pub fn published(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.cursors.is_empty() {
            self.frontier = self.next_seq;
        }
        seq
    }

    /// Registers `consumer` as owing every batch from `at_seq` on (capped
    /// at the next seq). Below the frontier, those batches are held again.
    /// A consumer already registered keeps its one word, lowered if need be.
    pub fn add(&mut self, consumer: u64, at_seq: u64) {
        let at = at_seq.min(self.next_seq);
        match self.slot(consumer) {
            Some(i) => self.cursors[i].1 = self.cursors[i].1.min(at),
            None => self.cursors.push((consumer, at)),
        }
        self.refresh();
    }

    /// Unregisters `consumer` (left or detached); returns the seqs that
    /// became fully acked.
    pub fn remove(&mut self, consumer: u64) -> Range<u64> {
        let before = self.frontier;
        if let Some(i) = self.slot(consumer) {
            self.cursors.swap_remove(i);
            self.refresh();
        }
        before..self.frontier
    }

    /// Records that `consumer` finished `seq` and everything before it.
    /// Returns the seqs that became fully acked (often none), or `None`
    /// when `seq` was never published: such an ack is refused whole.
    pub fn ack(&mut self, consumer: u64, seq: u64) -> Option<Range<u64>> {
        if seq >= self.next_seq {
            return None;
        }
        let before = self.frontier;
        if let Some(i) = self.slot(consumer) {
            let cursor = &mut self.cursors[i].1;
            if seq >= *cursor {
                let was_slowest = *cursor == before;
                *cursor = seq + 1;
                if was_slowest {
                    self.refresh();
                }
            }
        }
        Some(before..self.frontier)
    }

    fn slot(&self, consumer: u64) -> Option<usize> {
        self.cursors.iter().position(|&(id, _)| id == consumer)
    }

    fn refresh(&mut self) {
        let min = self.cursors.iter().map(|&(_, cursor)| cursor).min();
        self.frontier = min.unwrap_or(self.next_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_without_consumers() {
        let c = Cursors::new(2);
        assert!(!c.can_publish());
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn a_batch_published_to_nobody_is_fully_acked_at_once() {
        let mut c = Cursors::new(2);
        assert_eq!(c.published(), 0);
        assert_eq!((c.frontier(), c.outstanding()), (1, 0));
    }

    #[test]
    fn basic_publish_ack_cycle() {
        let mut c = Cursors::new(2);
        c.add(1, 0);
        assert!(c.can_publish());
        assert_eq!(c.published(), 0);
        assert!(c.can_publish());
        assert_eq!(c.published(), 1);
        // buffer full (N=2, nothing acked)
        assert!(!c.can_publish());
        assert_eq!(c.ack(1, 0), Some(0..1));
        assert!(c.can_publish());
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    fn releases_after_all_acks() {
        let mut c = Cursors::new(4);
        for id in [1, 2, 3] {
            c.add(id, 0);
        }
        c.published();
        assert_eq!(c.ack(1, 0), Some(0..0));
        assert_eq!(c.ack(2, 0), Some(0..0));
        assert_eq!(c.ack(3, 0), Some(0..1), "the last ack releases");
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn pending_count_tracks_outstanding() {
        let mut c = Cursors::new(8);
        c.add(1, 0);
        c.add(2, 0);
        for _ in 0..5 {
            c.published();
        }
        for seq in 0..5 {
            c.ack(1, seq);
        }
        assert_eq!(c.outstanding(), 5);
        for seq in 0..5 {
            assert_eq!(c.ack(2, seq), Some(seq..seq + 1));
        }
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn slowest_consumer_gates_publishing() {
        let mut c = Cursors::new(2);
        c.add(1, 0);
        c.add(2, 0);
        c.published();
        c.published();
        c.ack(1, 0);
        c.ack(1, 1);
        // consumer 2 has acked nothing
        assert!(!c.can_publish());
        assert_eq!(c.owers(0).collect::<Vec<_>>(), [2]);
        assert_eq!(c.ack(2, 0), Some(0..1));
        assert!(c.can_publish());
    }

    #[test]
    fn drift_never_exceeds_capacity_under_random_acks() {
        // Publish whenever allowed, ack consumers unevenly: outstanding
        // stays within N.
        let n = 3;
        let mut c = Cursors::new(n);
        c.add(1, 0);
        c.add(2, 0);
        let mut acked = [0u64; 2];
        for round in 0..1000u64 {
            while c.can_publish() {
                c.published();
            }
            assert!(c.outstanding() <= n as u64);
            // consumer 1 acks aggressively, consumer 2 lags
            for (i, due) in [(0, true), (1, round % 3 == 0)] {
                if due && acked[i] < c.next_seq() {
                    c.ack(i as u64 + 1, acked[i]);
                    acked[i] += 1;
                }
            }
        }
    }

    #[test]
    fn reacks_and_stale_acks_ignored() {
        let mut c = Cursors::new(4);
        c.add(1, 0);
        for _ in 0..4 {
            c.published();
        }
        assert_eq!(c.ack(1, 2), Some(0..3), "cumulative: 0, 1 and 2");
        assert_eq!(c.ack(1, 0), Some(3..3), "stale");
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    fn duplicate_and_unknown_acks_are_harmless() {
        let mut c = Cursors::new(4);
        c.add(1, 0);
        c.add(2, 0);
        c.published();
        assert_eq!(c.ack(1, 0), Some(0..0));
        assert_eq!(c.ack(1, 0), Some(0..0), "duplicate");
        assert_eq!(c.ack(9, 0), Some(0..0), "never shared with 9");
        assert_eq!(c.ack(2, 0), Some(0..1));
    }

    #[test]
    fn an_ack_past_the_head_is_refused() {
        let mut c = Cursors::new(2);
        c.add(1, 0);
        c.add(2, 0);
        assert_eq!(c.ack(2, 100), None);
        assert_eq!(c.ack(1, u64::MAX), None);
        assert_eq!(c.ack(1, 0), None, "seq 0 is not published yet");
        assert_eq!(c.frontier(), 0);
        assert!(c.can_publish());
        c.published();
        assert_eq!(c.ack(1, 1), None);
        assert_eq!(c.ack(1, 0), Some(0..0));
        assert_eq!(c.ack(2, 0), Some(0..1));
    }

    #[test]
    fn detach_releases_batches_waiting_only_on_that_consumer() {
        let mut c = Cursors::new(4);
        c.add(1, 0);
        c.add(2, 0);
        for _ in 0..3 {
            c.published();
        }
        c.ack(1, 1);
        // consumer 2 vanishes: everything it alone held up releases
        assert_eq!(c.remove(2), 0..2);
        assert_eq!(c.remove(1), 2..3);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn remove_consumer_reopens_window() {
        let mut c = Cursors::new(1);
        c.add(1, 0);
        c.add(2, 0);
        c.published();
        c.ack(1, 0);
        assert!(!c.can_publish());
        assert_eq!(c.remove(2), 0..1);
        assert!(c.can_publish());
        assert_eq!(c.remove(1), 1..1);
        assert!(!c.can_publish(), "empty again");
    }

    #[test]
    fn late_consumer_starts_at_given_seq() {
        let mut c = Cursors::new(2);
        c.add(1, 0);
        for seq in 0..10 {
            c.published();
            c.ack(1, seq);
        }
        // joining at the current seq owes nothing behind it
        c.add(2, 10);
        assert_eq!(c.frontier(), 10);
        assert!(c.can_publish());
        // a newcomer replayed from an earlier seq halts the window until
        // it catches up (rubberbanding)
        c.add(3, 5);
        assert!(!c.can_publish());
        assert_eq!(c.ack(3, 9), Some(5..10));
        assert!(c.can_publish());
    }

    #[test]
    fn rubberband_joiner_reholds_its_replayed_range() {
        let mut c = Cursors::new(4);
        c.add(1, 0);
        for seq in 0..3 {
            c.published();
            c.ack(1, seq);
        }
        assert_eq!(c.frontier(), 3, "all three released once");
        c.add(2, 0);
        assert_eq!(c.frontier(), 0, "held again for the joiner");
        assert_eq!(c.owers(1).collect::<Vec<_>>(), [2]);
        assert_eq!(c.ack(2, 0), Some(0..1));
        assert_eq!(c.ack(2, 2), Some(1..3), "released a second time");
    }

    #[test]
    fn one_word_per_consumer_and_none_past_the_head() {
        let mut c = Cursors::new(2);
        c.add(1, 0);
        c.published();
        c.add(1, 1);
        assert_eq!(c.owers(0).collect::<Vec<_>>(), [1], "still owes seq 0");
        assert_eq!(c.ack(1, 0), Some(0..1));
        c.add(2, 7);
        assert_eq!(c.owers(1).collect::<Vec<_>>(), [1, 2], "capped at the head");
    }
}
