//! Flexible batch sizing: carving per-consumer batches out of a producer
//! batch (§3.2.6, Figure 5).
//!
//! The producer collates loader batches into one contiguous *producer
//! batch* of `P` samples. A consumer requesting batch size `b` receives
//! `ceil(P / b)` batches per producer batch, carved as a circular run over
//! `[0, P)` starting at the consumer's offset. The final batch wraps around
//! and *repeats* early samples to reach `b`; the repeated amount per
//! producer batch is `ceil(P/b)·b − P ≤ b − 1`, matching the paper's bound
//! `max{b_c} − 1` across consumers.
//!
//! Because every consumer finishes exactly one producer batch per "round",
//! all consumers traverse the dataset at the same rate regardless of their
//! batch sizes — the invariant the sharing protocol needs.

use crate::protocol::order::OrderConfig;
use crate::{Result, TsError};

/// A contiguous run of samples within a producer batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First sample index within the producer batch.
    pub start: usize,
    /// Number of samples.
    pub len: usize,
}

/// One consumer batch: one or more segments totalling the batch size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlannedBatch {
    /// Segments in consumption order.
    pub segments: Vec<Segment>,
}

impl PlannedBatch {
    /// Total samples across segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// True when the batch contains no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The consumer batches carved from one producer batch for one consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexPlan {
    /// Producer batch size the plan was computed for.
    pub producer_batch: usize,
    /// Consumer batch size.
    pub consumer_batch: usize,
    /// Carving offset within the producer batch.
    pub offset: usize,
    /// The planned batches, in order.
    pub batches: Vec<PlannedBatch>,
}

impl FlexPlan {
    /// Samples delivered in total (`ceil(P/b) · b`).
    pub fn delivered(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Samples repeated within the producer batch (`delivered − P`).
    pub fn repeated(&self) -> usize {
        self.delivered() - self.producer_batch
    }
}

/// Emits the segments of a circular run of `len` samples starting at
/// `start` over a producer batch of `p` samples.
fn circular_segments(mut start: usize, mut len: usize, p: usize) -> Vec<Segment> {
    let mut out = Vec::with_capacity(2);
    start %= p;
    while len > 0 {
        let take = len.min(p - start);
        out.push(Segment { start, len: take });
        len -= take;
        start = (start + take) % p;
    }
    out
}

/// Plans the batches for one consumer.
///
/// # Errors
/// Fails when `producer_batch` or `consumer_batch` is zero, or when the
/// consumer batch exceeds the producer batch (the paper recommends the
/// producer batch be at least twice the largest consumer batch; we only
/// *require* `b ≤ P`).
pub fn plan_flex(producer_batch: usize, consumer_batch: usize, offset: usize) -> Result<FlexPlan> {
    if producer_batch == 0 || consumer_batch == 0 {
        return Err(TsError::Config(
            "producer and consumer batch sizes must be positive".to_string(),
        ));
    }
    if consumer_batch > producer_batch {
        return Err(TsError::Config(format!(
            "consumer batch {consumer_batch} exceeds producer batch {producer_batch}"
        )));
    }
    let rounds = producer_batch.div_ceil(consumer_batch);
    let mut batches = Vec::with_capacity(rounds);
    for k in 0..rounds {
        let start = offset + k * consumer_batch;
        batches.push(PlannedBatch {
            segments: circular_segments(start, consumer_batch, producer_batch),
        });
    }
    Ok(FlexPlan {
        producer_batch,
        consumer_batch,
        offset: offset % producer_batch,
        batches,
    })
}

/// The batches one consumer carves out of producer batch `seq` of `rows`
/// samples, in the order it delivers them: the consumer asked for `batch`
/// (clamped to `1..=rows`) and is the `index`-th of `members`, whose
/// offset and visit order `order` derives. Every consumer of a flexible
/// producer runs this on the one batch it received; all of it is a pure
/// function of what the consumer knows.
///
/// `index` is fixed at admission as the member count then, so after a
/// leave two members can share an offset; the repeats per producer batch
/// stay below `batch` either way.
///
/// # Errors
/// Fails on an empty producer batch.
pub fn carve(
    rows: usize,
    batch: usize,
    order: &OrderConfig,
    (index, members): (usize, usize),
    consumer_id: u64,
    seq: u64,
) -> Result<Vec<PlannedBatch>> {
    let offset = order.offset_for(index, members.max(1), rows);
    let mut plan = plan_flex(rows, batch.clamp(1, rows.max(1)), offset)?;
    let visits = order.visit_order(consumer_id, seq, plan.batches.len());
    Ok(visits
        .into_iter()
        .map(|k| std::mem::take(&mut plan.batches[k]))
        .collect())
}

/// True when the plan's segments cover every index of the producer batch.
pub fn covers_producer_batch(plan: &FlexPlan) -> bool {
    let mut seen = vec![false; plan.producer_batch];
    for b in &plan.batches {
        for s in &b.segments {
            for slot in seen.iter_mut().skip(s.start).take(s.len) {
                *slot = true;
            }
        }
    }
    seen.into_iter().all(|x| x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_example_consumer_plans() {
        // Figure 5: producer batch 16, consumers request 4, 7 and 6.
        let p4 = plan_flex(16, 4, 0).unwrap();
        assert_eq!(p4.batches.len(), 4);
        assert_eq!(p4.repeated(), 0);

        let p7 = plan_flex(16, 7, 0).unwrap();
        assert_eq!(p7.batches.len(), 3);
        // 3 * 7 - 16 = 5 repeated samples
        assert_eq!(p7.repeated(), 5);
        assert_eq!(
            p7.batches[2].segments,
            vec![Segment { start: 14, len: 2 }, Segment { start: 0, len: 5 }]
        );

        let p6 = plan_flex(16, 6, 0).unwrap();
        assert_eq!(p6.batches.len(), 3);
        assert_eq!(p6.repeated(), 2);

        for p in [&p4, &p7, &p6] {
            assert!(covers_producer_batch(p));
            assert!(p.batches.iter().all(|b| b.len() == p.consumer_batch));
        }
    }

    #[test]
    fn repetition_bound_holds() {
        // paper: repeated share per producer batch < max consumer batch
        for p in [8usize, 16, 64, 100, 128] {
            for b in 1..=p {
                let plan = plan_flex(p, b, 0).unwrap();
                assert!(plan.repeated() < b, "P={p} b={b}");
                assert!(covers_producer_batch(&plan), "P={p} b={b}");
            }
        }
    }

    #[test]
    fn clean_division_has_single_segments() {
        let plan = plan_flex(128, 32, 0).unwrap();
        assert_eq!(plan.batches.len(), 4);
        assert!(plan.batches.iter().all(|b| b.segments.len() == 1));
        assert_eq!(plan.repeated(), 0);
    }

    #[test]
    fn offsets_shift_but_preserve_coverage() {
        let plan = plan_flex(16, 4, 5).unwrap();
        assert_eq!(plan.offset, 5);
        assert_eq!(plan.batches[0].segments[0], Segment { start: 5, len: 4 });
        // third batch wraps: [13..16) + [0..1)
        assert_eq!(
            plan.batches[2].segments,
            vec![Segment { start: 13, len: 3 }, Segment { start: 0, len: 1 }]
        );
        assert!(covers_producer_batch(&plan));
        assert_eq!(plan.repeated(), 0);
    }

    #[test]
    fn offset_larger_than_producer_batch_wraps() {
        let plan = plan_flex(8, 4, 19).unwrap();
        assert_eq!(plan.offset, 3);
        assert!(covers_producer_batch(&plan));
    }

    #[test]
    fn degenerate_sizes_rejected() {
        assert!(plan_flex(0, 4, 0).is_err());
        assert!(plan_flex(16, 0, 0).is_err());
        assert!(plan_flex(16, 17, 0).is_err());
    }

    #[test]
    fn consumer_batch_equal_to_producer_batch() {
        let plan = plan_flex(32, 32, 0).unwrap();
        assert_eq!(plan.batches.len(), 1);
        assert_eq!(plan.repeated(), 0);
        assert!(covers_producer_batch(&plan));
    }

    #[test]
    fn all_consumers_finish_in_one_round() {
        // the lockstep invariant: every consumer consumes exactly one
        // producer batch per round, regardless of batch size
        for b in [4usize, 6, 7, 16] {
            let plan = plan_flex(16, b, 0).unwrap();
            assert_eq!(plan.delivered(), plan.batches.len() * b);
            assert!(plan.delivered() >= 16);
        }
    }
}
