//! Lock-free log-bucketed latency histograms (HDR-style).
//!
//! The paper reports only aggregate rates; the ROADMAP's loadgen/SLO item
//! needs latency *distributions* (p50/p99/p999) recorded from hot paths —
//! the feeder loop, the staging copy stage, the publish loop and the
//! consumer iterator — without ever taking a lock or allocating.
//!
//! [`Histogram::record`] is three `fetch_add`s and one `fetch_max` on
//! pre-allocated atomics: wait-free on x86/aarch64, no mutex anywhere on
//! the record path. Values are bucketed log-linearly — each power-of-two
//! octave is split into `SUB` (32) equal sub-buckets — so any recorded
//! value is off by at most one part in `2 * SUB` (~1.6%) when read back
//! through a quantile, while the whole `u64` range fits in ~1900 buckets
//! (~15 KiB per histogram).
//!
//! Reading happens through [`Histogram::snapshot`], which captures a
//! sparse, order-stable [`HistogramSnapshot`] that can be merged with
//! other snapshots (e.g. across shards) and shipped over the wire by the
//! control-plane stats scrape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// log2 of the number of sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave: values within an octave are resolved to
/// `1/SUB` of the octave width.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: indices `0..SUB`
/// hold the exact values `0..SUB`, and each octave `2^e..2^(e+1)` for
/// `e in SUB_BITS..64` contributes `SUB` more.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Maps a value to its bucket index. Values below `SUB` are exact;
/// larger values share an octave-relative sub-bucket.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let mantissa = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (exp - SUB_BITS + 1) as usize * SUB + mantissa
    }
}

/// Lowest value that maps to bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let group = (idx / SUB) as u32;
        let exp = group - 1 + SUB_BITS;
        let mantissa = (idx % SUB) as u64;
        (1u64 << exp) + (mantissa << (exp - SUB_BITS))
    }
}

/// Width of bucket `idx` (1 for the exact low range).
fn bucket_width(idx: usize) -> u64 {
    if idx < SUB {
        1
    } else {
        let group = (idx / SUB) as u32;
        1u64 << (group - 1)
    }
}

/// A lock-free log-bucketed histogram of `u64` values (typically
/// nanoseconds).
///
/// Recording never blocks, never allocates, and never takes a mutex —
/// safe to call from the feeder, staging, publish and consumer hot
/// paths, including inside the zero-allocation steady state.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`, so build the fixed-size bucket array
        // through a Vec once at construction (never on the record path).
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = v.into_boxed_slice().try_into().unwrap();
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free: three relaxed `fetch_add`s plus a
    /// relaxed `fetch_max`, no allocation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Captures a sparse snapshot of the current state.
    ///
    /// Concurrent recording keeps going while the snapshot is taken; the
    /// snapshot is internally consistent up to in-flight records.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((idx as u32, c));
            }
        }
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Adds every value recorded in `snap` into this histogram
    /// (e.g. folding per-shard histograms into a combined one).
    pub fn merge(&self, snap: &HistogramSnapshot) {
        for &(idx, c) in &snap.buckets {
            if (idx as usize) < NUM_BUCKETS {
                self.buckets[idx as usize].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }
}

/// An immutable, mergeable capture of a [`Histogram`].
///
/// `buckets` holds only the non-empty `(bucket_index, count)` pairs in
/// ascending index order, so snapshots are compact on the wire and diff
/// cleanly between scrapes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Sparse `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within the bucketing error of
    /// ~1.6%. `q >= 1.0` returns the exact maximum; an empty snapshot
    /// returns 0. Total on any field values: a snapshot may have come off
    /// the wire, where a bucket index can name no bucket and counts can sum
    /// past `u64` — such an index reads as the top bucket, such a sum
    /// saturates.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum = cum.saturating_add(c);
            if cum >= target {
                let idx = (idx as usize).min(NUM_BUCKETS - 1);
                let mid = bucket_lower(idx) + bucket_width(idx) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Folds `other` into this snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged = std::collections::BTreeMap::new();
        for &(idx, c) in self.buckets.iter().chain(other.buckets.iter()) {
            let count = merged.entry(idx).or_insert(0u64);
            *count = count.saturating_add(c);
        }
        self.buckets = merged.into_iter().collect();
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = vec![0, u64::MAX];
        for shift in 0..64u32 {
            let base = 1u64 << shift;
            values.push(base);
            values.push(base + (base >> 1));
            values.push(base + (base - 1)); // top of the octave
        }
        values.sort_unstable();
        for w in values.windows(2) {
            let (a, b) = (bucket_index(w[0]), bucket_index(w[1]));
            assert!(a < NUM_BUCKETS && b < NUM_BUCKETS);
            assert!(a <= b, "index must not decrease ({} -> {})", w[0], w[1]);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_lower_round_trips() {
        for idx in 0..NUM_BUCKETS {
            let lo = bucket_lower(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            let hi = lo + (bucket_width(idx) - 1);
            assert_eq!(bucket_index(hi), idx, "upper bound of {idx}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, SUB as u64);
        for v in 0..SUB as u64 {
            // Each small value sits alone in its own exact bucket.
            assert!(s.buckets.contains(&(v as u32, 1)));
        }
    }

    #[test]
    fn count_sum_max_are_exact() {
        let h = Histogram::new();
        for v in [3u64, 1_000, 123_456_789, 42] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 3 + 1_000 + 123_456_789 + 42);
        assert_eq!(s.max, 123_456_789);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        let s = h.snapshot();
        let within = |est: u64, exact: u64| {
            let err = est.abs_diff(exact) as f64 / exact as f64;
            assert!(err < 0.04, "est={est} exact={exact} err={err}");
        };
        within(s.p50(), 500_000);
        within(s.p99(), 990_000);
        within(s.p999(), 999_000);
        assert_eq!(s.max, 1_000_000);
        assert!(s.p50() <= s.p99() && s.p99() <= s.p999() && s.p999() <= s.max);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn a_snapshot_off_the_wire_cannot_panic_a_quantile_or_a_merge() {
        // What a damaged stats frame can decode into: an index that names
        // no bucket, counts that sum past u64.
        let mut hostile = HistogramSnapshot {
            count: u64::MAX,
            sum: u64::MAX,
            max: 900,
            buckets: vec![(3, u64::MAX), (u32::MAX, u64::MAX)],
        };
        assert_eq!(hostile.p50(), 3);
        assert_eq!(hostile.quantile(0.999), 3);
        hostile.buckets.remove(0);
        assert_eq!(hostile.p99(), 900, "the top bucket, capped at max");
        let other = hostile.clone();
        hostile.merge(&other);
        assert_eq!(hostile.count, u64::MAX);
        assert_eq!(hostile.buckets, [(u32::MAX, u64::MAX)]);
    }

    #[test]
    fn snapshot_merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in [5u64, 900, 77_000, 5] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 2_000_000, 900] {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn live_merge_folds_snapshot_in() {
        let total = Histogram::new();
        let shard = Histogram::new();
        shard.record(10);
        shard.record(100_000);
        total.record(7);
        total.merge(&shard.snapshot());
        let s = total.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 100_000);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 1_000 + i);
                }
            }));
        }
        for hdl in handles {
            hdl.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.max, 7 * 1_000 + 9_999);
    }
}
