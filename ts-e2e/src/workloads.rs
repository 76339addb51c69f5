//! The four workloads: their fixed shapes, the loaders generated from a
//! seed, the consumer's timed step, and the reference transcript every
//! consumer's warm-up epoch is checked against.
//!
//! Shapes are fixed; only epoch counts scale with the run length. The
//! epoch counts per ten seconds were calibrated once on the 2-core box
//! this benchmark was written on and are frozen here — work is fixed
//! (epochs x batches), not time, so counts repeat exactly between runs.

use std::sync::Arc;
use ts_data::{
    DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample, SyntheticImageDataset,
};
use ts_device::DeviceId;
use ts_tensor::{ops, Tensor};

/// Consumer processes in every workload (the box has two cores).
pub const CONSUMERS: usize = 2;
/// Bytes read per sample by the timed consumer step.
pub const PROBE_BYTES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SharedDecode,
    AnnounceRtt,
    StreamedBytes,
    LoggedReplay,
}

/// One workload's frozen definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Per-sample field shape (u8).
    pub sample_shape: &'static [usize],
    pub batch_size: usize,
    pub batches_per_epoch: usize,
    /// Loader workers of the shared producer.
    pub workers: usize,
    /// Timed shared epochs per ten seconds of run length (epoch 0, the
    /// warm-up, comes on top).
    pub epochs_per_10s: f64,
    /// Timed non-shared epochs per ten seconds of run length; the phase
    /// is sized to about a third of the shared one.
    pub nonshared_epochs_per_10s: f64,
    /// `Some(n)`: `SyntheticImageDataset` with `n` encoded bytes per
    /// sample (decode costs CPU); `None`: [`PrebuiltDataset`] (decode is a
    /// clone).
    pub encoded_len: Option<usize>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::SharedDecode,
        name: "shared_decode",
        why: "the paper's headline: decode-bound 3x160x160 images, batch 32, shared vs private loaders; \
              ts-data decode and ts-tensor collate do the work, transport almost none",
        sample_shape: &[3, 160, 160],
        batch_size: 32,
        batches_per_epoch: 128,
        workers: 2,
        epochs_per_10s: 22.0,
        nonshared_epochs_per_10s: 5.0,
        encoded_len: Some(8192),
    },
    Workload {
        kind: Kind::AnnounceRtt,
        name: "announce_rtt",
        why: "1 KiB prebuilt batches: loader and payload cost ~0, so the per-batch announce/rebuild/ack \
              round trip through ts-socket, protocol and the runtime wait loops is the whole cost",
        sample_shape: &[256],
        batch_size: 4,
        batches_per_epoch: 4096,
        workers: 1,
        epochs_per_10s: 29.0,
        nonshared_epochs_per_10s: 450.0,
        encoded_len: None,
    },
    Workload {
        kind: Kind::StreamedBytes,
        name: "streamed_bytes",
        why: "1.5 MiB prebuilt batches with both consumers in streamed mode: bytes on the socket instead \
              of pointers; stresses protocol streamed codec and ts-socket bulk send, bypasses ts-shm attach",
        sample_shape: &[3, 128, 128],
        batch_size: 32,
        batches_per_epoch: 256,
        workers: 1,
        epochs_per_10s: 15.0,
        nonshared_epochs_per_10s: 58.0,
        encoded_len: None,
    },
    Workload {
        kind: Kind::LoggedReplay,
        name: "logged_replay",
        why: "decode-paced 384 KiB batches with .log(dir): a late consumer group replays from seq 0 out of \
              ts-log while the witness stays live; the only workload that runs log append and read",
        sample_shape: &[3, 64, 64],
        batch_size: 32,
        batches_per_epoch: 256,
        workers: 1,
        epochs_per_10s: 7.0,
        nonshared_epochs_per_10s: 3.0,
        encoded_len: Some(65536),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Epoch counts of one run: derived from the run length, never from a
/// measurement, so two runs of one length do identical work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sizing {
    /// Timed shared epochs (the stream has `1 + timed` epochs).
    pub timed_epochs: u64,
    /// Timed non-shared epochs (plus one warm-up epoch).
    pub nonshared_epochs: u64,
    /// Batches the witness consumes before the late group is launched:
    /// three quarters into an epoch, so the late group is parked — past
    /// the join window — until the next epoch boundary, and not for long
    /// (`logged_replay` only).
    pub late_launch_batches: u64,
    /// Batches before that boundary: what the late group must receive out
    /// of the log, from seq 0, before it reaches the live stream.
    pub late_replay_batches: u64,
}

impl Workload {
    /// The same workload over a shorter epoch (`--check` only): shapes
    /// stay, the dataset shrinks.
    pub fn with_batches_per_epoch(mut self, batches: usize) -> Workload {
        self.batches_per_epoch = batches.max(1);
        self
    }

    pub fn sample_bytes(&self) -> usize {
        self.sample_shape.iter().product()
    }

    pub fn batch_bytes(&self) -> usize {
        self.sample_bytes() * self.batch_size
    }

    pub fn samples_per_epoch(&self) -> usize {
        self.batch_size * self.batches_per_epoch
    }

    /// Batches per tracing block of the traced pass: spans are on for
    /// every other block, thirty-two blocks to the epoch (of the block
    /// lengths tried, the shortest gave the steadiest overhead estimate).
    pub fn trace_block_len(&self) -> u64 {
        (self.batches_per_epoch as u64 / 32).max(1)
    }

    /// `scale` shrinks the run further (`--check` runs a twentieth of the
    /// epochs, the run under the allocator's defaults a quarter).
    pub fn sizing(&self, seconds: f64, scale: f64) -> Sizing {
        let scaled = |per_10s: f64, floor: u64| -> u64 {
            ((per_10s * seconds / 10.0 * scale).round() as u64).max(floor)
        };
        // The late group needs a replayed prefix and a live tail: at
        // least two timed epochs, admitted after half the stream (at most
        // four epochs — 1024 batches, inside default retention).
        let floor = if self.kind == Kind::LoggedReplay {
            2
        } else {
            1
        };
        let timed_epochs = scaled(self.epochs_per_10s, floor);
        let late_epochs = timed_epochs.div_ceil(2).min(4);
        let bpe = self.batches_per_epoch as u64;
        Sizing {
            timed_epochs,
            nonshared_epochs: scaled(self.nonshared_epochs_per_10s, 1),
            late_launch_batches: late_epochs * bpe - bpe / 4,
            late_replay_batches: late_epochs * bpe,
        }
    }

    /// The loader handed to the system under test: dataset content and
    /// shuffle order both derive from `seed`.
    pub fn loader(&self, seed: u64, workers: usize) -> DataLoader {
        let len = self.samples_per_epoch();
        let dataset: Arc<dyn Dataset> = match self.encoded_len {
            Some(encoded_len) => Arc::new(
                SyntheticImageDataset::new(len, self.sample_shape[1], self.sample_shape[2], seed)
                    .with_encoded_len(encoded_len),
            ),
            None => Arc::new(PrebuiltDataset::new(len, self.sample_shape, seed)),
        };
        DataLoader::new(
            dataset,
            DataLoaderConfig {
                batch_size: self.batch_size,
                num_workers: workers,
                prefetch_factor: 2,
                drop_last: true,
                shuffle: true,
                seed,
            },
        )
    }
}

/// A dataset whose decode is a clone of a seeded cached tensor: loading
/// costs a reference-count bump, so what a workload built on it measures
/// is the sharing machinery, not the loader.
pub struct PrebuiltDataset {
    len: usize,
    cache: Vec<Tensor>,
    seed: u64,
}

impl PrebuiltDataset {
    /// Distinct cached tensors; sample `i` decodes to `cache[i % DISTINCT]`.
    const DISTINCT: usize = 61;

    pub fn new(len: usize, sample_shape: &[usize], seed: u64) -> Self {
        let cache = (0..Self::DISTINCT.min(len.max(1)))
            .map(|k| {
                Tensor::rand_u8(
                    sample_shape,
                    DeviceId::Cpu,
                    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k as u64,
                )
            })
            .collect();
        Self { len, cache, seed }
    }
}

impl Dataset for PrebuiltDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        if index >= self.len {
            return Err(ts_data::DataError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        Ok(RawSample {
            index,
            bytes: bytes::Bytes::new(),
            label: ((index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ self.seed) as i64 & 0xffff,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        0
    }

    fn decode(&self, raw: &RawSample) -> ts_data::Result<DecodedSample> {
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![self.cache[raw.index % self.cache.len()].clone()],
            label: raw.label,
        })
    }

    fn name(&self) -> &str {
        "prebuilt"
    }
}

/// The timed consumer step — part of the benchmark's definition: FNV of
/// the labels tensor plus a [`PROBE_BYTES`] read per sample out of the
/// borrowed field view. No `gather_bytes`, no full-payload pass: a step
/// that checksummed every byte spent ~40 % of all CPU in the consumers
/// and turned a loader-bound shape into a consumer-bound one.
pub fn step(field: &Tensor, labels: &Tensor) -> u64 {
    let mut acc = match labels.bytes() {
        Ok(b) => ops::fnv1a(b),
        Err(_) => ops::checksum(labels),
    };
    if let Ok(bytes) = field.bytes() {
        let rows = field.shape().first().copied().unwrap_or(0).max(1);
        let stride = bytes.len() / rows;
        for row in 0..rows {
            let at = row * stride;
            let probe = &bytes[at..(at + PROBE_BYTES.min(stride)).min(bytes.len())];
            acc = acc.rotate_left(5) ^ ops::fnv1a(probe);
        }
    }
    acc
}

/// One warm-up batch as every party must have seen it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranscriptLine {
    pub epoch: u64,
    pub index: u64,
    pub field_fnv: u64,
    pub label_fnv: u64,
}

impl TranscriptLine {
    pub fn of(epoch: u64, index: u64, field: &Tensor, labels: &Tensor) -> Self {
        Self {
            epoch,
            index,
            field_fnv: ops::checksum(field),
            label_fnv: ops::checksum(labels),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "{} {} {:016x} {:016x}",
            self.epoch, self.index, self.field_fnv, self.label_fnv
        )
    }

    pub fn parse(line: &str) -> Option<Self> {
        let mut it = line.split_whitespace();
        let line = Self {
            epoch: it.next()?.parse().ok()?,
            index: it.next()?.parse().ok()?,
            field_fnv: u64::from_str_radix(it.next()?, 16).ok()?,
            label_fnv: u64::from_str_radix(it.next()?, 16).ok()?,
        };
        it.next().is_none().then_some(line)
    }
}

/// The reference: epoch 0 as the loader itself yields it, with no sharing
/// machinery between the dataset and the checksum.
pub fn reference_transcript(loader: &DataLoader) -> Vec<TranscriptLine> {
    loader
        .epoch(0)
        .map(|b| TranscriptLine::of(b.epoch, b.index as u64, &b.fields[0], &b.labels))
        .collect()
}

/// Mismatching positions plus the length difference between a party's
/// warm-up transcript and the reference.
pub fn transcript_mismatches(reference: &[TranscriptLine], got: &[TranscriptLine]) -> u64 {
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + reference.len().abs_diff(got.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_scales_with_seconds_and_never_reaches_zero() {
        let w = find("shared_decode").unwrap();
        let full = w.sizing(10.0, 1.0).timed_epochs;
        assert_eq!(full as f64, w.epochs_per_10s);
        assert_eq!(w.sizing(10.0, 0.5).timed_epochs, full / 2);
        assert_eq!(w.sizing(5.0, 1.0).timed_epochs, full / 2);
        assert_eq!(w.sizing(10.0, 0.0001).timed_epochs, 1);
        assert_eq!(w.sizing(10.0, 0.0001).nonshared_epochs, 1);
        let lr = find("logged_replay").unwrap();
        // long run: launched late in epoch 3, admitted at epoch 4, 1024
        // batches off the log
        let s = lr.sizing(20.0, 1.0);
        assert!(s.timed_epochs >= 8);
        assert_eq!(
            (s.late_launch_batches, s.late_replay_batches),
            (3 * 256 + 192, 4 * 256)
        );
        // tiny: still a replayed prefix and a live tail
        let s = lr.sizing(10.0, 0.05);
        assert_eq!(s.timed_epochs, 2);
        assert_eq!((s.late_launch_batches, s.late_replay_batches), (192, 256));
        // a shorter epoch moves the launch point with it
        let s = lr.with_batches_per_epoch(32).sizing(10.0, 0.05);
        assert_eq!((s.late_launch_batches, s.late_replay_batches), (24, 32));
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let w = find("announce_rtt").unwrap();
        let a = reference_transcript(&w.loader(7, 0));
        let b = reference_transcript(&w.loader(7, 1));
        let c = reference_transcript(&w.loader(8, 0));
        assert_eq!(a.len(), w.batches_per_epoch);
        assert_eq!(a, b, "worker count must not change the stream");
        assert_ne!(a, c);
        assert_eq!(transcript_mismatches(&a, &b), 0);
        assert_eq!(transcript_mismatches(&a, &a[..10]), (a.len() - 10) as u64);
        let line = a[3];
        assert_eq!(TranscriptLine::parse(&line.render()), Some(line));
    }

    #[test]
    fn step_reads_labels_and_a_probe_per_sample() {
        let w = find("logged_replay").unwrap();
        let batch = w.loader(1, 0).epoch(0).next().unwrap();
        let a = step(&batch.fields[0], &batch.labels);
        assert_eq!(a, step(&batch.fields[0], &batch.labels));
        let other = w.loader(1, 0).epoch(0).nth(1).unwrap();
        assert_ne!(a, step(&other.fields[0], &other.labels));
    }
}
