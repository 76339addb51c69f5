#![warn(missing_docs)]

//! Data-loading substrate: datasets, decode pipelines, samplers, and a
//! multi-worker prefetching [`DataLoader`].
//!
//! This reproduces the loader half of Figure 2a in the paper: fetch →
//! decode → transform/augment → collate, executed by a pool of worker
//! threads with bounded prefetch, exactly the PyTorch `DataLoader`
//! behaviours TensorSocket wraps:
//!
//! * workers prepare *whole batches* and deliver them in order,
//! * `num_workers` scales throughput without changing per-batch latency,
//! * `prefetch_factor` bounds in-flight batches per worker,
//! * shuffling is per-epoch, seeded, and identical across re-runs.
//!
//! The datasets are synthetic stand-ins for ImageNet-1K, LibriSpeech, CC3M
//! and Alpaca (see `DESIGN.md` §2): procedurally generated encoded samples
//! whose decode step performs *real* CPU work proportional to the decoded
//! size, so loader-side costs behave like the real pipelines.

pub mod codec;
pub mod combinators;
pub mod loader;
pub mod sample;
pub mod sampler;
pub mod synthetic;
pub mod transforms;

pub use combinators::{ConcatDataset, SubsetDataset};
pub use loader::{bind_slot_pool, Batch, DataLoader, DataLoaderConfig, EpochIter, SlotPoolBinding};
pub use sample::{Dataset, DecodedSample, RawSample};
pub use sampler::{shard_bounds, Sampler, SequentialSampler, ShardedSampler, ShuffleSampler};
pub use synthetic::{
    SyntheticAudioDataset, SyntheticCaptionDataset, SyntheticImageDataset, SyntheticTextDataset,
};
pub use transforms::{Normalize, Pipeline, RandomCrop, RandomHFlip, Resize, Transform};

/// Errors from the data substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// Index outside the dataset.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The dataset length.
        len: usize,
    },
    /// Decode failed (corrupt synthetic payload or wrong decoder).
    Decode(String),
    /// Tensor-level failure bubbled up.
    Tensor(ts_tensor::TensorError),
    /// The loader's worker pool shut down mid-epoch.
    WorkersGone,
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for dataset of {len}")
            }
            DataError::Decode(m) => write!(f, "decode error: {m}"),
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
            DataError::WorkersGone => write!(f, "data loader workers terminated"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<ts_tensor::TensorError> for DataError {
    fn from(e: ts_tensor::TensorError) -> Self {
        DataError::Tensor(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DataError>;
