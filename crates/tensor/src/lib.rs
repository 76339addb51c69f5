#![warn(missing_docs)]

//! Tensor substrate for the TensorSocket reproduction.
//!
//! TensorSocket (the paper) leans on three pieces of PyTorch machinery:
//!
//! 1. **Refcounted storages** — "tensors are kept in memory as long as any
//!    of the producers or consumers hold a reference" (§3.2.4). Here a
//!    [`Tensor`] is a view (`dtype`, `shape`, `strides`, `offset`) over an
//!    [`Arc<Storage>`](Storage).
//! 2. **Tensor deconstruction/reconstruction** — the producer ships a small
//!    *payload* (pointer + metadata) instead of bytes; consumers rebuild the
//!    tensor with zero copies. [`TensorPayload`] + [`SharedRegistry`]
//!    reproduce this: the registry plays the role of the CUDA/shared-memory
//!    handle table, and `pack`/`unpack` are the `TensorPayload` wrapper the
//!    paper estimates at ~59 lines (§5).
//! 3. **Slicing views** — flexible batch sizing (§3.2.6) carves per-consumer
//!    batches from one contiguous producer batch. [`Tensor::narrow`]
//!    provides the zero-copy slice; [`collate`] builds the contiguous
//!    producer batch, and [`BatchBuf`] lets a loader decode a batch
//!    straight into the memory it will be shared from.
//!
//! Device placement is a label plus accounting (see [`ts_device`]); bytes
//! always live in host RAM, but allocation and transfer volumes are booked
//! exactly as they would be on the machines in the paper's Table 2.

pub mod collate;
pub mod context;
pub mod dtype;
pub mod ops;
pub mod payload;
pub mod pool;
pub mod registry;
pub mod shape;
pub mod storage;
pub mod tensor;

pub use collate::{cat0, cat0_leased, stack0, BatchBuf, RowMut};
pub use context::DeviceCtx;
pub use dtype::DType;
pub use payload::TensorPayload;
pub use pool::{SlotPool, SlotPoolStats};
pub use registry::SharedRegistry;
pub use shape::{contiguous_strides, Shape};
pub use storage::Storage;
pub use tensor::Tensor;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Shape/stride mismatch or invalid dimension arguments.
    Shape(String),
    /// A dtype was required that the tensor does not have.
    DType {
        /// The dtype the operation required.
        expected: DType,
        /// The dtype the tensor actually has.
        got: DType,
    },
    /// A payload referenced a storage that is no longer registered.
    DanglingPayload {
        /// Id of the released storage.
        storage_id: u64,
    },
    /// Device mismatch or unknown device.
    Device(String),
    /// A shared-memory arena operation failed; the kind says what a caller
    /// on the zero-copy publish path can do about it: wait out
    /// [`ts_shm::ShmError::Full`] (slots return as batches are
    /// acknowledged), give up on anything else (`TooLarge` never fits).
    Arena(ts_shm::ShmError),
    /// Device memory exhausted.
    OutOfMemory(ts_device::OutOfMemory),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::Shape(m) => write!(f, "shape error: {m}"),
            TensorError::DType { expected, got } => {
                write!(f, "dtype error: expected {expected:?}, got {got:?}")
            }
            TensorError::DanglingPayload { storage_id } => {
                write!(f, "payload references released storage {storage_id}")
            }
            TensorError::Device(m) => write!(f, "device error: {m}"),
            TensorError::Arena(m) => write!(f, "arena error: {m}"),
            TensorError::OutOfMemory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
