#![warn(missing_docs)]

//! Virtual-time cluster simulator for the TensorSocket evaluation.
//!
//! The paper's experiments measure where the bottleneck sits — CPU-side
//! loading vs GPU compute — across hardware configurations we do not have
//! (A100/H100 servers, AWS g5 instances). This crate reproduces those
//! regimes with a deterministic discrete-event simulation:
//!
//! * [`des`] — an event scheduler over nanosecond virtual time;
//! * [`ps`] — processor-sharing resources (CPU core pools, GPUs under MPS
//!   or multi-stream sharing, disk bandwidth) with exact time-weighted
//!   utilization accounting;
//! * [`cluster`] — the world model: multi-worker loader pipelines,
//!   training processes, and the four data-loading disciplines evaluated in
//!   the paper (non-shared, TensorSocket, CoorDL-like, Joader-like).
//!
//! The sharing protocol inside the simulator is not a re-implementation:
//! the publish window and release are the same [`tensorsocket::Cursors`]
//! table the threaded runtime executes, so the evaluated protocol
//! and the shipped protocol cannot diverge.
//!
//! Everything is deterministic: the same [`cluster::SimConfig`] always
//! produces bit-identical results.

pub mod cluster;
pub mod des;
pub mod ps;

pub use cluster::{
    run, ClusterSpec, GpuConfig, GpuSharing, LoaderSpec, SimConfig, SimResult, Strategy,
    TrainerResult, WorkloadSpec,
};
pub use des::Scheduler;
pub use ps::PsResource;
