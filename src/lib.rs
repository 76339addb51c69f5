//! Umbrella crate for the TensorSocket reproduction workspace.
//!
//! Re-exports the public surface of every member crate so that examples and
//! downstream users can depend on a single crate. See the individual crates
//! for detailed documentation:
//!
//! * [`tensorsocket`] — the shared data loader (the paper's contribution)
//! * [`ts_tensor`] — tensor substrate (storage, views, payloads)
//! * [`ts_socket`] — PUB/SUB + PUSH/PULL messaging over Unix and TCP
//!   stream sockets (`inproc://`, `ipc://` and `tcp://` endpoints)
//! * [`ts_shm`] — file-backed shared-memory payload arena for
//!   cross-process zero-copy batches
//! * [`ts_data`] — datasets, transforms, multi-worker `DataLoader`
//! * [`ts_device`] — simulated device topology and traffic accounting
//! * [`ts_staging`] — VRAM slab pool + H2D copy accounting behind a
//!   pluggable `DeviceBackend` (the producer's device staging layer)
//! * [`ts_sim`] — virtual-time cluster simulator used by the evaluation
//! * [`ts_baselines`] — NonShared / CoorDL-like / Joader-like comparators
//! * [`ts_cloud`] — cloud instance catalog and cost planner
//! * [`ts_experiments`] — the per-figure/per-table evaluation harness
//!
//! The workspace also ships `ts-top` (`src/bin/ts-top.rs`): a live
//! observability CLI that scrapes a running producer's per-stage latency
//! histograms over the control plane — see the *Observability* section
//! of the [`tensorsocket`] crate docs.

pub use tensorsocket;
pub use ts_baselines;
pub use ts_cloud;
pub use ts_data;
pub use ts_device;
pub use ts_experiments;
pub use ts_metrics;
pub use ts_shm;
pub use ts_sim;
pub use ts_socket;
pub use ts_staging;
pub use ts_tensor;
