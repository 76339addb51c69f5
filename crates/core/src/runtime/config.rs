//! Runtime configuration.

use crate::protocol::order::OrderConfig;
use crate::protocol::rubberband::RubberbandPolicy;
use crate::runtime::staging::StagingConfig;
use std::sync::Arc;
use std::time::Duration;
use ts_data::Batch;
use ts_device::DeviceId;

/// A producer-side batch transformation (§3.3.4, Figure 7): runs once per
/// batch in the producer before sharing, e.g. a frozen encoder generating
/// embeddings. Receives the collated batch and returns the batch to share.
pub type ProducerMap = Arc<dyn Fn(Batch) -> Batch + Send + Sync>;

/// Flexible batch sizing configuration (§3.2.6–3.2.7).
#[derive(Debug, Clone)]
pub struct FlexibleConfig {
    /// Producer batch size. The paper recommends at least twice the largest
    /// consumer batch so the repeated share never exceeds 50%.
    pub producer_batch: usize,
    /// Batch-order variation (offsets / shuffling).
    pub order: OrderConfig,
}

impl FlexibleConfig {
    /// Flexible sizing with the given producer batch and no order variation.
    pub fn new(producer_batch: usize) -> Self {
        Self {
            producer_batch,
            order: OrderConfig::default(),
        }
    }
}

/// Producer configuration.
#[derive(Clone)]
pub struct ProducerConfig {
    /// Endpoint base name; data goes on `<endpoint>/data`, control on
    /// `<endpoint>/ctrl`.
    pub endpoint: String,
    /// Consumer-side batch buffer size N (paper default: 2 is enough for
    /// similar tasks, §3.2.5).
    pub buffer_size: usize,
    /// Rubberband join window as a fraction of the epoch (paper: 0.02).
    pub rubberband_cutoff: f64,
    /// Consumers silent for longer than this are detached.
    pub heartbeat_timeout: Duration,
    /// Epochs to run.
    pub epochs: u64,
    /// Device batches are staged on before being shared (the paper puts the
    /// producer on GPU 0). `DeviceId::Cpu` skips the device hop.
    pub device: DeviceId,
    /// Device staging on a GPU `device`: batches go through a pre-allocated
    /// VRAM slab rotation, copied by a stage of its own between the feeder
    /// and the publish loop so the copy overlaps collation and publishing.
    /// The one thing to set is the simulated backend's modeled bandwidth
    /// ([`StagingConfig::h2d_bandwidth`]). Ignored when `device` is the CPU.
    pub staging: StagingConfig,
    /// Flexible batch sizing; `None` means default (identical batches).
    pub flexible: Option<FlexibleConfig>,
    /// Producer-side batch stage applied before sharing (e.g. frozen CLIP
    /// inference for DALL-E training, Figure 7). Runs once per batch no
    /// matter how many consumers attach.
    pub producer_map: Option<ProducerMap>,
    /// Stop waiting for the first consumer after this long (None = forever).
    pub first_consumer_timeout: Option<Duration>,
    /// Sparse per-shard endpoint overrides: shard `i` binds (and is
    /// advertised at) the given base URI instead of the one derived from
    /// [`ProducerConfig::endpoint`] by scheme rules — for shards that must
    /// listen on another interface, port range or socket directory than the
    /// base endpoint implies. Every shard pipeline still runs in the
    /// spawning process, under its one epoch coordinator. Sorted by shard;
    /// advertised verbatim in the WELCOME so consumers follow without
    /// out-of-band configuration.
    pub shard_endpoints: Vec<(u32, String)>,
    /// Stall-watchdog sensitivity: a batch stuck in one stage longer than
    /// this multiple of that stage's rolling p99 (with a small absolute
    /// floor, so a cold pipeline is not all "stalls") trips a
    /// `watchdog.stalls.*` counter and a verdict — loader-bound /
    /// H2D-bound / ack-bound / consumer-straggler — surfaced in the stats
    /// snapshot and the `ts-top` header.
    pub watchdog_stall_multiple: f64,
    /// Durable epoch batch log (`ts-log`): every published batch is teed
    /// into an mmap'd segment log by a background spiller, off the
    /// publish hot path. Enables replay-based late join ([`crate::Consumer`]
    /// groups resume from their persisted cursor after a crash) and lets
    /// rubberband pins be shed once their batch is durably logged. `None`
    /// (the default) disables the subsystem entirely. Incompatible with
    /// flexible sizing — per-consumer carved views have no streamed
    /// serialization to store — which fails at spawn.
    pub log: Option<ts_log::LogConfig>,
}

impl std::fmt::Debug for ProducerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerConfig")
            .field("endpoint", &self.endpoint)
            .field("buffer_size", &self.buffer_size)
            .field("rubberband_cutoff", &self.rubberband_cutoff)
            .field("epochs", &self.epochs)
            .field("device", &self.device)
            .field("staging", &self.staging)
            .field("flexible", &self.flexible)
            .field("producer_map", &self.producer_map.as_ref().map(|_| "<fn>"))
            .field(
                "log",
                &self.log.as_ref().map(|l| l.dir.display().to_string()),
            )
            .finish_non_exhaustive()
    }
}

impl Default for ProducerConfig {
    fn default() -> Self {
        Self {
            endpoint: "inproc://tensorsocket".to_string(),
            buffer_size: 2,
            rubberband_cutoff: 0.02,
            heartbeat_timeout: Duration::from_secs(2),
            epochs: 1,
            device: DeviceId::Cpu,
            staging: StagingConfig::default(),
            flexible: None,
            producer_map: None,
            first_consumer_timeout: Some(Duration::from_secs(30)),
            shard_endpoints: Vec::new(),
            watchdog_stall_multiple: 4.0,
            log: None,
        }
    }
}

/// Derives the per-channel endpoint from a base endpoint URI.
///
/// Moved to [`ts_socket::channel_endpoint`] so producer, consumer and the
/// attach handshake all share one derivation; re-exported here for
/// back-compatibility.
pub use ts_socket::channel_endpoint;

impl ProducerConfig {
    /// The scheme-aware endpoint layout rooted at this config's base URI
    /// (a single-shard map; a sharded group derives each shard's layout
    /// from its own shard base, honoring [`ProducerConfig::shard_endpoints`]
    /// overrides).
    pub fn endpoints(&self) -> ts_socket::EndpointMap {
        ts_socket::EndpointMap::with_overrides(&self.endpoint, 1, self.shard_endpoints.clone())
    }

    /// Announcements one epoch takes over a loader of `(batches_per_epoch,
    /// batch_size)`: its batches, or under flexible sizing the producer
    /// batches they fuse into.
    pub(crate) fn announces_per_epoch(&self, loader: (u64, u64)) -> u64 {
        match &self.flexible {
            None => loader.0,
            Some(flex) => (loader.0 * loader.1).div_ceil(flex.producer_batch as u64),
        }
    }

    /// Batches of one epoch the rubberband policy keeps pinned past full
    /// acknowledgement: what the arena and the VRAM slab rotation must hold
    /// on top of the publish window.
    pub(crate) fn pinned_per_epoch(&self, loader: (u64, u64)) -> usize {
        let policy = RubberbandPolicy {
            cutoff: self.rubberband_cutoff,
        };
        policy.pinned_batches(self.announces_per_epoch(loader)) as usize
    }

    /// The data (PUB/SUB) endpoint name.
    pub fn data_endpoint(&self) -> String {
        self.endpoints().data(0)
    }

    /// The control (PUSH/PULL) endpoint name.
    pub fn ctrl_endpoint(&self) -> String {
        self.endpoints().ctrl(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = ProducerConfig::default();
        assert_eq!(p.buffer_size, 2);
        assert!((p.rubberband_cutoff - 0.02).abs() < 1e-9);
        assert_eq!(p.data_endpoint(), "inproc://tensorsocket/data");
        assert_eq!(p.ctrl_endpoint(), "inproc://tensorsocket/ctrl");
        let c = crate::Consumer::builder();
        assert!(c.heartbeat_interval < p.heartbeat_timeout);
    }

    #[test]
    fn endpoint_derivation_follows_scheme() {
        assert_eq!(
            channel_endpoint("ipc:///tmp/ts.sock", "data"),
            "ipc:///tmp/ts.sock.data"
        );
        assert_eq!(
            channel_endpoint("ipc:///tmp/ts.sock", "ctrl"),
            "ipc:///tmp/ts.sock.ctrl"
        );
        assert_eq!(
            channel_endpoint("tcp://127.0.0.1:6000", "data"),
            "tcp://127.0.0.1:6000"
        );
        assert_eq!(
            channel_endpoint("tcp://127.0.0.1:6000", "ctrl"),
            "tcp://127.0.0.1:6001"
        );
        assert_eq!(channel_endpoint("inproc://ts", "data"), "inproc://ts/data");
        // Top-of-range base must not overflow; the derived out-of-range
        // ctrl port is rejected later by endpoint parsing, not here.
        assert_eq!(channel_endpoint("tcp://h:65535", "ctrl"), "tcp://h:65536");
        assert!(ts_socket::EndpointAddr::parse("tcp://h:65536").is_err());
    }

    #[test]
    fn shard_zero_endpoints_match_unsharded() {
        // A consumer says HELLO on the one-shard map of the base endpoint
        // and keeps that link as shard 0's, whatever the WELCOME says.
        let p = ProducerConfig::default();
        let group = ts_socket::EndpointMap::new(&p.endpoint, 2);
        assert_eq!(group.data(0), p.data_endpoint());
        assert_eq!(group.ctrl(0), p.ctrl_endpoint());
        assert_eq!(group.data(1), "inproc://tensorsocket/s1/data");
        let tcp = ts_socket::EndpointMap::new("tcp://127.0.0.1:7000", 2);
        // shard 1 claims ports 7002 (data) / 7003 (ctrl): disjoint from
        // shard 0's 7000/7001.
        assert_eq!(tcp.data(1), "tcp://127.0.0.1:7002");
        assert_eq!(tcp.ctrl(1), "tcp://127.0.0.1:7003");
    }
}
